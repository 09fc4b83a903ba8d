"""The output check accepts the golden outputs and rejects doctored ones."""

import copy

import outputs
from workloads import ScenarioOutput


def golden_output(workload="sample_norms", sid="s2_band"):
    csv, verdicts = outputs.load_golden(workload, sid)
    return ScenarioOutput(exit_code=0, csv=csv, verdicts=verdicts)


def doctor_cell(csv, row, col, factor):
    lines = csv.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_golden_output_passes():
    for workload in ("fiber_geodesics", "sample_norms", "default_suite"):
        assert outputs.check(workload, "s3_hopf", golden_output(workload, "s3_hopf")) == []


def test_doctored_csv_cell_is_rejected():
    out = golden_output()
    out.csv = doctor_cell(out.csv, 2, 1, 1.0 + 1e-4)
    problems = outputs.check("sample_norms", "s2_band", out)
    assert len(problems) == 1 and "c0_diff" in problems[0]


def test_change_within_tolerance_is_accepted():
    out = golden_output()
    out.csv = doctor_cell(out.csv, 2, 1, 1.0 + 1e-9)
    assert outputs.check("sample_norms", "s2_band", out) == []


def test_flipped_verdict_is_rejected():
    out = golden_output()
    out.verdicts = copy.deepcopy(out.verdicts)
    out.verdicts[0]["passed"] = not out.verdicts[0]["passed"]
    problems = outputs.check("sample_norms", "s2_band", out)
    assert len(problems) == 1 and "passed" in problems[0]


def test_missing_verdict_and_failed_exit_are_rejected():
    out = golden_output()
    out.verdicts = out.verdicts[:-1]
    out.exit_code = 1
    problems = outputs.check("sample_norms", "s2_band", out)
    assert any("exit code" in p for p in problems)
    assert any("criteria" in p for p in problems)


def test_nan_cells_must_stay_nan():
    out = golden_output("fiber_geodesics", "s2_band")
    assert "nan" in out.csv
    out.csv = out.csv.replace("nan", "0.0", 1)
    assert outputs.check("fiber_geodesics", "s2_band", out)
