"""Command-line interface: config parsing, outputs, exit codes."""

import json

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef import cli
from cheegerdef import verify
from cheegerdef.config import echo, table_keys
from cheegerdef.gmanifold import NumericalFailure
from cheegerdef.scenarios import get_scenario, list_scenarios
from cheegerdef.tensor_calc import GEODESIC_CHART_MARGIN, SamplePlan
from cheegerdef.verify import SweepConfig

TINY = """
scenario = s2_band
seed = 7
samples.points = 40
invariance.points = 6
invariance.elements = 4
oracle.samples = 30
geodesic.length = 1.0
"""


def _write(tmp_path, body, name="run.cfg"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return p


def _tiny_config(tmp_path, extra=""):
    body = TINY + f"out.csv = {tmp_path}/sweep.csv\n" \
                  f"out.report = {tmp_path}/report.json\n" + extra
    return _write(tmp_path, body)


def test_list_scenarios(capsys):
    assert cli.main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["s2_band", "warped_s2", "s3_hopf", "su2_s2", "t2_flat"]


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert "nothing to do" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_line_reports_line_number(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nthis has no equals sign\n")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_unknown_key_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nfoo.bar = 1\n")
    assert cli.main(["run", str(p)]) == 2
    assert "unknown key 'foo.bar'" in capsys.readouterr().err


def test_retired_directions_key_rejected(tmp_path, capsys):
    # the C^0 sup is exact, so no config sets a number of direction pairs
    p = _write(tmp_path, "scenario = s2_band\nsamples.directions = 50\n")
    assert cli.main(["run", str(p)]) == 2
    assert "unknown key 'samples.directions'" in capsys.readouterr().err


def test_retired_fd_step_key_rejected(tmp_path, capsys):
    # the finite-difference step is the constant tensor_calc.H_FD
    p = _write(tmp_path, "scenario = s2_band\nfd.step = 1e-4\n")
    assert cli.main(["run", str(p)]) == 2
    assert "unknown key 'fd.step'" in capsys.readouterr().err


def test_duplicate_key_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nseed = 1\nseed = 2\n")
    assert cli.main(["run", str(p)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_unknown_scenario_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s9_band\n")
    assert cli.main(["run", str(p)]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_scenario_rejected(tmp_path, capsys):
    p = _write(tmp_path, "seed = 3\n")
    assert cli.main(["run", str(p)]) == 2


def test_unsupported_cp_order_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\ncp.order = 2\n")
    assert cli.main(["run", str(p)]) == 2
    assert "unsupported C^p order" in capsys.readouterr().err


def test_too_small_l_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nl_grid = 0.1 0.0005\n")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "l" in err


def test_non_decreasing_l_grid_rejected(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nl_grid = 0.05 0.1\n")
    assert cli.main(["run", str(p)]) == 2


def test_one_value_large_l_grid_rejected(tmp_path, capsys):
    p = _tiny_config(tmp_path, "large_l_grid = 10\nonly = large_l\n")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "large_l_grid" in err and "at least 2 values" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_margin_that_empties_the_region_rejected(tmp_path, capsys):
    p = _tiny_config(tmp_path, "samples.margin = 2.0\n")
    assert cli.main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert "samples.margin" in err and "coordinate phi" in err
    assert not (tmp_path / "sweep.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("scenario, key, value", [
    ("s2_band", "l_grid", "inf 0.1 0.05"),
    ("s2_band", "l_grid", "nan 0.1 0.05"),
    ("t2_flat", "scenario.orbit_length", "nan"),
    ("t2_flat", "scenario.orbit_length", "inf"),
    ("s2_band", "geodesic.step", "inf"),
])
def test_non_finite_number_rejected(tmp_path, capsys, scenario, key, value):
    p = _write(tmp_path, f"scenario = {scenario}\n{key} = {value}\n"
                         f"out.csv = {tmp_path}/sweep.csv\n"
                         f"out.report = {tmp_path}/report.json\n")
    assert cli.main(["run", str(p)]) == 2
    assert f"key '{key}'" in capsys.readouterr().err


# key: (raw value, run-config attribute, report echo entry, parsed value);
# the two configs set every key to a non-default value between them
_EVERY_KEY_WARPED = {
    "scenario": ("warped_s2", "scenario_id", "scenario", "warped_s2"),
    "seed": ("7", "sweep.seed", "seed", 7),
    "l_grid": ("0.16 0.08 0.04 0.02", "sweep.l_grid", "l_grid",
               (0.16, 0.08, 0.04, 0.02)),
    "large_l_grid": ("12 36 120", "sweep.large_l_grid", "large_l_grid",
                     (12.0, 36.0, 120.0)),
    "only": ("oracle, convergence", "sweep.enabled", "enabled",
             ("convergence", "oracle")),
    "samples.points": ("64", "sweep.n_points", "samples_points", 64),
    "samples.margin": ("0.15", "sweep.margin", "samples_margin", 0.15),
    "cp.order": ("0", "sweep.cp_order", "cp_order", 0),
    "geodesic.step": ("2e-3", "sweep.geodesic_step", "geodesic_step", 2e-3),
    "geodesic.length": ("0.5", "sweep.geodesic_length", "geodesic_length", 0.5),
    "geodesic.starts": ("0.7 1.0", "sweep.geodesic_transverse", "geodesic_starts",
                        (0.7, 1.0)),
    "invariance.points": ("8", "sweep.invariance_points", "invariance_points", 8),
    "invariance.elements": ("5", "sweep.invariance_elements",
                            "invariance_elements", 5),
    "oracle.samples": ("40", "sweep.oracle_count", "oracle_samples", 40),
    "scenario.warp_amplitude": ("0.2", "warp_amplitude", "warp_amplitude", 0.2),
    "out.csv": ("keys.csv", "out_csv", "out_csv", "keys.csv"),
    "out.report": ("keys.json", "out_report", "out_report", "keys.json"),
    "tol.c0_slope_lo": ("1.85", "sweep.c0_slope_window",
                        "thresholds.c0_slope_window", (1.85, 2.15)),
    "tol.c0_slope_hi": ("2.15", "sweep.c0_slope_window",
                        "thresholds.c0_slope_window", (1.85, 2.15)),
    "tol.c1_slope_lo": ("1.7", "sweep.c1_slope_window",
                        "thresholds.c1_slope_window", (1.7, 2.3)),
    "tol.c1_slope_hi": ("2.3", "sweep.c1_slope_window",
                        "thresholds.c1_slope_window", (1.7, 2.3)),
    "tol.t_slope_lo": ("1.75", "sweep.t_slope_window",
                       "thresholds.t_slope_window", (1.75, 2.25)),
    "tol.t_slope_hi": ("2.25", "sweep.t_slope_window",
                       "thresholds.t_slope_window", (1.75, 2.25)),
    "tol.large_l_slope_lo": ("-2.3", "sweep.large_l_slope_window",
                             "thresholds.large_l_slope_window", (-2.3, -1.7)),
    "tol.large_l_slope_hi": ("-1.7", "sweep.large_l_slope_window",
                             "thresholds.large_l_slope_window", (-2.3, -1.7)),
    "tol.gap_ratio": ("3.5", "sweep.gap_ratio_max", "thresholds.gap_ratio_max", 3.5),
    "tol.geo_limit_drift": ("2e-6", "sweep.geo_limit_drift_max",
                            "thresholds.geo_limit_drift_max", 2e-6),
    "tol.geo_base_drift": ("5e-4", "sweep.geo_base_drift_min",
                           "thresholds.geo_base_drift_min", 5e-4),
    "tol.speed_drift": ("2e-8", "sweep.speed_drift_max",
                        "thresholds.speed_drift_max", 2e-8),
    "tol.invariance": ("2e-8", "sweep.invariance_max",
                       "thresholds.invariance_max", 2e-8),
    "tol.horizontal": ("2e-10", "sweep.horizontal_max",
                       "thresholds.horizontal_max", 2e-10),
    "tol.kappa": ("2e-10", "sweep.kappa_max", "thresholds.kappa_max", 2e-10),
    "tol.oracle": ("2e-10", "sweep.oracle_max", "thresholds.oracle_max", 2e-10),
}
_EVERY_KEY_T2 = {
    "scenario": ("t2_flat", "scenario_id", "scenario", "t2_flat"),
    "scenario.orbit_length": ("1.5", "orbit_length", "orbit_length", 1.5),
}


def _at(obj, path):
    for part in path.split("."):
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    return obj


def test_every_key_reaches_its_field_and_echo():
    default = cli.build_run_config({"scenario": "s2_band"})
    for table in (_EVERY_KEY_WARPED, _EVERY_KEY_T2):
        raw = cli.parse_config("".join(f"{k} = {v[0]}\n" for k, v in table.items()))
        rc = cli.build_run_config(raw)
        report = cli.render_report(rc, {}, get_scenario(rc.scenario_id))
        echo = json.loads(report)["config"]
        for key, (_, attr, entry, value) in table.items():
            assert _at(rc, attr) == value != _at(default, attr), key
            expected = list(value) if isinstance(value, tuple) else value
            assert _at(echo, entry) == expected, key
    keys = set(_EVERY_KEY_WARPED) | set(_EVERY_KEY_T2)
    assert len(keys) == 34
    assert keys == table_keys(cli.RunConfig, SweepConfig)
    for other in ("tol.t_floor", "samples_points", "margin", "enabled", "sweep"):
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.parse_config(f"scenario = s2_band\n{other} = 1\n")


def test_warp_amplitude_scenario_mismatch(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nscenario.warp_amplitude = 0.5\n")
    assert cli.main(["run", str(p)]) == 2
    assert "warped_s2 only" in capsys.readouterr().err


def test_orbit_length_scenario_mismatch(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nscenario.orbit_length = 2.0\n")
    assert cli.main(["run", str(p)]) == 2


def test_bad_only_name(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\nonly = convergence, curvature\n")
    assert cli.main(["run", str(p)]) == 2


def test_geodesic_start_outside_chart(tmp_path, capsys):
    p = _write(tmp_path, "scenario = s2_band\ngeodesic.starts = 0.05 0.9\n")
    assert cli.main(["run", str(p)]) == 2
    assert "chart" in capsys.readouterr().err


def test_geodesic_start_inside_integration_margin(tmp_path, capsys):
    # inside the chart (lo = 0.2) but within the 3e-4 margin of its edge
    out = tmp_path / "out.csv"
    p = _write(tmp_path, "scenario = s2_band\ngeodesic.starts = 0.2001\n"
                         f"only = geodesic\nout.csv = {out}\n")
    assert cli.main(["run", str(p)]) == 2
    captured = capsys.readouterr()
    assert "geodesic start 0.2001" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_geodesic_start_at_the_integration_margin_runs(tmp_path):
    # the first start outside the 3e-4 margin of the chart edge lo = 0.2
    start = 0.2 + GEODESIC_CHART_MARGIN
    p = _write(tmp_path, f"scenario = s2_band\ngeodesic.starts = {start!r}\n"
                         "geodesic.length = 0.01\nonly = geodesic\n"
                         f"out.csv = {tmp_path}/sweep.csv\n"
                         f"out.report = {tmp_path}/report.json\n")
    # over length 0.01 the base drift stays below its threshold, so the
    # run fails that verdict (exit 1) and not its config (exit 2)
    assert cli.main(["run", str(p)]) == 1
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    (row,) = report["report"]["geodesic"]["starts"]
    assert row["transverse"] == start
    assert row["limit_status"] == row["base_status"] == "ok"


def test_end_to_end_tiny_run(tmp_path, capsys):
    p = _tiny_config(tmp_path)
    assert cli.main(["run", str(p)]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass]") == 13
    assert "[FAIL]" not in out

    csv_text = (tmp_path / "sweep.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 5  # header + one row per l
    assert csv_text.endswith("\n")

    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["schema_version"] == 4
    assert "fd_step" not in report["config"]
    assert "plan_dirs" not in report["report"]
    assert "samples_directions" not in report["config"]
    assert set(report["report"]["oracle"]) == {"n_samples", "kernel_max_diff",
                                               "definition_max_diff"}
    assert report["config"]["scenario"] == "s2_band"
    assert report["config"]["seed"] == 7
    assert report["config"]["samples_margin"] == 0.1
    # starts were not set in the config, so the echo must show the
    # scenario defaults actually used, not null
    assert report["config"]["geodesic_starts"] == [0.6, 0.9, 1.2]
    assert report["report"]["passed"] is True
    assert "_timings" not in report["report"]
    names = {v["criterion"] for v in report["report"]["verdicts"]}
    assert "oracle_equivalence" in names


def test_rerun_is_byte_identical(tmp_path):
    p = _tiny_config(tmp_path)
    assert cli.main(["run", str(p)]) == 0
    first_csv = (tmp_path / "sweep.csv").read_bytes()
    first_report = (tmp_path / "report.json").read_bytes()
    assert cli.main(["run", str(p)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first_csv
    assert (tmp_path / "report.json").read_bytes() == first_report


def test_unwritable_output_path_is_config_error(tmp_path, capsys):
    body = TINY + f"out.csv = {tmp_path}/no_such_dir/sweep.csv\n" \
                  f"out.report = {tmp_path}/report.json\n"
    p = _write(tmp_path, body)
    assert cli.main(["run", str(p)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_only_subset_runs_less(tmp_path, capsys):
    p = _tiny_config(tmp_path)
    assert cli.main(["run", str(p), "--only", "convergence"]) == 0
    out = capsys.readouterr().out
    assert "c0_rate_window" in out
    assert "oracle_equivalence" not in out
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert "oracle" not in report["report"]
    assert "convergence" in report["report"]


def test_scenario_and_seed_overrides(tmp_path, capsys):
    p = _tiny_config(tmp_path)
    code = cli.main(["run", str(p), "--scenario", "t2_flat", "--seed", "11",
                     "--only", "convergence,invariance"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["scenario"] == "t2_flat"
    assert report["config"]["seed"] == 11
    assert report["report"]["scenario"] == "t2_flat"


def test_vacuous_series_serializes_as_null(tmp_path, capsys):
    # the scenario-parameter check applies to the effective scenario
    p = _tiny_config(tmp_path, extra="scenario.orbit_length = 2.0\n")
    assert cli.main(["run", str(p), "--scenario", "s3_hopf"]) == 2

    body = TINY.replace("s2_band", "t2_flat") + \
        f"out.csv = {tmp_path}/t2.csv\nout.report = {tmp_path}/t2.json\n"
    p2 = _write(tmp_path, body, name="t2.cfg")
    assert cli.main(["run", str(p2)]) == 0
    report = json.loads((tmp_path / "t2.json").read_text(encoding="utf-8"))
    assert report["report"]["t_scaling"]["vacuous"] is True
    assert report["report"]["rows"][0]["t_ratio_max"] is None
    csv_text = (tmp_path / "t2.csv").read_text(encoding="utf-8")
    assert "nan" in csv_text.splitlines()[1]


def test_report_values_convert_to_strict_json():
    # every kind of value a report can hold, with non-finite floats in
    # plain lists, tuples and dict values alike
    nan, inf = float("nan"), float("inf")
    payload = {1: nan, "a": (3, True, None, "s"),
               "floats": [0.5, nan, -0.0], "pair": (inf, 2.0), "mixed": [1, 0.5, True],
               "grid": [[1.5, -inf], [nan, 0.25]], "empty": [],
               "nested": {"x": [{"y": 0.5}]}}
    assert cli._jsonable(payload) == {
        "1": None, "a": [3, True, None, "s"], "floats": [0.5, None, -0.0],
        "pair": [None, 2.0], "mixed": [1, 0.5, True], "grid": [[1.5, None], [None, 0.25]],
        "empty": [], "nested": {"x": [{"y": 0.5}]}}
    text = json.dumps(cli._jsonable(payload), sort_keys=True, allow_nan=False)
    assert '"mixed": [1, 0.5, true]' in text


_PLAIN = (float, int, bool, str, type(None))


def _non_plain(obj, path="payload"):
    """Paths of the values in obj that are not plain Python values:
    float, int, bool, str, None, or a list, tuple or str-keyed dict of
    them (numpy scalars and arrays included, exact types compared)."""
    if type(obj) in _PLAIN:
        return []
    if type(obj) in (list, tuple):
        return [p for i, v in enumerate(obj) for p in _non_plain(v, f"{path}[{i}]")]
    if type(obj) is dict:
        return ([f"{path} key {k!r}" for k in obj if type(k) is not str]
                + [p for k, v in obj.items() for p in _non_plain(v, f"{path}.{k}")])
    return [f"{path}: {type(obj).__name__}"]


def _report_parts(rc, results, scenario):
    """What render_report serialises: both config echoes and the body."""
    return {"config": {**echo(rc, scenario), **echo(rc.sweep, scenario)},
            "report": {k: v for k, v in results.items() if not k.startswith("_")}}


SMALL_SUITE = """
samples.points = 9
invariance.points = 10
invariance.elements = 10
oracle.samples = 60
geodesic.length = 0.1
geodesic.step = 2e-3
"""


@pytest.mark.parametrize("sid", list_scenarios())
@pytest.mark.parametrize("cp_order", [0, 1])
def test_report_holds_only_plain_values(sid, cp_order):
    """_jsonable converts plain Python values only, so every value of a
    report body and of its config echoes is one, and a numpy value put
    into it is caught; t2_flat's T series is vacuous."""
    rc = cli.build_run_config(cli.parse_config(
        f"scenario = {sid}\ncp.order = {cp_order}\n" + SMALL_SUITE))
    results, _, _ = cli.run_from_config(rc)
    assert results["t_scaling"]["vacuous"] is (sid in ("su2_s2", "t2_flat", "s3_hopf"))
    parts = _report_parts(rc, results, get_scenario(sid))
    assert _non_plain(parts) == []
    # negative control: a numpy value is caught
    parts["report"]["oracle"]["kernel_max_diff"] = np.float64(1.0)
    assert _non_plain(parts) == ["payload.report.oracle.kernel_max_diff: float64"]


def test_frame_failure_is_a_numerical_failure(monkeypatch):
    """An invariance point at the s2_band pole, where the orbit collapses,
    breaks the run at the first NaN the stage reduces (the limit metric);
    a NaN frame row alone is named as the frame."""
    rc = cli.build_run_config(cli.parse_config(
        "scenario = s2_band\nonly = invariance\n" + SMALL_SUITE))
    scenario = get_scenario("s2_band")
    plan = verify.build_plan(scenario, rc.sweep)
    pts = plan.points.copy()
    pts[0] = [0.5, 0.0]
    monkeypatch.setattr(verify, "build_plan", lambda sc, cfg: SamplePlan(sc, pts))
    with pytest.raises(NumericalFailure) as failure:
        verify.run_suite(scenario, rc.sweep)
    assert str(failure.value) == ("invariance residual of limit failed at every l for "
                                  "group element 0 at plan point 0 [0.5, 0.0] on s2_band")
    exact = _k.adapted_frame

    def frame_fails_at_point_1(orbit):
        F = exact(orbit).copy()
        F[1] = np.nan
        return F

    monkeypatch.setattr(verify, "build_plan", lambda sc, cfg: SamplePlan(sc, plan.points))
    monkeypatch.setattr(_k, "adapted_frame", frame_fails_at_point_1)
    with pytest.raises(NumericalFailure) as failure:
        verify.run_suite(scenario, rc.sweep)
    assert str(failure.value) == (f"invariance adapted frame failed at plan point 1 "
                                  f"{plan.points[1].tolist()} on s2_band")


@pytest.mark.parametrize("only, message", [
    ("", "invariance residual of cheeger failed at l=0.2 for group element 0 "
         "at plan point 0 [0.0, 0.0] on t2_flat"),
    ("oracle", "oracle reparametrisation route failed at oracle sample 0 "
               "[6.212130508230948, 0.6676743114937616] at l=0.338008229871155 on t2_flat"),
], ids=("full_run", "only_oracle"))
def test_breakdown_exits_three_and_names_the_stage(tmp_path, capsys, only, message):
    """At orbit length 1e6 the deformed metrics of t2_flat are NaN: the
    run exits 3 naming the stage, the series and the point, and writes
    no output."""
    p = _write(tmp_path, "scenario = t2_flat\nscenario.orbit_length = 1e6\n"
                         f"out.csv = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli.main(["run", str(p)] + (["--only", only] if only else [])) == 3
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "r.json").exists()


def test_failing_criterion_exits_one(tmp_path, capsys):
    p = _tiny_config(tmp_path, extra="tol.gap_ratio = 1.0000001\n"
                                     "only = convergence\n")
    assert cli.main(["run", str(p)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] s2_band: gap_ratio_bounded" in out
    # outputs are still written for inspection
    assert (tmp_path / "report.json").exists()
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["report"]["passed"] is False


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    def boom(scenario, cfg):
        raise NumericalFailure("synthetic breakdown")

    monkeypatch.setattr(cli, "run_suite", boom)
    p = _tiny_config(tmp_path)
    assert cli.main(["run", str(p)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_degenerate_start_exits_three(tmp_path, capsys):
    # a geodesic start on the orbit-collapse locus is inside no chart;
    # push one just inside the chart edge where the deformed solve still
    # works, then use the real degenerate machinery directly instead
    from cheegerdef.cheeger import variant
    from cheegerdef.scenarios import get_scenario
    v = variant(get_scenario("s2_band"), "rescaled", 0.1)
    with pytest.raises(NumericalFailure):
        v.matrix(np.array([0.3, 0.0]))


def test_csv_floats_roundtrip(tmp_path):
    p = _tiny_config(tmp_path)
    assert cli.main(["run", str(p), "--only", "convergence"]) == 0
    lines = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    for line, row in zip(lines[1:], report["report"]["rows"]):
        cells = line.split(",")
        assert float(cells[0]) == row["l"]
        assert float(cells[1]) == row["c0_diff"]


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "cheegerdef" in capsys.readouterr().out


def test_short_geodesic_speed_check_compares_two_states(tmp_path, capsys):
    # 20 steps at the default step, fewer than the speed check's stride;
    # the base drift of so short a run sits below the default threshold
    p = _write(tmp_path, "scenario = s2_band\nonly = geodesic\ngeodesic.length = 0.02\n"
                         "tol.geo_base_drift = 1e-5\n"
                         f"out.csv = {tmp_path}/s.csv\nout.report = {tmp_path}/r.json\n")
    assert cli.main(["run", str(p)]) == 0
    assert "geodesic_speed_conservation measured=0.0 " not in capsys.readouterr().out
    report = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    starts = report["report"]["geodesic"]["starts"]
    assert max(s["base_speed_drift"] for s in starts) > 0.0


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["run", "x.cfg", "--seed", "3"]).seed == 3
    assert cli._parser().parse_args(["run", "x.cfg"]).seed is None
    assert cli.main(["run", "--bogus"]) == 2
    assert cli.main(["--help"]) == 0
    assert cli.main(["--list-scenarios"]) == 0
