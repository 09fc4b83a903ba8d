"""The package runs on numpy alone: importing it, running every stage on
every catalogued scenario and running the command line load no scipy
module and no numpy.random module (the seeded draws are the package's
own counter-based streams).  The check runs in a fresh interpreter,
since the test process itself may have imported both (scipy is the test
oracle elsewhere)."""

import os
import subprocess
import sys
import textwrap

import pytest

import cheegerdef

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cheegerdef.__file__)))

# the modules a run must not load, with their submodules
GUARDED = ("scipy", "numpy.random")

SCRIPT = textwrap.dedent("""
    import sys

    import numpy


    def guarded():
        return sorted(m for m in sys.modules
                      if any(m == g or m.startswith(g + ".") for g in {guarded!r}))


    # older numpy loads numpy.random itself; only what the package adds counts
    print("numpy loads:", *guarded())
    before = set(guarded())

    import cheegerdef
    from cheegerdef import cli, verify
    from cheegerdef.scenarios import get_scenario, list_scenarios

    cfg = verify.SweepConfig(n_points=16, invariance_points=6,
                             invariance_elements=3, oracle_count=10,
                             geodesic_length=0.1, geodesic_step=2e-3)
    assert cfg.enabled == verify.ALL_TESTS
    for sid in list_scenarios():
        verify.run_suite(get_scenario(sid), cfg)
    assert cli.main(["run", sys.argv[1]]) == 0
    {extra}
    print("loaded:", *(m for m in guarded() if m not in before))
""")

CONFIG = """
scenario = su2_s2
samples.points = 16
invariance.points = 6
invariance.elements = 3
oracle.samples = 10
geodesic.length = 0.1
geodesic.step = 2e-3
"""


def _run(tmp_path, extra: str = "") -> tuple[str, str]:
    """(the guarded modules numpy loads alone, those the run adds)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + f"out.csv = {tmp_path}/sweep.csv\n"
                            f"out.report = {tmp_path}/report.json\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = SCRIPT.format(guarded=GUARDED, extra=extra)
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()
    lines = proc.stdout.splitlines()
    return lines[0], lines[-1]


def test_runs_load_no_scipy_or_numpy_random(tmp_path):
    _, loaded = _run(tmp_path)
    assert loaded == "loaded:", f"guarded modules {loaded}"


def test_an_explicit_numpy_random_import_fails_the_check(tmp_path):
    # negative control: the same run plus one import of numpy.random
    numpy_loads, loaded = _run(tmp_path, extra="import numpy.random")
    if "numpy.random" in numpy_loads.split():
        pytest.skip("this numpy loads numpy.random on import")
    assert "numpy.random" in loaded.split()
