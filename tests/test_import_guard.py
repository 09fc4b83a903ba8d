"""The package runs on numpy alone: importing it, running every stage on
every catalogued scenario and running the command line load no scipy
module.  The check runs in a fresh interpreter, since the test process
itself may have imported scipy (it is the test oracle elsewhere)."""

import os
import subprocess
import sys
import textwrap

import cheegerdef

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cheegerdef.__file__)))

SCRIPT = textwrap.dedent("""
    import sys

    import cheegerdef
    from cheegerdef import cli, verify
    from cheegerdef.scenarios import get_scenario, list_scenarios

    cfg = verify.SweepConfig(n_points=16, n_dirs=4, invariance_points=6,
                             invariance_elements=3, oracle_count=10,
                             geodesic_length=0.1, geodesic_step=2e-3)
    assert cfg.enabled == verify.ALL_TESTS
    for sid in list_scenarios():
        verify.run_suite(get_scenario(sid), cfg)
    assert cli.main(["run", sys.argv[1]]) == 0
    print("loaded:", *sorted(m for m in sys.modules
                             if m == "scipy" or m.startswith("scipy.")))
""")

CONFIG = """
scenario = su2_s2
samples.points = 16
samples.directions = 4
invariance.points = 6
invariance.elements = 3
oracle.samples = 10
geodesic.length = 0.1
geodesic.step = 2e-3
"""


def test_runs_load_no_scipy(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG + f"out.csv = {tmp_path}/sweep.csv\n"
                            f"out.report = {tmp_path}/report.json\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last == "loaded:", f"scipy modules {last}"
    assert (tmp_path / "report.json").exists()
