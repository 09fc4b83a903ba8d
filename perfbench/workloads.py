"""Workload definitions and the code that runs one workload iteration.

A workload is a list of scenarios plus the config keys (in the
`cheegerdef run` config format) that size it.  Only the public entry
points time anything: `verify.run_suite` for the stage-selective
workloads and `cli.main(["run", cfg])` for the whole-suite workload.
Config parsing for the `run_suite` workloads happens during set-up, so
it is neither timed nor traced.

The workload seed feeds only the config `seed` (direction pairs,
invariance elements, oracle samples).  Geodesic starts stay at the
catalogued values: a start on the s2_band equator is itself a geodesic
of the base metric, so the base-drift verdict would fail there by design.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

ALL_SCENARIOS = ("s2_band", "warped_s2", "s3_hopf", "su2_s2", "t2_flat")

# geodesic size of the workloads that integrate geodesics.  The length
# stays at 0.1 or more: the smallest base drift (0.0019 at 0.1, scaling
# as length^2) must stay above the 1e-3 threshold of the base-drift
# verdict.  The step leaves 50 RK4 steps, the stride at which the speed
# check samples, so that check still compares two points.
_GEODESIC_SIZE = {"geodesic.length": "0.1", "geodesic.step": "2e-3"}


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    keys: dict[str, str] = field(default_factory=dict)
    via_cli: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fiber_geodesics",
            # su2_s2 is transitive, so its geodesic check is vacuous
            scenarios=("s2_band", "warped_s2", "s3_hopf", "t2_flat"),
            keys={"only": "geodesic", **_GEODESIC_SIZE},
        ),
        Workload(
            name="sample_norms",
            scenarios=ALL_SCENARIOS,
            keys={"only": "convergence,invariance,large_l,oracle",
                  "cp.order": "0", "samples.points": "36",
                  "invariance.points": "15", "invariance.elements": "10"},
        ),
        Workload(
            name="default_suite",
            scenarios=ALL_SCENARIOS,
            keys={"samples.points": "9", "invariance.points": "10",
                  "invariance.elements": "10", "oracle.samples": "60",
                  **_GEODESIC_SIZE},
            via_cli=True,
        ),
    )
}


def config_text(workload: Workload, scenario_id: str, seed: int,
                out_dir: str | None = None) -> str:
    lines = [f"scenario = {scenario_id}", f"seed = {seed}"]
    lines += [f"{k} = {v}" for k, v in workload.keys.items()]
    if out_dir is not None:
        lines.append(f"out.csv = {os.path.join(out_dir, scenario_id + '.csv')}")
        lines.append(f"out.report = {os.path.join(out_dir, scenario_id + '.json')}")
    return "\n".join(lines) + "\n"


def normalize_verdicts(verdicts: list[dict]) -> list[dict]:
    """Verdicts as plain JSON values; non-finite floats become None, as
    in the CLI report."""
    def clean(v):
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return v
        v = float(v)
        return v if math.isfinite(v) else None

    return [{k: clean(val) for k, val in v.items()} for v in verdicts]


@dataclass
class ScenarioOutput:
    """What one scenario run produced: exit code, CSV text, verdicts and,
    for the CLI path, the report text."""

    exit_code: int
    csv: str = ""
    verdicts: list = field(default_factory=list)
    report: str = ""
    error: str = ""

    def fingerprint(self) -> str:
        return json.dumps([self.exit_code, self.csv, self.verdicts, self.report,
                           self.error], sort_keys=True)


class Prepared:
    """A workload after set-up: package imported, scenarios and configs
    built, sample plans built and every kernel block called once."""

    def __init__(self, workload: Workload, seed: int, work_dir: str):
        import numpy as np

        from cheegerdef import _kernels as k
        from cheegerdef import cli, scenarios, verify

        self.workload = workload
        self.cli = cli
        self.verify = verify
        # the program's own CSV renderer, held before any tracing starts
        self._render_csv = cli.render_csv
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.configs = {}
        self.scenarios = {}
        self.cfg_paths = {}
        for sid in workload.scenarios:
            text = config_text(workload, sid, seed,
                               work_dir if workload.via_cli else None)
            rc = cli.build_run_config(cli.parse_config(text))
            self.configs[sid] = rc.sweep
            self.scenarios[sid] = scenarios.get_scenario(sid)
            verify.build_plan(self.scenarios[sid], rc.sweep)
            if workload.via_cli:
                path = os.path.join(work_dir, sid + ".cfg")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                self.cfg_paths[sid] = path

        # one call per kernel block; with compiled kernels this pays the
        # compilation, on the numpy path it costs milliseconds
        sc = self.scenarios[workload.scenarios[0]]
        code, par = sc.code, sc.params
        pts = scenarios.sample_grid(sc, 4)[:2]
        dirs = scenarios.direction_pairs(sc, len(pts), 2, seed)
        k.c0_block(code, par, k.RESCALED, 0.1, k.LIMIT, 0.0, pts, dirs, 1e-8)
        k.c1_block(code, par, k.RESCALED, 0.1, k.LIMIT, 0.0, pts, 1e-4, 1e-8)
        k.gap_block(code, par, 0.1, pts, 1e-8)
        k.t_pair_block(code, par, k.RESCALED, 0.1, pts, 1e-4, 1e-8)
        k.oracle_block(code, par, pts, np.full(len(pts), 0.5), 1e-8)
        x0 = sc.start_from_transverse(sc.geodesic_transverse[0])
        v0 = np.zeros(len(x0))
        v0[0] = 1.0
        k.geodesic_rk4(code, par, k.LIMIT, 0.0, x0, v0, 2, 1e-3, 1e-4, False,
                       sc.chart.lo, sc.chart.hi,
                       sc.chart.periodic.astype(np.int64), 1e-8)

    def clear_outputs(self) -> None:
        """Remove the CLI output files, so a failed run cannot pass on
        files left by an earlier one."""
        for sid in self.cfg_paths:
            for ext in (".csv", ".json"):
                try:
                    os.remove(os.path.join(self.work_dir, sid + ext))
                except FileNotFoundError:
                    pass

    def run_scenario(self, sid: str):
        """The timed unit for one scenario.  Returns what collect()
        needs; exceptions count as a failed run."""
        if self.workload.via_cli:
            return self.cli.main(["run", self.cfg_paths[sid]])
        return self.verify.run_suite(self.scenarios[sid], self.configs[sid])

    def collect(self, sid: str, raw) -> ScenarioOutput:
        """Turn a scenario run's return value into checkable output
        (outside the timed region)."""
        if not self.workload.via_cli:
            return ScenarioOutput(exit_code=0 if raw["passed"] else 1,
                                  csv=self._render_csv(raw["rows"]),
                                  verdicts=normalize_verdicts(raw["verdicts"]))
        base = os.path.join(self.work_dir, sid)
        with open(base + ".csv", encoding="utf-8") as fh:
            csv = fh.read()
        with open(base + ".json", encoding="utf-8") as fh:
            report = fh.read()
        verdicts = json.loads(report)["report"]["verdicts"]
        return ScenarioOutput(exit_code=int(raw), csv=csv, verdicts=verdicts,
                              report=report)
