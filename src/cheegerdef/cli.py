"""Command line driver.

Usage:
    cheegerdef run <config-path> [--scenario ID] [--seed N]
                [--out-csv PATH] [--out-report PATH] [--only TESTS]
    cheegerdef --list-scenarios

Config files are line oriented `key = value` pairs with `#` comments.
Exit codes: 0 all criteria pass, 1 a criterion failed, 2 configuration
or usage error, 3 numerical failure inside the pipeline.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields

from ._kernels import GEODESIC_MARGIN
from .config import echo, knob, table_keys, values_from
from .gmanifold import DomainError, NumericalFailure
from .scenarios import (DEFAULT_ORBIT_LENGTH, DEFAULT_WARP_AMPLITUDE, Scenario,
                        get_scenario, list_scenarios, sampling_box)
from .verify import ALL_TESTS, SweepConfig, run_suite

__all__ = ["ConfigError", "RunConfig", "build_run_config", "main", "parse_config",
           "render_csv", "render_report", "run_from_config"]

CSV_HEADER = "l,c0_diff,c1_diff,t_ratio_max,gap_residual,invariance_residual"
SCHEMA_VERSION = 3


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


def _parse_scenario(raw: str) -> str:
    if raw not in list_scenarios():
        raise ValueError(
            f"unknown scenario '{raw}'; catalogued: {', '.join(list_scenarios())}")
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Validated effective run configuration: the scenario and output
    knobs of the config table, plus the sweep."""

    scenario_id: str = knob(MISSING, "scenario", parse=_parse_scenario)
    sweep: SweepConfig
    warp_amplitude: float = knob(DEFAULT_WARP_AMPLITUDE, "scenario.warp_amplitude",
                                 echo="warp_amplitude", only_for="warped_s2")
    orbit_length: float = knob(DEFAULT_ORBIT_LENGTH, "scenario.orbit_length",
                               echo="orbit_length", only_for="t2_flat")
    out_csv: str | None = knob(None, "out.csv", parse=str)
    out_report: str | None = knob(None, "out.report", parse=str)


def parse_config(text: str) -> dict[str, str]:
    """Parse the line-oriented config format into raw key/value strings.

    Unknown or repeated keys and malformed lines raise ConfigError with
    the offending line number.
    """
    known = table_keys(RunConfig, SweepConfig)
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{line.strip()}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in '{line.strip()}'")
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def build_run_config(raw: dict[str, str]) -> RunConfig:
    """Parse and validate raw key/value strings."""
    if "scenario" not in raw:
        raise ConfigError("no scenario named (config key 'scenario' or --scenario)")
    try:
        rc = RunConfig(sweep=SweepConfig(**values_from(SweepConfig, raw)),
                       **values_from(RunConfig, raw))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for f in fields(RunConfig):
        only_for = f.metadata.get("only_for")
        if only_for and f.metadata["keys"][0] in raw and rc.scenario_id != only_for:
            raise ConfigError(f"{f.metadata['keys'][0]} applies to {only_for} only")
    return rc


def _build_scenario(rc: RunConfig) -> Scenario:
    try:
        scenario = get_scenario(rc.scenario_id, warp_amplitude=rc.warp_amplitude,
                                orbit_length=rc.orbit_length)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        sampling_box(scenario, rc.sweep.margin)
    except ValueError as exc:
        raise ConfigError(f"key 'samples.margin': {exc}") from exc
    margin = GEODESIC_MARGIN * rc.sweep.h_fd
    for c in rc.sweep.geodesic_transverse or scenario.geodesic_transverse:
        if not scenario.chart.contains(scenario.start_from_transverse(c), margin):
            raise ConfigError(
                f"geodesic start {c} leaves the chart of {rc.scenario_id} "
                f"shrunk by the integration margin {GEODESIC_MARGIN:g} * fd.step")
    return scenario


def _fmt(v: float) -> str:
    return repr(float(v))


def render_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    """Convert to JSON-safe values; non-finite floats become null so the
    report stays strict JSON.  A report holds plain Python values only
    (float, int, bool, str, None, list, tuple, dict); a list or tuple of
    floats is converted in one pass instead of one call per element."""
    t = type(obj)
    if t is float:
        return obj if math.isfinite(obj) else None
    if t is str or t is int or t is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if all(type(v) is float for v in obj):
            return [v if math.isfinite(v) else None for v in obj]
        return [_jsonable(v) for v in obj]
    return obj


def render_report(rc: RunConfig, results: dict, scenario: Scenario) -> str:
    """JSON report: the effective config echo (values left to the
    scenario resolved against it) and the results without private keys."""
    config = {**echo(rc, scenario), **echo(rc.sweep, scenario)}
    body = {k: v for k, v in results.items() if not k.startswith("_")}
    payload = {"schema_version": SCHEMA_VERSION, "config": config, "report": body}
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def run_from_config(rc: RunConfig) -> tuple[dict, str, str]:
    """Execute the suite; returns (results, csv_text, report_text)."""
    scenario = _build_scenario(rc)
    results = run_suite(scenario, rc.sweep)
    return results, render_csv(results["rows"]), render_report(rc, results, scenario)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    ap = argparse.ArgumentParser(
        prog="cheegerdef",
        description="Deformation construction and verification runs on "
                    "catalogued group actions.")
    ap.add_argument("--list-scenarios", action="store_true",
                    help="print catalogued scenario ids and exit")
    sub = ap.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run the verification suite from a config file")
    run.add_argument("config", help="path to the key = value config file")
    run.add_argument("--scenario", help="override the scenario named in the config")
    run.add_argument("--seed", type=int, help="override the run seed")
    run.add_argument("--out-csv", help="override the per-l CSV output path")
    run.add_argument("--out-report", help="override the JSON report output path")
    run.add_argument("--only", help="comma-separated subset of tests to run "
                                    f"(choices: {', '.join(ALL_TESTS)})")
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return int(exc.code or 0)

    if args.list_scenarios:
        for sid in list_scenarios():
            print(sid)
        return 0
    if args.command != "run":
        print("nothing to do: pass the 'run' command or --list-scenarios",
              file=sys.stderr)
        return 2

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 2

    flags = {"scenario": args.scenario, "seed": args.seed, "only": args.only,
             "out.csv": args.out_csv, "out.report": args.out_report}
    try:
        raw = parse_config(text)
        raw.update({k: str(v) for k, v in flags.items() if v not in (None, "")})
        rc = build_run_config(raw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        results, csv_text, report_text = run_from_config(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    out_csv = rc.out_csv or f"{rc.scenario_id}_sweep.csv"
    out_report = rc.out_report or f"{rc.scenario_id}_report.json"
    try:
        with open(out_csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        with open(out_report, "w", encoding="utf-8", newline="") as fh:
            fh.write(report_text)
    except OSError as exc:
        print(f"config error: cannot write output file: {exc}", file=sys.stderr)
        return 2

    for v in results["verdicts"]:
        state = "pass" if v["passed"] else "FAIL"
        print(f"[{state}] {results['scenario']}: {v['criterion']} "
              f"measured={v['measured']} threshold={v['threshold']}"
              + (f" ({v['note']})" if v.get("note") else ""))
    print(f"wrote {out_csv} and {out_report}")
    return 0 if results["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
