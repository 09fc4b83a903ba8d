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
import json
import sys
from dataclasses import dataclass, replace

import numpy as np

from .gmanifold import DegeneratePointError, DomainError, NumericalFailure
from .scenarios import Scenario, get_scenario, list_scenarios
from .verify import ALL_TESTS, SweepConfig, run_suite

__all__ = ["ConfigError", "RunConfig", "main", "parse_config", "run_from_config"]

CSV_HEADER = "l,c0_diff,c1_diff,t_ratio_max,gap_residual,invariance_residual"
SCHEMA_VERSION = 1

# smallest deformation parameter the double-precision pipeline supports
MIN_L = 1e-3


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass(frozen=True)
class RunConfig:
    """Validated effective run configuration."""

    scenario_id: str
    warp_amplitude: float
    orbit_length: float
    sweep: SweepConfig
    out_csv: str | None
    out_report: str | None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{raw}' as a number")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse '{raw}' as an integer")


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p for p in raw.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"key '{key}': empty list")
    return tuple(_parse_float(key, p) for p in parts)


_KNOWN_KEYS = {
    "scenario", "seed", "l_grid", "large_l_grid", "only",
    "samples.points", "samples.directions", "samples.margin",
    "fd.step", "cp.order",
    "geodesic.step", "geodesic.length", "geodesic.starts",
    "invariance.points", "invariance.elements", "oracle.samples",
    "scenario.warp_amplitude", "scenario.orbit_length",
    "out.csv", "out.report",
    "tol.c0_slope_lo", "tol.c0_slope_hi", "tol.c1_slope_lo", "tol.c1_slope_hi",
    "tol.t_slope_lo", "tol.t_slope_hi",
    "tol.large_l_slope_lo", "tol.large_l_slope_hi",
    "tol.gap_ratio", "tol.geo_limit_drift", "tol.geo_base_drift",
    "tol.speed_drift", "tol.invariance", "tol.horizontal", "tol.kappa",
    "tol.oracle",
}


def parse_config(text: str) -> dict[str, str]:
    """Parse the line-oriented config format into raw key/value strings.

    Unknown or repeated keys and malformed lines raise ConfigError with
    the offending line number.
    """
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
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value
    return out


def _validate_only(raw: str) -> tuple[str, ...]:
    names = tuple(p for p in raw.replace(",", " ").split() if p)
    unknown = set(names) - set(ALL_TESTS)
    if unknown:
        raise ConfigError(
            f"unknown test selection {sorted(unknown)}; "
            f"choices: {', '.join(ALL_TESTS)}")
    if not names:
        raise ConfigError("empty test selection")
    # preserve canonical order, drop repeats
    return tuple(t for t in ALL_TESTS if t in names)


def build_run_config(raw: dict[str, str],
                     scenario_override: str | None = None,
                     seed_override: int | None = None,
                     only_override: str | None = None,
                     out_csv_override: str | None = None,
                     out_report_override: str | None = None) -> RunConfig:
    """Validate raw key/value strings plus CLI overrides."""
    scenario_id = scenario_override or raw.get("scenario")
    if not scenario_id:
        raise ConfigError("no scenario named (config key 'scenario' or --scenario)")
    if scenario_id not in list_scenarios():
        raise ConfigError(
            f"unknown scenario '{scenario_id}'; catalogued: {', '.join(list_scenarios())}")

    kw: dict = {}
    if "seed" in raw:
        kw["seed"] = _parse_int("seed", raw["seed"])
    if seed_override is not None:
        kw["seed"] = seed_override
    if not 0 <= kw.get("seed", 42) < 2**64:
        raise ConfigError("seed must fit an unsigned 64-bit integer")

    if "l_grid" in raw:
        kw["l_grid"] = _parse_float_list("l_grid", raw["l_grid"])
    if "large_l_grid" in raw:
        kw["large_l_grid"] = _parse_float_list("large_l_grid", raw["large_l_grid"])
    for grid_key in ("l_grid", "large_l_grid"):
        for l in kw.get(grid_key, ()):
            if l < MIN_L:
                raise ConfigError(
                    f"{grid_key} value {l} below the supported minimum {MIN_L}")

    int_keys = {"samples.points": "n_points", "samples.directions": "n_dirs",
                "invariance.points": "invariance_points",
                "invariance.elements": "invariance_elements",
                "oracle.samples": "oracle_count", "cp.order": "cp_order"}
    for key, fieldname in int_keys.items():
        if key in raw:
            kw[fieldname] = _parse_int(key, raw[key])
    float_keys = {"samples.margin": "margin", "fd.step": "h_fd",
                  "geodesic.step": "geodesic_step",
                  "geodesic.length": "geodesic_length"}
    for key, fieldname in float_keys.items():
        if key in raw:
            kw[fieldname] = _parse_float(key, raw[key])
    if "geodesic.starts" in raw:
        kw["geodesic_transverse"] = _parse_float_list("geodesic.starts",
                                                      raw["geodesic.starts"])

    window_pairs = {
        ("tol.c0_slope_lo", "tol.c0_slope_hi"): ("c0_slope_window", (1.9, 2.1)),
        ("tol.c1_slope_lo", "tol.c1_slope_hi"): ("c1_slope_window", (1.8, 2.2)),
        ("tol.t_slope_lo", "tol.t_slope_hi"): ("t_slope_window", (1.8, 2.2)),
        ("tol.large_l_slope_lo", "tol.large_l_slope_hi"):
            ("large_l_slope_window", (-2.2, -1.8)),
    }
    for (klo, khi), (fieldname, default) in window_pairs.items():
        if klo in raw or khi in raw:
            lo = _parse_float(klo, raw[klo]) if klo in raw else default[0]
            hi = _parse_float(khi, raw[khi]) if khi in raw else default[1]
            if lo >= hi:
                raise ConfigError(f"{fieldname}: lower bound {lo} >= upper bound {hi}")
            kw[fieldname] = (lo, hi)
    scalar_tols = {"tol.gap_ratio": "gap_ratio_max",
                   "tol.geo_limit_drift": "geo_limit_drift_max",
                   "tol.geo_base_drift": "geo_base_drift_min",
                   "tol.speed_drift": "speed_drift_max",
                   "tol.invariance": "invariance_max",
                   "tol.horizontal": "horizontal_max",
                   "tol.kappa": "kappa_max",
                   "tol.oracle": "oracle_max"}
    for key, fieldname in scalar_tols.items():
        if key in raw:
            kw[fieldname] = _parse_float(key, raw[key])

    only_raw = only_override or raw.get("only")
    if only_raw:
        kw["enabled"] = _validate_only(only_raw)

    for key, bound, name in (("samples.points", 4, "n_points"),
                             ("samples.directions", 1, "n_dirs"),
                             ("invariance.points", 1, "invariance_points"),
                             ("invariance.elements", 1, "invariance_elements"),
                             ("oracle.samples", 1, "oracle_count")):
        if name in kw and kw[name] < bound:
            raise ConfigError(f"{key} must be at least {bound}")

    try:
        sweep = SweepConfig(**kw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    warp = _parse_float("scenario.warp_amplitude", raw["scenario.warp_amplitude"]) \
        if "scenario.warp_amplitude" in raw else 0.3
    length = _parse_float("scenario.orbit_length", raw["scenario.orbit_length"]) \
        if "scenario.orbit_length" in raw else 1.0
    if "scenario.warp_amplitude" in raw and scenario_id != "warped_s2":
        raise ConfigError("scenario.warp_amplitude applies to warped_s2 only")
    if "scenario.orbit_length" in raw and scenario_id != "t2_flat":
        raise ConfigError("scenario.orbit_length applies to t2_flat only")

    return RunConfig(
        scenario_id=scenario_id,
        warp_amplitude=warp,
        orbit_length=length,
        sweep=sweep,
        out_csv=out_csv_override or raw.get("out.csv"),
        out_report=out_report_override or raw.get("out.report"),
    )


def _build_scenario(rc: RunConfig) -> Scenario:
    try:
        scenario = get_scenario(rc.scenario_id, warp_amplitude=rc.warp_amplitude,
                                orbit_length=rc.orbit_length,
                                sample_margin=rc.sweep.margin
                                if rc.sweep.margin is not None else 0.1)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    transverse = rc.sweep.geodesic_transverse
    if transverse:
        for c in transverse:
            x0 = scenario.start_from_transverse(c)
            if not scenario.chart.contains(x0):
                raise ConfigError(
                    f"geodesic start {c} leaves the chart of {rc.scenario_id}")
    return scenario


def _fmt(v: float) -> str:
    return repr(float(v))


def render_csv(rows: list[dict]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become
    null so the report stays strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def render_report(rc: RunConfig, results: dict,
                  effective_starts: tuple[float, ...] | None = None) -> str:
    cfg = rc.sweep
    starts = cfg.geodesic_transverse or effective_starts
    echo = {
        "scenario": rc.scenario_id,
        "seed": cfg.seed,
        "l_grid": list(cfg.l_grid),
        "large_l_grid": list(cfg.large_l_grid),
        "samples_points": cfg.n_points,
        "samples_directions": cfg.n_dirs,
        "samples_margin": cfg.margin if cfg.margin is not None else 0.1,
        "fd_step": cfg.h_fd,
        "cp_order": cfg.cp_order,
        "geodesic_step": cfg.geodesic_step,
        "geodesic_length": cfg.geodesic_length,
        "geodesic_starts": list(starts) if starts else None,
        "invariance_points": cfg.invariance_points,
        "invariance_elements": cfg.invariance_elements,
        "oracle_samples": cfg.oracle_count,
        "enabled": list(cfg.enabled),
        "warp_amplitude": rc.warp_amplitude,
        "orbit_length": rc.orbit_length,
        "out_csv": rc.out_csv,
        "out_report": rc.out_report,
        "thresholds": {
            "c0_slope_window": list(cfg.c0_slope_window),
            "c1_slope_window": list(cfg.c1_slope_window),
            "t_slope_window": list(cfg.t_slope_window),
            "large_l_slope_window": list(cfg.large_l_slope_window),
            "gap_ratio_max": cfg.gap_ratio_max,
            "geo_limit_drift_max": cfg.geo_limit_drift_max,
            "geo_base_drift_min": cfg.geo_base_drift_min,
            "speed_drift_max": cfg.speed_drift_max,
            "invariance_max": cfg.invariance_max,
            "horizontal_max": cfg.horizontal_max,
            "kappa_max": cfg.kappa_max,
            "oracle_max": cfg.oracle_max,
            "t_floor": cfg.t_floor,
        },
    }
    body = {k: v for k, v in results.items() if not k.startswith("_")}
    payload = {"schema_version": SCHEMA_VERSION, "config": echo, "report": body}
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def run_from_config(rc: RunConfig) -> tuple[dict, str, str]:
    """Execute the suite; returns (results, csv_text, report_text)."""
    scenario = _build_scenario(rc)
    results = run_suite(scenario, rc.sweep)
    report = render_report(rc, results,
                           effective_starts=scenario.geodesic_transverse)
    return results, render_csv(results["rows"]), report


def _parser() -> argparse.ArgumentParser:
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

    try:
        raw = parse_config(text)
        rc = build_run_config(raw, scenario_override=args.scenario,
                              seed_override=args.seed, only_override=args.only,
                              out_csv_override=args.out_csv,
                              out_report_override=args.out_report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        results, csv_text, report_text = run_from_config(rc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, DegeneratePointError, DomainError) as exc:
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
