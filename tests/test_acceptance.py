"""Acceptance criteria for the deformation family, one test per
criterion.  Each prints a single pass/fail line with the measured
values so a suite run reads as a checklist."""

import json
import time

import numpy as np
import pytest

from cheegerdef import _kernels as _k
from cheegerdef import cli
from cheegerdef.cheeger import variant
from cheegerdef.gmanifold import SIGMA_TOL, killing_data
from cheegerdef.scenarios import sample_grid
from cheegerdef.tensor_calc import (
    H_FD,
    integrate_geodesics,
    orbit_invariant_drift,
    speed_drift,
)
from cheegerdef.verify import (
    SweepConfig,
    build_plan,
    convergence_series,
    invariance_results,
    large_l_series,
    oracle_results,
    t_scaling_series,
)


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        state = "pass" if ok else "FAIL"
        print(f"[{state}] acceptance {num} {name}: {detail}")


def test_criterion_1_convergence_rate(capsys, s2_band, warped_s2):
    cfg = SweepConfig()
    t0 = time.perf_counter()
    fits = {}
    for scenario in (s2_band, warped_s2):
        plan = build_plan(scenario, cfg)
        conv = convergence_series(scenario, cfg, plan)
        fits[scenario.scenario_id] = (conv["c0_fit"]["slope"],
                                      conv["c1_fit"]["slope"])
    wall = time.perf_counter() - t0
    ok = wall < 30.0
    for c0, c1 in fits.values():
        ok = ok and 1.9 <= c0 <= 2.1 and 1.8 <= c1 <= 2.2
    detail = ", ".join(f"{sid} c0={c0:.4f} c1={c1:.4f}"
                       for sid, (c0, c1) in fits.items())
    _report(capsys, 1, "convergence-rate", ok,
            f"{detail}, wall={wall:.2f}s (c0 in [1.9,2.1], c1 in [1.8,2.2], "
            f"budget 30s)")
    assert ok


def test_criterion_2_hopf_spot_value(capsys, s3_hopf):
    l = 0.1
    expected = 1.0 / (1.0 + l * l)
    worst_vert = 0.0
    worst_limit = 0.0
    rescaled = variant(s3_hopf, "rescaled", l)
    limit = variant(s3_hopf, "limit")
    for x in sample_grid(s3_hopf, 12):
        G = s3_hopf.metric(s3_hopf.params, x)
        v = killing_data(s3_hopf, x).K[:, 0]  # unit vertical field
        # kernel route and definition route
        for gr, gl in ((rescaled.matrix(x), limit.matrix(x)),
                       (rescaled.reference_matrix(x), limit.reference_matrix(x))):
            worst_vert = max(worst_vert, abs(float(v @ gr @ v) - expected))
            worst_limit = max(worst_limit, float(np.max(np.abs(gl - G))))
    ok = worst_vert < 1e-8 and worst_limit < 1e-10
    _report(capsys, 2, "hopf-spot-value", ok,
            f"vertical eigenvalue dev={worst_vert:.3e} (tol 1e-8), "
            f"limit vs base dev={worst_limit:.3e} (tol 1e-10)")
    assert ok


def test_criterion_3_pullback_gap_bounded(capsys, all_scenarios):
    cfg = SweepConfig()
    spreads = {}
    for scenario in all_scenarios:
        plan = build_plan(scenario, cfg)
        conv = convergence_series(scenario, cfg, plan)
        spreads[scenario.scenario_id] = conv["gap_ratio_spread"]
    ok = all(np.isfinite(s) and s < 3.0 for s in spreads.values())
    detail = ", ".join(f"{sid}={s:.3f}" for sid, s in spreads.items())
    _report(capsys, 3, "pullback-gap-bounded", ok,
            f"gap/l^2 spread {detail} (max ratio 3)")
    assert ok


def test_criterion_4_totally_geodesic_fibers(capsys, s2_band):
    rows = []
    ok = True
    for phi0 in (0.6, 0.9, 1.2):
        x0 = np.array([0.3, phi0])
        v0 = np.array([1.0, 0.0])  # along the orbit circle
        (lim,) = integrate_geodesics(variant(s2_band, "limit"), [x0], [v0],
                                     length=3.0, step=1e-3)
        (base,) = integrate_geodesics(variant(s2_band, "original"), [x0], [v0],
                                      length=3.0, step=1e-3)
        ld = orbit_invariant_drift(lim)
        bd = orbit_invariant_drift(base)
        sd = speed_drift(lim)
        ok = ok and ld < 1e-6 and bd > 1e-3 and sd < 1e-8
        rows.append(f"phi0={phi0}: limit={ld:.2e} base={bd:.2e}")
    _report(capsys, 4, "totally-geodesic-fibers", ok,
            "; ".join(rows) + " (limit < 1e-6, base > 1e-3)")
    assert ok


def test_criterion_5_t_tensor_scaling(capsys, s2_band):
    cfg = SweepConfig()
    plan = build_plan(s2_band, cfg)
    tsc = t_scaling_series(s2_band, cfg, plan)
    slope = tsc["t_fit"]["slope"]
    x = np.array([0.5, np.pi / 4])
    spot = (_k.t_tensor_norm(s2_band, s2_band.params, _k.RESCALED, 0.1, x, H_FD, SIGMA_TOL)
            / _k.t_tensor_norm(s2_band, s2_band.params, _k.ORIGINAL, 0.0, x, H_FD, SIGMA_TOL))
    expected = 0.01 / 0.51
    ok = (1.8 <= slope <= 2.2) and abs(spot - expected) < 1e-6
    _report(capsys, 5, "t-tensor-scaling", ok,
            f"slope={slope:.4f} (window [1.8,2.2]), "
            f"spot={spot:.10f} vs {expected:.10f} (tol 1e-6)")
    assert ok


def test_criterion_6_oracle_equivalence(capsys, all_scenarios):
    cfg = SweepConfig()  # 120 seeded samples per scenario
    worst = {}
    counts = {}
    for scenario in all_scenarios:
        orc = oracle_results(scenario, cfg)
        worst[scenario.scenario_id] = max(orc["kernel_max_diff"],
                                          orc["definition_max_diff"])
        counts[scenario.scenario_id] = orc["n_samples"]
    ok = all(w < 1e-10 for w in worst.values()) \
        and all(c >= 100 for c in counts.values())
    detail = ", ".join(f"{sid}={w:.2e}" for sid, w in worst.items())
    _report(capsys, 6, "oracle-equivalence", ok,
            f"route disagreement {detail} at >=100 samples each (tol 1e-10)")
    assert ok


def test_criterion_7_invariance_suite(capsys, all_scenarios):
    cfg = SweepConfig()  # 20 group elements per scenario
    rows = []
    ok = True
    for scenario in all_scenarios:
        plan = build_plan(scenario, cfg)
        inv = invariance_results(scenario, cfg, plan)
        ok = ok and inv["n_elements"] == 20
        ok = ok and inv["max_residual"] < 1e-8 \
            and inv["horizontal_residual"] < 1e-10 \
            and inv["kappa_residual"] < 1e-10 \
            and inv["kappa_iso_residual"] < 1e-10
        rows.append(f"{scenario.scenario_id}: inv={inv['max_residual']:.1e} "
                    f"horiz={inv['horizontal_residual']:.1e} "
                    f"kappa={inv['kappa_residual']:.1e} "
                    f"iso={inv['kappa_iso_residual']:.1e}")
    _report(capsys, 7, "invariance-suite", ok,
            "; ".join(rows) + " (inv < 1e-8, rest < 1e-10)")
    assert ok


def test_criterion_8_large_l_recovers_base(capsys, all_scenarios):
    cfg = SweepConfig()
    slopes = {}
    for scenario in all_scenarios:
        plan = build_plan(scenario, cfg)
        lrg = large_l_series(scenario, cfg, plan)
        slopes[scenario.scenario_id] = lrg["fit"]["slope"]
    ok = all(-2.2 <= s <= -1.8 for s in slopes.values())
    detail = ", ".join(f"{sid}={s:.4f}" for sid, s in slopes.items())
    _report(capsys, 8, "large-l-limit", ok,
            f"decay slopes {detail} over l in {{10,30,100}} "
            f"(window [-2.2,-1.8])")
    assert ok


def test_criterion_9_deterministic_outputs(capsys, tmp_path):
    body = "\n".join([
        "scenario = s2_band",
        "seed = 42",
        "samples.points = 40",
        "samples.directions = 8",
        "invariance.points = 6",
        "invariance.elements = 4",
        "oracle.samples = 30",
        "geodesic.length = 1.0",
        f"out.csv = {tmp_path}/sweep.csv",
        f"out.report = {tmp_path}/report.json",
    ]) + "\n"
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(body, encoding="utf-8")

    assert cli.main(["run", str(cfg_path)]) == 0
    csv_a = (tmp_path / "sweep.csv").read_bytes()
    rep_a = (tmp_path / "report.json").read_bytes()
    assert cli.main(["run", str(cfg_path)]) == 0
    csv_b = (tmp_path / "sweep.csv").read_bytes()
    rep_b = (tmp_path / "report.json").read_bytes()

    ok = csv_a == csv_b and rep_a == rep_b
    # the report must also be strict JSON
    json.loads(rep_a.decode("utf-8"))
    _report(capsys, 9, "deterministic-outputs", ok,
            f"csv {len(csv_a)} bytes and report {len(rep_a)} bytes "
            f"byte-identical across reruns")
    assert ok
