"""Sweep assembly: rate fits, residual collectors, verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from oracles import non_invariant_metric

from cheegerdef import _kernels as _k
from cheegerdef import verify
from cheegerdef.cheeger import kappa
from cheegerdef.gmanifold import SIGMA_TOL, NumericalFailure
from cheegerdef.scenarios import get_scenario, list_scenarios, oracle_samples
from cheegerdef.tensor_calc import H_FD
from cheegerdef.verify import (
    ALL_TESTS,
    CRITERIA,
    SweepConfig,
    build_plan,
    convergence_series,
    geodesic_results,
    invariance_results,
    large_l_series,
    oracle_results,
    rate_fit,
    run_suite,
    t_scaling_series,
)

SMALL = dict(n_points=40, invariance_points=8,
             invariance_elements=5, oracle_count=30, geodesic_length=1.5)


def test_rate_fit_recovers_power_law():
    ls = np.array([0.2, 0.1, 0.05, 0.025])
    fit = rate_fit(ls, 3.7 * ls**2)
    assert fit.status == "ok"
    assert fit.n_used == 4
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert 10.0**fit.intercept == pytest.approx(3.7, rel=1e-12)
    assert fit.max_log_residual < 1e-12


def test_rate_fit_negative_exponent():
    ls = np.array([10.0, 30.0, 100.0])
    fit = rate_fit(ls, 5.0 / ls**2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)


def test_rate_fit_floor_handling():
    ls = np.array([0.2, 0.1, 0.05])
    fit = rate_fit(ls, [1e-20, 1e-21, 1e-22])
    assert fit.status == "exact"
    assert math.isnan(fit.slope)
    mixed = rate_fit(ls, [1e-3, 1e-20, 1e-21])
    assert mixed.status == "degenerate"
    assert mixed.n_used == 1


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(l_grid=(0.1,))
    with pytest.raises(ValueError):
        SweepConfig(l_grid=(0.05, 0.1))
    with pytest.raises(ValueError):
        SweepConfig(l_grid=(0.1, -0.05))
    with pytest.raises(ValueError):
        SweepConfig(enabled=("convergence", "curvature"))
    with pytest.raises(ValueError, match="unsupported C\\^p order"):
        SweepConfig(cp_order=2)
    cfg = SweepConfig(cp_order=0)
    assert cfg.cp_order == 0


def test_sweep_config_rejects_zero_invariance_elements():
    # zero elements would run no invariance check and still report a
    # residual of 0 and a pass
    with pytest.raises(ValueError, match="invariance_elements"):
        SweepConfig(invariance_elements=0)


def test_sweep_config_rejects_zero_invariance_points():
    # zero points used to fall back silently to one point
    with pytest.raises(ValueError, match="invariance_points"):
        SweepConfig(invariance_points=0)


@pytest.mark.parametrize("field", ("geodesic_step", "geodesic_length"))
@pytest.mark.parametrize("value", (0.0, -1.0, float("nan")))
def test_sweep_config_rejects_nonpositive_steps(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        SweepConfig(**{field: value})


def test_sweep_config_rejects_negative_margin():
    with pytest.raises(ValueError, match="margin must be nonnegative"):
        SweepConfig(margin=-0.5)
    assert SweepConfig(margin=0.0).margin == 0.0
    assert SweepConfig().margin == 0.1


@pytest.mark.parametrize("field, value", [
    ("n_points", 3),  # used to run silently on a 4-point plan
    ("margin", float("nan")),
    ("oracle_count", 0),
    ("c0_slope_window", (2.1, 1.9)),
    ("l_grid", (0.1, 0.0005)),
    ("large_l_grid", (10.0,)),  # used to end as a degenerate FAIL
    ("seed", -1),
    ("seed", 2**64),
])
def test_sweep_config_refuses_out_of_bound_values(field, value):
    with pytest.raises(ValueError, match=field):
        SweepConfig(**{field: value})


def test_run_suite_and_cli_draw_the_same_oracle_samples(s2_band, tmp_path,
                                                        monkeypatch):
    from cheegerdef import cli, verify

    drawn = []

    def recording(*args):
        pts, ls = oracle_samples(*args)
        drawn.append(pts)
        return pts, ls

    monkeypatch.setattr(verify, "oracle_samples", recording)
    small = dict(n_points=9, oracle_count=10)
    run_suite(s2_band, SweepConfig(margin=0.3, enabled=("oracle",), **small))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = s2_band\nsamples.margin = 0.3\nonly = oracle\n"
                   "samples.points = 9\noracle.samples = 10\n"
                   f"out.csv = {tmp_path}/sweep.csv\nout.report = {tmp_path}/report.json\n",
                   encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 0
    np.testing.assert_array_equal(drawn[0], drawn[1])
    # the polar coordinate stays inside the region shrunk by the margin
    assert np.all(drawn[0][:, 1] >= s2_band.region_lo[1] + 0.3)
    assert np.all(drawn[0][:, 1] <= s2_band.region_hi[1] - 0.3)


def test_convergence_series_shape(s2_band):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(s2_band, cfg)
    conv = convergence_series(s2_band, cfg, plan)
    assert len(conv["c0"]) == len(cfg.l_grid)
    assert conv["c0_fit"]["status"] == "ok"
    assert 1.9 < conv["c0_fit"]["slope"] < 2.1
    assert all(c1 >= c0 for c0, c1 in zip(conv["c0"], conv["c1"]))
    assert np.isfinite(conv["gap_ratio_spread"])
    assert conv["gap_ratio_spread"] < 3.0


def test_convergence_series_c0_only(s2_band):
    cfg = SweepConfig(cp_order=0, **SMALL)
    plan = build_plan(s2_band, cfg)
    conv = convergence_series(s2_band, cfg, plan)
    assert conv["c1_fit"] is None
    assert all(math.isnan(c) for c in conv["c1"])


def test_gap_matches_closed_form(s2_band):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(s2_band, cfg)
    conv = convergence_series(s2_band, cfg, plan)
    lam = np.min(np.sin(plan.points[:, 1]) ** 2)
    for l, gap in zip(cfg.l_grid, conv["gap"]):
        assert gap == pytest.approx(l * l / (l * l + lam), rel=1e-12)


def test_t_scaling_series_band(s2_band):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(s2_band, cfg)
    tsc = t_scaling_series(s2_band, cfg, plan)
    assert not tsc["vacuous"]
    assert tsc["t_fit"]["status"] == "ok"
    assert 1.8 < tsc["t_fit"]["slope"] < 2.2


def test_t_scaling_series_vacuous_for_transitive(su2_s2):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(su2_s2, cfg)
    tsc = t_scaling_series(su2_s2, cfg, plan)
    assert tsc["vacuous"]
    assert tsc["t_fit"] is None


def test_spot_t_ratio_band(s2_band):
    # the stage's pair block at one point: rescaled norm over base norm
    resc, base = _k.t_pair_block(s2_band, s2_band.params, _k.RESCALED, 0.1,
                                 np.array([[0.5, np.pi / 4]]), H_FD, SIGMA_TOL)
    assert resc[0] / base[0] == pytest.approx(0.01 / 0.51, abs=1e-6)


def test_geodesic_results_band(s2_band):
    cfg = SweepConfig(**SMALL)
    geo = geodesic_results(s2_band, cfg)
    assert not geo["vacuous"]
    starts = geo["starts"]
    assert len(starts) == 3
    for entry in starts:
        assert entry["limit_drift"] < 1e-6
        assert entry["base_drift"] > 1e-3
        assert entry["limit_speed_drift"] < 1e-8


def test_geodesic_results_vacuous_for_transitive(su2_s2):
    cfg = SweepConfig(**SMALL)
    geo = geodesic_results(su2_s2, cfg)
    assert geo["vacuous"]


def test_degenerate_geodesic_start_is_a_numerical_failure(s2_band):
    # a start whose orbit field is NaN (a degenerate orbit) fails as a
    # numerical breakdown, which the command line exits 3 on
    nan_field = dataclasses.replace(
        s2_band, killing=lambda par, x: np.full(x.shape[:-1] + (2, 1), np.nan))
    with pytest.raises(NumericalFailure):
        geodesic_results(nan_field, SweepConfig(**SMALL))


def test_invariance_results_fields(su2_s2):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(su2_s2, cfg)
    inv = invariance_results(su2_s2, cfg, plan)
    assert inv["max_residual"] < 1e-8
    assert inv["horizontal_residual"] < 1e-10
    assert inv["kappa_residual"] < 1e-10
    assert inv["kappa_iso_residual"] < 1e-10
    assert inv["n_elements"] == 5
    assert {"original", "limit"} == set(inv["static"])
    assert len(inv["by_l"]) == len(cfg.l_grid)


def test_large_l_series_slope(s2_band):
    cfg = SweepConfig(**SMALL)
    plan = build_plan(s2_band, cfg)
    lrg = large_l_series(s2_band, cfg, plan)
    assert -2.2 < lrg["fit"]["slope"] < -1.8


def test_oracle_results_routes_agree(su2_s2):
    cfg = SweepConfig(**SMALL)
    orc = oracle_results(su2_s2, cfg)
    assert orc["n_samples"] >= 30
    assert set(orc) == {"n_samples", "kernel_max_diff", "definition_max_diff"}
    assert orc["kernel_max_diff"] < 1e-10
    assert orc["definition_max_diff"] < 1e-10


def _l_for_l_squared(l):
    """The slip l in place of l^2, shaped as _kernels._sq shapes l^2."""
    return l[..., None, None] if isinstance(l, np.ndarray) else l


@pytest.mark.parametrize("slip", ["kernels", "definition"])
def test_oracle_fails_on_l_for_l_squared(slip, all_scenarios, monkeypatch):
    """Negative controls: l in place of l^2 in both kernel routes (they
    share _sq, so they still agree with each other) or in the definition
    route makes the oracle verdict fail on every scenario."""
    from cheegerdef import _kernels as _k
    from cheegerdef import verify

    if slip == "kernels":
        monkeypatch.setattr(_k, "_sq", _l_for_l_squared)
    else:
        exact = verify.definition_metric
        monkeypatch.setattr(verify, "definition_metric",
                            lambda sc, tag, l, x: exact(sc, tag, np.sqrt(l), x))
    cfg = SweepConfig(enabled=("oracle",))
    for scenario in all_scenarios:
        res = run_suite(scenario, cfg)
        orc = res["oracle"]
        assert orc["kernel_max_diff"] < 1e-13
        assert orc["definition_max_diff"] > 0.05
        (verdict,) = res["verdicts"]
        assert verdict["criterion"] == "oracle_equivalence"
        assert not verdict["passed"]


def test_rate_windows_fail_on_l_for_l_squared(s2_band, monkeypatch):
    """Negative controls of the rate windows and the gap ratio: with l in
    place of l^2 the rescaled family approaches its limit at O(l) (C^0,
    C^1 and T slopes 0.7500), the gap ratio spreads to 13.49, and the
    deformed metric returns to the base metric like 1/l."""
    from cheegerdef import _kernels as _k

    monkeypatch.setattr(_k, "_sq", _l_for_l_squared)
    res = run_suite(s2_band, SweepConfig(enabled=("convergence", "t_scaling", "large_l")))
    verdicts = {v["criterion"]: v for v in res["verdicts"]}
    assert not any(v["passed"] for v in verdicts.values())
    for name in ("c0_rate_window", "c1_rate_window", "t_rate_window"):
        assert verdicts[name]["measured"] == pytest.approx(0.75, abs=1e-3)
    assert verdicts["gap_ratio_bounded"]["measured"] == pytest.approx(13.49, abs=0.01)
    assert verdicts["large_l_rate_window"]["measured"] > -1.5
    assert len(verdicts) == 5


def test_nan_residual_is_a_numerical_failure(s2_band, monkeypatch):
    """A NaN residual that is not the first one reduced still breaks the
    run (exit 3 on the command line), named by variant, l, group element
    and plan point; it never becomes a verdict."""
    from cheegerdef import _kernels as _k

    exact = _k.variant_metric

    def limit_is_nan(scen, par, tag, l, x, sigma_tol):
        out = exact(scen, par, tag, l, x, sigma_tol)
        return np.full_like(out, np.nan) if tag == _k.LIMIT else out

    monkeypatch.setattr(_k, "variant_metric", limit_is_nan)
    cfg = SweepConfig(**{**SMALL, "enabled": ("invariance",)})
    first = build_plan(s2_band, cfg).points[0].tolist()
    with pytest.raises(NumericalFailure) as failure:
        run_suite(s2_band, cfg)
    assert str(failure.value) == (
        f"invariance residual of limit failed at every l for group element 0 "
        f"at plan point 0 {first} on s2_band")


def test_nan_residual_failure_names_variant_l_element_and_point(s2_band, monkeypatch):
    """The failure locates the first NaN residual, read from the
    residuals: a rescaled image NaN at one l, element and invariance
    point only."""
    from cheegerdef import _kernels as _k

    exact = _k.variant_metric
    cfg = SweepConfig(**{**SMALL, "enabled": ("invariance",)})

    def one_image_is_nan(scen, par, tag, l, x, sigma_tol):
        out = exact(scen, par, tag, l, x, sigma_tol)
        if tag == _k.RESCALED and out.ndim == 5:
            # (L, E, N, d, d) images: l = 0.05, element 3, point 2
            out = out.copy()
            out[2, 3, 2] = np.nan
        return out

    monkeypatch.setattr(_k, "variant_metric", one_image_is_nan)
    plan = build_plan(s2_band, cfg)
    stride = len(plan.points) // cfg.invariance_points
    with pytest.raises(NumericalFailure) as failure:
        run_suite(s2_band, cfg)
    assert str(failure.value) == (
        f"invariance residual of rescaled failed at l=0.05 for group element 3 "
        f"at plan point {2 * stride} {plan.points[2 * stride].tolist()} on s2_band")


def test_nan_failure_takes_the_first_variant_in_reduction_order(s2_band, monkeypatch):
    from cheegerdef import _kernels as _k

    exact = _k.variant_metric

    def limit_and_cheeger_are_nan(scen, par, tag, l, x, sigma_tol):
        out = exact(scen, par, tag, l, x, sigma_tol)
        return np.full_like(out, np.nan) if tag in (_k.LIMIT, _k.CHEEGER) else out

    monkeypatch.setattr(_k, "variant_metric", limit_and_cheeger_are_nan)
    first = build_plan(s2_band, SweepConfig(**SMALL)).points[0].tolist()
    with pytest.raises(NumericalFailure) as failure:
        run_suite(s2_band, SweepConfig(**{**SMALL, "enabled": ("invariance",)}))
    assert str(failure.value) == (
        f"invariance residual of limit failed at every l for group element 0 "
        f"at plan point 0 {first} on s2_band")


def _with_l_for_l_squared(monkeypatch, scenario, cfg):
    monkeypatch.setattr(_k, "_sq", _l_for_l_squared)
    return scenario, cfg


def _limit_for_base(monkeypatch, scenario, cfg):
    """The limit metric in place of the base metric in the geodesic
    stage: its vertical geodesics keep their orbit (base drift 0.0)."""
    exact = verify.variant
    monkeypatch.setattr(verify, "variant", lambda sc, tag, l=0.0: exact(
        sc, "limit" if tag == "original" else tag, l))
    return scenario, cfg


def _scaled_variants(monkeypatch, scenario, cfg):
    """Every variant but the base metric scaled by 1 + 1e-6: the
    horizontal block moves (1.0e-6) and invariance stays exact."""
    exact = _k.variant_metric
    monkeypatch.setattr(_k, "variant_metric", lambda sc, par, tag, l, x, tol: exact(
        sc, par, tag, l, x, tol) * (1.0 if tag == _k.ORIGINAL else 1.0 + 1e-6))
    return scenario, cfg


def _scaled_kappa(monkeypatch, scenario, cfg):
    """kappa scaled by 1.001 (su2_s2: 1.5e-3)."""
    monkeypatch.setattr(verify, "kappa", lambda orbit, v: 1.001 * kappa(orbit, v))
    return scenario, cfg


def _tilted_isotropy(monkeypatch, scenario, cfg):
    """The isotropy basis tilted by 1e-3 toward its complement (su2_s2:
    1.5e-3); kappa reads the complement, so kappa_identity stays at
    roundoff."""
    exact = _k.m_basis

    def m_basis(sc, K, sigma_tol):
        mb, iso = exact(sc, K, sigma_tol)
        iso = iso + 1e-3 * mb[..., :1]
        return mb, iso / np.linalg.norm(iso, axis=-2, keepdims=True)

    monkeypatch.setattr(_k, "m_basis", m_basis)
    return scenario, cfg


# the negative control of each row of CRITERIA: a record and a
# perturbation (monkeypatch, scenario, cfg) -> (scenario, cfg) under which
# that verdict FAILS on the stage alone, at the SMALL config with 50
# geodesic steps (the unperturbed speed drift reads 2.7e-9 there)
CONTROLS = {
    "c0_rate_window": ("s2_band", _with_l_for_l_squared),
    "c1_rate_window": ("s2_band", _with_l_for_l_squared),
    "gap_ratio_bounded": ("s2_band", _with_l_for_l_squared),
    "t_rate_window": ("s2_band", _with_l_for_l_squared),
    # 3.4e-4; a zero Killing derivative leaves the limit drift at roundoff
    # (2.2e-13), since its terms cancel on a vertical covector
    "geodesic_limit_drift": ("s2_band.pulled_back",
                             lambda mp, sc, cfg: (non_invariant_metric(sc, 1e-2), cfg)),
    # 1.7e-6
    "geodesic_speed_conservation": (
        "s2_band", lambda mp, sc, cfg: (sc, dataclasses.replace(cfg, geodesic_step=0.05))),
    "geodesic_base_drift_discriminates": ("s2_band", _limit_for_base),
    "invariance_residual": ("s2_band.pulled_back",
                            lambda mp, sc, cfg: (non_invariant_metric(sc, 1e-3), cfg)),
    "horizontal_block_static": ("s2_band", _scaled_variants),
    "kappa_identity": ("su2_s2", _scaled_kappa),
    "kappa_isotropy": ("su2_s2", _tilted_isotropy),
    "large_l_rate_window": ("s2_band", _with_l_for_l_squared),
    "oracle_equivalence": ("s2_band", _with_l_for_l_squared),
}


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_every_criterion_fails_under_its_control(criterion, record, monkeypatch):
    """The unperturbed run passes the criterion and its registered
    control FAILS it; a criterion with no control fails this test."""
    if criterion.name not in CONTROLS:
        pytest.fail(f"{criterion.name} has no registered negative control")
    sid, perturb = CONTROLS[criterion.name]
    scenario = record(sid)
    cfg = SweepConfig(**{**SMALL, "geodesic_length": 0.5, "geodesic_step": 1e-2,
                         "enabled": (criterion.stage,)})

    def verdict(scenario, cfg):
        (v,) = [v for v in run_suite(scenario, cfg)["verdicts"]
                if v["criterion"] == criterion.name]
        return v

    assert verdict(scenario, cfg)["passed"]
    failed = verdict(*perturb(monkeypatch, scenario, cfg))
    assert not failed["passed"], failed


def test_run_suite_full_band(s2_band):
    cfg = SweepConfig(**SMALL)
    res = run_suite(s2_band, cfg)
    assert res["passed"]
    names = [v["criterion"] for v in res["verdicts"]]
    for expected in ("c0_rate_window", "c1_rate_window", "gap_ratio_bounded",
                     "t_rate_window", "geodesic_limit_drift",
                     "geodesic_speed_conservation",
                     "geodesic_base_drift_discriminates",
                     "invariance_residual", "horizontal_block_static",
                     "kappa_identity", "kappa_isotropy",
                     "large_l_rate_window", "oracle_equivalence"):
        assert expected in names
    assert len(res["rows"]) == len(cfg.l_grid)
    row = res["rows"][0]
    assert set(row) == {"l", "c0_diff", "c1_diff", "t_ratio_max",
                        "gap_residual", "invariance_residual"}


def test_run_suite_subset_of_tests(s2_band):
    cfg = SweepConfig(enabled=("convergence",), **SMALL)
    res = run_suite(s2_band, cfg)
    names = {v["criterion"] for v in res["verdicts"]}
    assert names == {"c0_rate_window", "c1_rate_window", "gap_ratio_bounded"}
    assert "t_scaling" not in res
    assert math.isnan(res["rows"][0]["t_ratio_max"])


def test_run_suite_vacuous_verdicts_pass(su2_s2):
    cfg = SweepConfig(**SMALL)
    res = run_suite(su2_s2, cfg)
    assert res["passed"]
    by_name = {v["criterion"]: v for v in res["verdicts"]}
    assert by_name["t_rate_window"].get("note") == "vacuous"
    assert by_name["geodesic_limit_drift"].get("note") == "vacuous"
    assert "geodesic_base_drift_discriminates" not in by_name


def test_run_suite_timings_are_private(s2_band):
    cfg = SweepConfig(enabled=("convergence",), **SMALL)
    res = run_suite(s2_band, cfg)
    assert "_timings" in res
    assert res["_timings"]["total"] > 0


def test_all_tests_tuple_is_canonical():
    assert ALL_TESTS == ("convergence", "t_scaling", "geodesic",
                         "invariance", "large_l", "oracle")


EDGE = dict(n_points=16, invariance_points=8, invariance_elements=5,
            oracle_count=30, geodesic_length=0.1, geodesic_step=2e-3)
FINE_GRID = (0.01, 0.005, 0.002, 0.001)


@pytest.mark.parametrize("sid, warp, keys", [
    *(pytest.param(sid, None, {"seed": 2**64 - 1}, id=f"{sid}-largest_seed")
      for sid in list_scenarios()),
    *(pytest.param(sid, None, {"l_grid": FINE_GRID}, id=f"{sid}-l_down_to_MIN_L")
      for sid in list_scenarios()),
    pytest.param("warped_s2", 0.89, {}, id="warped_s2-warp_+0.89"),
    # the default grid is pre-asymptotic here (P = 0.11 at the equator
    # against l^2 = 0.04: c0_rate_window FAILs); at this length the base
    # drift falls below its floor because the geodesic is short
    pytest.param("warped_s2", -0.89,
                 {"l_grid": (0.02, 0.01, 0.005, 0.0025),
                  "enabled": tuple(t for t in ALL_TESTS if t != "geodesic")},
                 id="warped_s2-warp_-0.89"),
])
def test_edge_configs_pass_every_verdict(sid, warp, keys):
    scenario = get_scenario(sid) if warp is None else get_scenario(sid, warp_amplitude=warp)
    res = run_suite(scenario, SweepConfig(**EDGE, **keys))
    assert res["passed"], [v for v in res["verdicts"] if not v["passed"]]
