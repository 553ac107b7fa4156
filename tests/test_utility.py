import numpy as np
import pytest

from goc.config import load_config
from goc.envelope import DEFAULT_ALPHA_MIN, build_envelope_table, build_envelope_tables
from goc.environment import make_rng
from goc.experiments import prepare_instance
from goc.noise import truncated_gaussian_scenario
from goc.oracle import best_response
from goc.utility import (
    LipschitzProfile,
    UtilitySpec,
    dc_slope,
    estimate_lipschitz,
    q_ad,
    q_dc,
)


def test_q_dc_values():
    lin1 = UtilitySpec(dc_kind="linear", dc_gamma=1.0)
    lin2 = UtilitySpec(dc_kind="linear", dc_gamma=2.0)
    ratio = UtilitySpec(dc_kind="ratio")
    assert q_dc(lin1, 0.0, 1.0) == 1.0
    assert q_dc(lin2, 0.25, 0.8) == pytest.approx(0.3, abs=1e-12)
    assert q_dc(ratio, 0.0, 0.5) == 0.5


def test_q_ad_values():
    ws = UtilitySpec(ad_kind="weighted_sum", ad_w_mse=1.0, ad_w_pa=1.0)
    p1 = UtilitySpec(ad_kind="product", ad_theta=1.0)
    p2 = UtilitySpec(ad_kind="product", ad_theta=2.0)
    assert q_ad(ws, 0.2, 0.3) == pytest.approx(0.5, abs=1e-12)
    assert q_ad(p1, 0.5, 0.0) == 0.0
    assert q_ad(p2, 1.0 / 3.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError, match=r"^utility\.dc\.kind: "):
        UtilitySpec(dc_kind="nope")
    with pytest.raises(ValueError, match=r"^utility\.ad\.kind: "):
        UtilitySpec(ad_kind="nope")
    with pytest.raises(ValueError, match=r"^utility\.dc\.gamma: "):
        UtilitySpec(dc_kind="linear", dc_gamma=-0.1)
    with pytest.raises(ValueError, match=r"^utility\.ad\.w_mse: "):
        UtilitySpec(ad_kind="weighted_sum", ad_w_mse=0.0)
    with pytest.raises(ValueError, match=r"^utility\.ad\.theta: "):
        UtilitySpec(ad_kind="product", ad_theta=0.0)
    # gamma = 0 is allowed: acceptance-only collector
    UtilitySpec(dc_kind="linear", dc_gamma=0.0)


def check_monotonicity(spec, mse_hi=20.0, eps=1e-6):
    """Finite-difference probes of the monotonicity contracts on a fixed grid; raises on violation."""
    mse = np.linspace(0.0, mse_hi, 25)[:, None]
    pa = np.linspace(0.05, 1.0, 20)[None, :]
    if np.any(q_dc(spec, mse + eps, pa) > q_dc(spec, mse, pa) + 1e-15):
        raise ValueError("collector utility increases with error")
    if np.any(q_dc(spec, mse, pa + eps) < q_dc(spec, mse, pa) - 1e-15):
        raise ValueError("collector utility decreases with acceptance")
    mse_in = np.linspace(0.01, mse_hi, 25)[:, None]
    if np.any(q_ad(spec, mse_in + eps, pa) <= q_ad(spec, mse_in, pa)):
        raise ValueError("adversary utility not strictly increasing in error")
    if np.any(q_ad(spec, mse_in, pa + eps) <= q_ad(spec, mse_in, pa)):
        raise ValueError("adversary utility not strictly increasing in acceptance")


@pytest.mark.parametrize(
    "spec",
    [
        UtilitySpec(dc_kind="linear", dc_gamma=0.7, ad_kind="weighted_sum"),
        UtilitySpec(dc_kind="ratio", ad_kind="product", ad_theta=1.5),
    ],
)
def test_monotonicity_probes(spec):
    check_monotonicity(spec)
    g = make_rng(5, 1)
    mse = 20.0 * g.random(1000)
    pa = g.random(1000)
    eps = 1e-6
    assert np.all(q_dc(spec, mse + eps, pa) <= q_dc(spec, mse, pa) + 1e-15)
    assert np.all(q_dc(spec, mse, np.minimum(pa + eps, 1.0)) >= q_dc(spec, mse, pa) - 1e-15)
    pa_in = 0.05 + 0.9 * g.random(1000)
    mse_in = 0.01 + 20.0 * g.random(1000)
    assert np.all(q_ad(spec, mse_in + eps, pa_in) > q_ad(spec, mse_in, pa_in))
    assert np.all(q_ad(spec, mse_in, pa_in + eps) > q_ad(spec, mse_in, pa_in))


def test_dc_utility_curve_gamma_zero_is_alpha(unif):
    spec = UtilitySpec(dc_kind="linear", dc_gamma=0.0)
    for eta in (2.0, 3.0, 6.0):
        table = build_envelope_table(unif, eta, 801)
        alpha = np.linspace(table.alpha_grid[0], 1.0, 53)
        c = np.interp(alpha, table.alpha_grid, table.c_values)
        assert np.max(np.abs(q_dc(spec, c, alpha) - alpha)) <= 1e-12


def test_dc_utility_curve_values(table_unif_2):
    c1 = table_unif_2.c_values[-1]  # at alpha = 1
    lin1 = UtilitySpec(dc_kind="linear", dc_gamma=1.0)
    assert q_dc(lin1, c1, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-9)
    ratio = UtilitySpec(dc_kind="ratio")
    assert q_dc(ratio, c1, 1.0) == pytest.approx(0.75, abs=1e-9)


def test_lipschitz_profile_validation():
    with pytest.raises(ValueError, match=r"^lipschitz\.ell: "):
        LipschitzProfile(ell=0.0, big_l=1.0, d=1.0)
    with pytest.raises(ValueError, match=r"^lipschitz\.L: "):
        LipschitzProfile(ell=1.0, big_l=-1.0, d=1.0)


def _sweep(scenario, spec, a, b, resolution=801):
    """What ``estimate_lipschitz`` reads of a sweep: ``(etas, u, slopes)``, with the
    ``dc_slope`` of every table."""
    etas = np.linspace(a, b, resolution)
    u, slopes = [], []
    for table in build_envelope_tables(scenario, etas):
        u.append(best_response(table, spec).dc_value)
        slopes.append(dc_slope(spec, table))
    return etas, np.array(u), slopes


def test_estimate_ell_exactly_one_for_acceptance_only(unif):
    # q_dc = alpha along every table, so each segment slope is exactly 1
    spec = UtilitySpec(dc_kind="linear", dc_gamma=0.0, ad_kind="product", ad_theta=1.0)
    etas, u, slopes = _sweep(unif, spec, 2.0, 3.0, 101)
    assert set(slopes) == {1.0}
    assert estimate_lipschitz(etas, u, slopes).profile.ell == 1.0


def test_ell_is_the_largest_slope_and_at_least_1e_9():
    etas, u = np.linspace(2.0, 3.0, 51), np.zeros(51)
    assert estimate_lipschitz(etas, u, [0.5, 2.0, 1.0]).profile.ell == 2.0
    assert estimate_lipschitz(etas, u, [0.0]).profile.ell == 1e-9


def test_estimate_constant_curve_single_piece(unif, spec_pa_only):
    # acceptance-only collector against an acceptance-dominated adversary:
    # the realized curve is constant, so one piece spanning the whole range
    etas, u, slopes = _sweep(unif, spec_pa_only, 2.0, 4.0, 101)
    est = estimate_lipschitz(etas, u, slopes)
    assert est.boundaries == ()
    assert est.profile.d == pytest.approx(2.0, abs=1e-12)
    assert est.profile.big_l <= 1e-9
    assert np.max(np.abs(u - u[0])) <= 1e-12


def test_flagged_windows_collapse_to_one_boundary_per_run():
    # a curve of slope 0.01 with unit steps after etas[1], etas[100] and etas[399]: on 401
    # etas over [2, 6] the slope window is m = 2 steps, so the flagged windows are {0, 1},
    # {99, 100} and {398}, the last one ending the sweep
    etas = np.linspace(2.0, 6.0, 401)
    u = 0.01 * etas + np.searchsorted(etas[[1, 100, 399]], etas, side="left")
    est = estimate_lipschitz(etas, u, [1.0])
    assert est.boundaries == pytest.approx((2.015, 3.005, 5.99), abs=1e-12)
    assert est.profile.d == pytest.approx(0.01, abs=1e-12)
    assert est.profile.big_l == pytest.approx(0.01, abs=1e-12)


def test_estimate_flags_a_real_best_response_jump():
    # thin-tailed noise against an MSE-light adversary: near eta = 4.52 the best response
    # leaves alpha ~ 0.93 for the table's lower edge, and the collector's utility drops by 1.5
    scenario = truncated_gaussian_scenario(sigma=0.1, delta=1.0, big_m=1e4)
    spec = UtilitySpec(dc_kind="linear", dc_gamma=0.3, ad_kind="weighted_sum",
                       ad_w_mse=0.5, ad_w_pa=1.0)
    est = estimate_lipschitz(*_sweep(scenario, spec, 2.0, 6.0))
    assert est.boundaries == pytest.approx((4.5175,), abs=1e-12)
    assert est.profile.d == pytest.approx(1.4825, abs=1e-12)
    before, after = (best_response(t, spec) for t in build_envelope_tables(scenario, [4.51, 4.52]))
    assert before.alpha_star > 0.9
    assert after.alpha_star == DEFAULT_ALPHA_MIN


def test_estimate_rejects_a_coarse_sweep_at_its_key():
    with pytest.raises(ValueError, match=r"^estimator\.resolution: must be >= 51, got 1$"):
        estimate_lipschitz(np.linspace(2.0, 3.0, 1), np.zeros(1), [1.0])


def test_estimate_stable_under_refinement():
    # the whole set-up: ell from the sweep's own tables, L and d from its realized utility
    cfg = load_config(None).with_overrides(**{"utility.dc.gamma": 1.0})
    coarse, fine = (prepare_instance(cfg.with_overrides(**{"estimator.resolution": r})).learner.lip
                    for r in (401, 801))
    for lo, hi in ((coarse.ell, fine.ell), (coarse.big_l, fine.big_l), (coarse.d, fine.d)):
        assert abs(hi - lo) <= 0.05 * max(abs(lo), 1e-9)
