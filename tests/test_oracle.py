import tracemalloc

import numpy as np
import pytest

from goc.envelope import build_envelope_table
from goc.oracle import best_response, best_response_curve, realized_u
from goc.utility import UtilitySpec, q_ad, q_dc


def test_acceptance_dominated_adversary_accepts_fully(table_unif_2, spec_pa_only):
    br = best_response(table_unif_2, spec_pa_only)
    assert br.alpha_star == 1.0
    assert br.mmse == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_product_adversary_tracks_envelope_peak(unif, table_unif_2, spec_gamma1):
    # with utility = acceptance * error, the objective is the envelope over 4:
    # the argmax must match a 10x-refined direct scan of alpha * c(alpha)
    br = best_response(table_unif_2, spec_gamma1)
    fine = np.linspace(table_unif_2.alpha_grid[0], 1.0, 10 * table_unif_2.alpha_grid.size)
    vals = fine * np.interp(fine, table_unif_2.alpha_grid, table_unif_2.c_values)
    alpha_fine = fine[int(np.argmax(vals))]
    step = table_unif_2.alpha_grid[1] - table_unif_2.alpha_grid[0]
    assert abs(br.alpha_star - alpha_fine) <= step + 1e-12
    # frozen from the refined scan on the default grid
    assert br.alpha_star == pytest.approx(0.453, abs=step + 1e-12)


def test_weighted_sum_matches_refined_scan(unif, table_unif_2):
    spec = UtilitySpec(ad_kind="weighted_sum", ad_w_mse=1.0, ad_w_pa=1.0)
    br = best_response(table_unif_2, spec)
    fine = np.linspace(table_unif_2.alpha_grid[0], 1.0, 10 * table_unif_2.alpha_grid.size)
    vals = q_ad(spec, np.interp(fine, table_unif_2.alpha_grid, table_unif_2.c_values), fine)
    alpha_fine = fine[int(np.argmax(vals))]
    step = table_unif_2.alpha_grid[1] - table_unif_2.alpha_grid[0]
    assert abs(br.alpha_star - alpha_fine) <= step + 1e-12


def test_best_response_deterministic(table_unif_2, spec_default):
    a = best_response(table_unif_2, spec_default)
    b = best_response(table_unif_2, spec_default)
    assert a == b


def test_mmse_is_curve_lookup(table_unif_2, spec_default):
    br = best_response(table_unif_2, spec_default)
    c = np.interp(br.alpha_star, table_unif_2.alpha_grid, table_unif_2.c_values)
    assert br.mmse == pytest.approx(float(c), abs=1e-12)
    assert br.dc_value == pytest.approx(float(q_dc(spec_default, c, br.alpha_star)), abs=1e-12)


def test_alpha_star_monotone_as_mse_weight_vanishes(table_unif_2):
    alphas = []
    for w in (1e-1, 1e-3, 1e-6):
        spec = UtilitySpec(ad_kind="weighted_sum", ad_w_mse=w, ad_w_pa=1.0)
        alphas.append(best_response(table_unif_2, spec).alpha_star)
    assert alphas[0] <= alphas[1] <= alphas[2]
    assert alphas[2] == 1.0


def _solve(curve):
    # the complete-information solve: the eta whose best response pays the collector most
    i = int(np.argmax([br.dc_value for br in curve]))
    return curve[i].eta, curve[i].dc_value


def test_solve_single_point_grid(unif, spec_default):
    eta_hat, value = _solve(best_response_curve(unif, spec_default, [2.5]))
    assert eta_hat == 2.5
    u = realized_u(build_envelope_table(unif, 2.5), spec_default)
    assert value == pytest.approx(u, abs=1e-12)


def test_solve_reduces_to_full_acceptance_scan(unif, spec_pa_only):
    # acceptance-dominated adversary forces alpha = 1 at every eta, so the
    # 2-d solve must agree with a direct 1-d scan at alpha = 1
    grid = [2.0, 2.5, 3.0, 4.0]
    with_gamma = UtilitySpec(
        dc_kind="linear", dc_gamma=1.0, ad_kind="weighted_sum", ad_w_mse=1e-9, ad_w_pa=1.0
    )
    eta_hat, value = _solve(best_response_curve(unif, with_gamma, grid))
    tables = [build_envelope_table(unif, eta) for eta in grid]
    direct = [float(q_dc(with_gamma, t.c_values[-1], 1.0)) for t in tables]  # c at alpha = 1
    assert eta_hat == grid[int(np.argmax(direct))]
    assert value == pytest.approx(max(direct), abs=1e-9)


def test_solve_matches_exhaustive_two_dim_scan(unif, spec_default):
    grid = [2.0, 3.0, 4.0, 5.0, 6.0]
    eta_hat, value = _solve(best_response_curve(unif, spec_default, grid))
    best_eta, best_val = None, -np.inf
    for eta in grid:
        t = build_envelope_table(unif, eta)
        advs = q_ad(spec_default, t.c_values, t.alpha_grid)
        ties = np.flatnonzero(advs >= advs.max() - 1e-9)
        dc_worst = float(np.min(q_dc(spec_default, t.c_values[ties], t.alpha_grid[ties])))
        if dc_worst > best_val:
            best_eta, best_val = eta, dc_worst
    assert eta_hat == best_eta
    assert value == pytest.approx(best_val, abs=1e-12)


def test_realized_u_gamma_zero_equals_acceptance(unif):
    spec = UtilitySpec(dc_kind="linear", dc_gamma=0.0, ad_kind="product", ad_theta=1.0)
    for eta in (2.0, 3.0):
        table = build_envelope_table(unif, eta)
        br = best_response(table, spec)
        assert realized_u(table, spec) == pytest.approx(br.alpha_star, abs=1e-12)


def test_realized_u_chain_value(unif):
    # adversary pinned to full acceptance at eta = 2 where the curve is 1/3
    spec = UtilitySpec(
        dc_kind="linear", dc_gamma=1.0, ad_kind="weighted_sum", ad_w_mse=1e-9, ad_w_pa=1.0
    )
    assert realized_u(build_envelope_table(unif, 2.0), spec) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_realized_u_fine_grid_consistency(unif, spec_default):
    # within the single piece of this instance the curve obeys the estimated slope
    from goc.utility import estimate_lipschitz

    est = estimate_lipschitz(unif, spec_default, (2.0, 3.0), resolution=201)
    coarse = np.linspace(2.0, 3.0, 21)
    u_coarse = np.array([realized_u(build_envelope_table(unif, e), spec_default) for e in coarse])
    fine = np.linspace(2.0, 3.0, 201)
    u_fine = np.array([realized_u(build_envelope_table(unif, e), spec_default) for e in fine])
    interp = np.interp(fine, coarse, u_coarse)
    step = coarse[1] - coarse[0]
    assert np.max(np.abs(u_fine - interp)) <= est.profile.big_l * step + 1e-6


def test_best_response_curve_lengths(unif, spec_default):
    curve = best_response_curve(unif, spec_default, [2.0, 2.5], grid_size=401)
    assert [b.eta for b in curve] == [2.0, 2.5]


# One block of rows and a few tables at a time. Holding all 801 tables of the sweep
# at once takes about 60 MB; a 64-row block takes about 7 MB.
SWEEP_PEAK_BYTES = 4 << 20


def test_best_response_curve_streams_its_tables(unif, spec_default):
    best_response_curve(unif, spec_default, [2.0])  # first-call allocations outside the trace
    tracemalloc.start()
    try:
        curve = best_response_curve(unif, spec_default, np.linspace(2.0, 6.0, 801), 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 801
    assert peak < SWEEP_PEAK_BYTES
