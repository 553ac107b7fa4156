import numpy as np
import pytest

from goc.envelope import build_envelope_table
from goc.oracle import best_response, best_response_curve, realized_u, solve_complete_info
from goc.utility import UtilitySpec, q_ad, q_dc


def test_acceptance_dominated_adversary_accepts_fully(table_unif_2, spec_pa_only):
    br = best_response(table_unif_2, spec_pa_only)
    assert br.alpha_star == 1.0
    assert br.mmse == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_product_adversary_tracks_envelope_peak(unif, table_unif_2, spec_gamma1):
    # with utility = acceptance * error, the objective is the envelope over 4:
    # the argmax must match a 10x-refined direct scan of alpha * c(alpha)
    br = best_response(table_unif_2, spec_gamma1)
    fine = np.linspace(table_unif_2.alpha_min, 1.0, 10 * table_unif_2.alpha_grid.size)
    vals = fine * table_unif_2.c_at(fine)
    alpha_fine = fine[int(np.argmax(vals))]
    step = table_unif_2.alpha_grid[1] - table_unif_2.alpha_grid[0]
    assert abs(br.alpha_star - alpha_fine) <= step + 1e-12
    # frozen from the refined scan on the default grid
    assert br.alpha_star == pytest.approx(0.453, abs=step + 1e-12)


def test_weighted_sum_matches_refined_scan(unif, table_unif_2):
    spec = UtilitySpec(ad_kind="weighted_sum", ad_w_mse=1.0, ad_w_pa=1.0)
    br = best_response(table_unif_2, spec)
    fine = np.linspace(table_unif_2.alpha_min, 1.0, 10 * table_unif_2.alpha_grid.size)
    vals = q_ad(spec, table_unif_2.c_at(fine), fine)
    alpha_fine = fine[int(np.argmax(vals))]
    step = table_unif_2.alpha_grid[1] - table_unif_2.alpha_grid[0]
    assert abs(br.alpha_star - alpha_fine) <= step + 1e-12


def test_best_response_deterministic(table_unif_2, spec_default):
    a = best_response(table_unif_2, spec_default)
    b = best_response(table_unif_2, spec_default)
    assert a == b


def test_mmse_is_curve_lookup(table_unif_2, spec_default):
    br = best_response(table_unif_2, spec_default)
    assert br.mmse == pytest.approx(float(table_unif_2.c_at(br.alpha_star)), abs=1e-12)
    assert br.dc_value == pytest.approx(
        float(q_dc(spec_default, table_unif_2.c_at(br.alpha_star), br.alpha_star)), abs=1e-12
    )


def test_alpha_star_monotone_as_mse_weight_vanishes(table_unif_2):
    alphas = []
    for w in (1e-1, 1e-3, 1e-6):
        spec = UtilitySpec(ad_kind="weighted_sum", ad_w_mse=w, ad_w_pa=1.0)
        alphas.append(best_response(table_unif_2, spec).alpha_star)
    assert alphas[0] <= alphas[1] <= alphas[2]
    assert alphas[2] == 1.0


def test_solve_single_point_grid(unif, spec_default):
    eta_hat, value = solve_complete_info([build_envelope_table(unif, 2.5)], spec_default)
    assert eta_hat == 2.5
    assert value == pytest.approx(realized_u(unif, spec_default, 2.5), abs=1e-12)


def test_solve_reduces_to_full_acceptance_scan(unif, spec_pa_only):
    # acceptance-dominated adversary forces alpha = 1 at every eta, so the
    # 2-d solve must agree with a direct 1-d scan at alpha = 1
    grid = [2.0, 2.5, 3.0, 4.0]
    with_gamma = UtilitySpec(
        dc_kind="linear", dc_gamma=1.0, ad_kind="weighted_sum", ad_w_mse=1e-9, ad_w_pa=1.0
    )
    tables = [build_envelope_table(unif, eta) for eta in grid]
    eta_hat, value = solve_complete_info(tables, with_gamma)
    direct = [float(q_dc(with_gamma, t.c_at(1.0), 1.0)) for t in tables]
    assert eta_hat == grid[int(np.argmax(direct))]
    assert value == pytest.approx(max(direct), abs=1e-9)


def test_solve_matches_exhaustive_two_dim_scan(unif, spec_default):
    grid = [2.0, 3.0, 4.0, 5.0, 6.0]
    tables = [build_envelope_table(unif, eta) for eta in grid]
    eta_hat, value = solve_complete_info(tables, spec_default)
    best_eta, best_val = None, -np.inf
    for eta, t in zip(grid, tables):
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
        assert realized_u(unif, spec, eta, table=table) == pytest.approx(br.alpha_star, abs=1e-12)


def test_realized_u_chain_value(unif):
    # adversary pinned to full acceptance at eta = 2 where the curve is 1/3
    spec = UtilitySpec(
        dc_kind="linear", dc_gamma=1.0, ad_kind="weighted_sum", ad_w_mse=1e-9, ad_w_pa=1.0
    )
    assert realized_u(unif, spec, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_realized_u_fine_grid_consistency(unif, spec_default):
    # within the single piece of this instance the curve obeys the estimated slope
    from goc.utility import estimate_lipschitz

    est = estimate_lipschitz(unif, spec_default, (2.0, 3.0), resolution=201)
    coarse = np.linspace(2.0, 3.0, 21)
    u_coarse = np.array([realized_u(unif, spec_default, e) for e in coarse])
    fine = np.linspace(2.0, 3.0, 201)
    u_fine = np.array([realized_u(unif, spec_default, e) for e in fine])
    interp = np.interp(fine, coarse, u_coarse)
    step = coarse[1] - coarse[0]
    assert np.max(np.abs(u_fine - interp)) <= est.profile.big_l * step + 1e-6


def test_best_response_curve_lengths(unif, spec_default):
    curve = best_response_curve(unif, spec_default, [2.0, 2.5], grid_size=401)
    assert [b.eta for b in curve] == [2.0, 2.5]
