import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goc.envelope import build_envelope_table, build_envelope_tables
from goc.noise import truncated_gaussian_scenario, uniform_scenario
from goc.oracle import best_response, realized_u
from goc.utility import UtilitySpec, q_ad, q_dc

from reference import direct_adversary_optimum


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


def _solve(scenario, spec, etas):
    # the complete-information solve: the eta whose best response pays the collector most
    curve = [best_response(t, spec) for t in build_envelope_tables(scenario, etas)]
    i = int(np.argmax([br.dc_value for br in curve]))
    return curve[i].eta, curve[i].dc_value


def test_solve_single_point_grid(unif, spec_default):
    eta_hat, value = _solve(unif, spec_default, [2.5])
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
    eta_hat, value = _solve(unif, with_gamma, grid)
    tables = [build_envelope_table(unif, eta) for eta in grid]
    direct = [float(q_dc(with_gamma, t.c_values[-1], 1.0)) for t in tables]  # c at alpha = 1
    assert eta_hat == grid[int(np.argmax(direct))]
    assert value == pytest.approx(max(direct), abs=1e-9)


def test_solve_matches_exhaustive_two_dim_scan(unif, spec_default):
    grid = [2.0, 3.0, 4.0, 5.0, 6.0]
    eta_hat, value = _solve(unif, spec_default, grid)
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

    fine = np.linspace(2.0, 3.0, 201)
    u_fine = np.array([realized_u(build_envelope_table(unif, e), spec_default) for e in fine])
    est = estimate_lipschitz(fine, u_fine, [1.0])  # L alone is read: any slope will do
    coarse = np.linspace(2.0, 3.0, 21)
    u_coarse = np.array([realized_u(build_envelope_table(unif, e), spec_default) for e in coarse])
    interp = np.interp(fine, coarse, u_coarse)
    step = coarse[1] - coarse[0]
    assert np.max(np.abs(u_fine - interp)) <= est.profile.big_l * step + 1e-6


_LAWS = {
    "uniform": uniform_scenario(delta=1.0, big_m=1e4),
    "sigma0.5": truncated_gaussian_scenario(sigma=0.5, delta=1.0, big_m=1e4),
    "sigma3": truncated_gaussian_scenario(sigma=3.0, delta=1.0, big_m=1e4),
}
_ADVERSARIES = st.one_of(
    st.builds(lambda theta: UtilitySpec(dc_gamma=0.3, ad_kind="product", ad_theta=theta),
              st.floats(min_value=0.2, max_value=5.0)),
    st.builds(lambda w_mse: UtilitySpec(dc_gamma=0.3, ad_kind="weighted_sum", ad_w_mse=w_mse),
              st.floats(min_value=0.05, max_value=10.0)),
)


@given(law=st.sampled_from(sorted(_LAWS)), eta=st.floats(min_value=2.0, max_value=6.0),
       spec=_ADVERSARIES)
@settings(max_examples=40, deadline=None)
def test_an_adversary_optimizing_mixtures_lands_on_the_value_curve(law, eta, spec):
    """The paper's invariant, with no value curve in the search: the adversary's best
    two-offset mixture is worth no more than its best response along c, and its
    (acceptance, MSE) lies on c. Over 4,000 random cases and a corner sweep (z = 201,
    w = 101) the mixture beat the best response by at most 1.5e-6 relative, which the
    2001-point acceptance grid explains (8001 points: below 0), and lay within 2.9e-4
    relative of c."""
    scenario = _LAWS[law]
    table = build_envelope_table(scenario, eta)
    value, pa, mse = direct_adversary_optimum(scenario, eta, spec, table.alpha_grid[0], 201, 101)
    assert value <= best_response(table, spec).ad_value + 5e-6 * abs(value)
    curve = table.h_star_at(pa) / (4.0 * pa)
    assert abs(mse - curve) <= 1e-3 * curve
