import numpy as np
import pytest

from goc.envelope import build_envelope_table
from goc.utility import LipschitzProfile, UtilitySpec, estimate_lipschitz, q_ad, q_dc

from conftest import rng


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
    with pytest.raises(ValueError):
        UtilitySpec(dc_kind="nope")
    with pytest.raises(ValueError):
        UtilitySpec(ad_kind="nope")
    with pytest.raises(ValueError):
        UtilitySpec(dc_kind="linear", dc_gamma=-0.1)
    with pytest.raises(ValueError):
        UtilitySpec(ad_kind="weighted_sum", ad_w_mse=0.0)
    with pytest.raises(ValueError):
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
    g = rng(5, 1)
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
        alpha = np.linspace(table.alpha_min, 1.0, 53)
        assert np.max(np.abs(q_dc(spec, table.c_at(alpha), alpha) - alpha)) <= 1e-12


def test_dc_utility_curve_values(table_unif_2):
    lin1 = UtilitySpec(dc_kind="linear", dc_gamma=1.0)
    assert q_dc(lin1, table_unif_2.c_at(1.0), 1.0) == pytest.approx(2.0 / 3.0, abs=1e-9)
    ratio = UtilitySpec(dc_kind="ratio")
    assert q_dc(ratio, table_unif_2.c_at(1.0), 1.0) == pytest.approx(0.75, abs=1e-9)


def test_dc_utility_curve_rejects_out_of_range(table_unif_2):
    spec = UtilitySpec()
    with pytest.raises(ValueError):
        q_dc(spec, table_unif_2.c_at(1e-5), 1e-5)


def test_lipschitz_profile_validation():
    with pytest.raises(ValueError):
        LipschitzProfile(ell=0.0, big_l=1.0, d=1.0)
    with pytest.raises(ValueError):
        LipschitzProfile(ell=1.0, big_l=-1.0, d=1.0)


def test_estimate_ell_exactly_one_for_acceptance_only(unif):
    spec = UtilitySpec(dc_kind="linear", dc_gamma=0.0, ad_kind="product", ad_theta=1.0)
    est = estimate_lipschitz(unif, spec, (2.0, 3.0), resolution=101)
    assert est.profile.ell == 1.0


def test_estimate_constant_curve_single_piece(unif, spec_pa_only):
    # acceptance-only collector against an acceptance-dominated adversary:
    # the realized curve is constant, so one piece spanning the whole range
    est = estimate_lipschitz(unif, spec_pa_only, (2.0, 4.0), resolution=101)
    assert est.boundaries == ()
    assert est.profile.d == pytest.approx(2.0, abs=1e-12)
    assert est.profile.big_l <= 1e-9
    assert np.max(np.abs(est.u_values - est.u_values[0])) <= 1e-12


def test_estimate_stable_under_refinement(unif, spec_gamma1):
    coarse = estimate_lipschitz(unif, spec_gamma1, (2.0, 6.0), resolution=401)
    fine = estimate_lipschitz(unif, spec_gamma1, (2.0, 6.0), resolution=801)
    for lo, hi in (
        (coarse.profile.ell, fine.profile.ell),
        (coarse.profile.big_l, fine.profile.big_l),
        (coarse.profile.d, fine.profile.d),
    ):
        assert abs(hi - lo) <= 0.05 * max(abs(lo), 1e-9)
