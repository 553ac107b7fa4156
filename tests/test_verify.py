import numpy as np
import pytest

from goc.envelope import build_envelope_table, k_eta, nu_eta, offset_domain
from goc.verify import two_point_oracle, verify_grid

from conftest import rng


def test_full_acceptance_pins_witness(unif, table_unif_2):
    # acceptance >= 1 forces all mass on the fully-accepted offset
    res = two_point_oracle(unif, table_unif_2, 1.0)
    assert res.oracle_value == pytest.approx(1.0 / 3.0, abs=1e-9)
    z1, z2, w = res.witness
    pa = w * k_eta(unif, 2.0, z1) + (1 - w) * k_eta(unif, 2.0, z2)
    assert pa == pytest.approx(1.0, abs=1e-12)


def test_single_point_scan_is_lower_bound(unif, table_unif_2):
    eta, alpha = 2.0, 0.4
    dom = offset_domain(unif, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, 401)
    k = np.asarray(k_eta(unif, eta, z))
    nu = np.asarray(nu_eta(unif, eta, z))
    feasible = k >= alpha
    single = float(np.max(nu[feasible] / (4.0 * k[feasible])))
    res = two_point_oracle(unif, table_unif_2, alpha)
    assert single <= res.oracle_value + 1e-12


def test_witness_feasibility(unif, tgauss):
    for scenario in (unif, tgauss):
        for eta, alpha in ((2.0, 0.3), (3.0, 0.7), (2.5, 1.0)):
            res = two_point_oracle(scenario, build_envelope_table(scenario, eta), alpha)
            z1, z2, w = res.witness
            pa = w * k_eta(scenario, eta, z1) + (1 - w) * k_eta(scenario, eta, z2)
            assert pa >= alpha - 1e-12


def test_oracle_never_exceeds_envelope(unif, tgauss):
    for scenario, etas in ((unif, (2.0, 3.0)), (tgauss, (2.0, 4.0))):
        for eta in etas:
            table = build_envelope_table(scenario, eta)
            for alpha in (0.2, 0.5, 0.9):
                res = two_point_oracle(scenario, table, alpha)
                assert res.oracle_value <= res.envelope_value + 1e-6 * max(1.0, res.envelope_value)


def test_refinement_convergence(tgauss):
    # doubling both grids must substantially close the gap to the envelope
    # (observed convergence is near-quadratic in the offset spacing)
    eta, alpha = 2.5, 0.4
    table = build_envelope_table(tgauss, eta)
    base = two_point_oracle(tgauss, table, alpha, 401, 201)
    fine = two_point_oracle(tgauss, table, alpha, 801, 401)
    finest = two_point_oracle(tgauss, table, alpha, 1601, 801)
    assert abs(fine.gap) <= max(0.5 * abs(base.gap), 1e-10)
    assert abs(finest.gap) <= max(0.5 * abs(fine.gap), 1e-10)


def three_point_spot_check(scenario, eta, alpha, z_grid_size=41, w_grid_size=13):
    """Coarse three-offset search; returns (three_point_max, two_point_max at the same z grid).

    Guards the two-offset sufficiency assumption: the three-offset value
    must not exceed the two-offset value beyond grid tolerance.
    """
    dom = offset_domain(scenario, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    best3 = -np.inf
    ws = np.linspace(0.0, 1.0, w_grid_size)
    k1, k2, k3 = kz[:, None, None], kz[None, :, None], kz[None, None, :]
    n1, n2, n3 = nz[:, None, None], nz[None, :, None], nz[None, None, :]
    for w1 in ws:
        for w2 in ws:
            if w1 + w2 > 1.0 + 1e-12:
                continue
            w3 = 1.0 - w1 - w2
            pa = w1 * k1 + w2 * k2 + w3 * k3
            mse = np.where(
                pa >= alpha - 1e-15,
                (w1 * n1 + w2 * n2 + w3 * n3) / np.maximum(4.0 * pa, 1e-300),
                -np.inf,
            )
            best3 = max(best3, float(mse.max()))
    two = two_point_oracle(scenario, build_envelope_table(scenario, eta), alpha,
                           z_grid_size=max(z_grid_size, 201),
                           w_grid_size=max(2 * w_grid_size + 1, 101))
    return best3, two.oracle_value


def test_three_point_mixtures_add_nothing(unif, tgauss):
    g = rng(21, 4)
    for _ in range(5):
        scenario = unif if g.random() < 0.5 else tgauss
        eta = float(2.0 + 2.0 * g.random())
        alpha = float(0.15 + 0.8 * g.random())
        best3, best2 = three_point_spot_check(scenario, eta, alpha)
        assert best3 <= best2 + 1e-9 * max(1.0, best2)


def test_oracle_validates_inputs(unif, table_unif_2):
    with pytest.raises(ValueError):
        two_point_oracle(unif, table_unif_2, 0.0)
    with pytest.raises(ValueError):
        two_point_oracle(unif, table_unif_2, 0.5, z_grid_size=100)
    with pytest.raises(ValueError):
        two_point_oracle(unif, table_unif_2, 0.5, w_grid_size=50)


def test_verify_grid_is_eta_major_and_matches_cells(unif):
    results = verify_grid(unif, [2.0, 3.0], [0.5, 1.0], 401, 1e-3, 201, 101)
    assert [(r.eta, r.alpha) for r in results] == [(2.0, 0.5), (2.0, 1.0), (3.0, 0.5), (3.0, 1.0)]
    table = build_envelope_table(unif, 3.0, 401, 1e-3)
    assert results[2] == two_point_oracle(unif, table, 0.5, 201, 101)
