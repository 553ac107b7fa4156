import tracemalloc

import numpy as np
import pytest

import goc.verify
from goc.envelope import build_envelope_table, k_eta, nu_eta, offset_domain
from goc.environment import make_rng
from goc.noise import truncated_gaussian_scenario
from goc.verify import DEFAULT_W_GRID, DEFAULT_Z_GRID, two_point_oracle, verify_grid

import reference
from reference import two_point_oracle_where


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
    g = make_rng(21, 4)
    for _ in range(5):
        scenario = unif if g.random() < 0.5 else tgauss
        eta = float(2.0 + 2.0 * g.random())
        alpha = float(0.15 + 0.8 * g.random())
        best3, best2 = three_point_spot_check(scenario, eta, alpha)
        assert best3 <= best2 + 1e-9 * max(1.0, best2)


def test_oracle_validates_inputs(unif, table_unif_2):
    with pytest.raises(ValueError):
        two_point_oracle(unif, table_unif_2, 0.0)
    with pytest.raises(ValueError, match=r"^--z-grid: must be >= 201, got 100$"):
        two_point_oracle(unif, table_unif_2, 0.5, z_grid_size=100)
    with pytest.raises(ValueError, match=r"^--w-grid: must be >= 101, got 50$"):
        two_point_oracle(unif, table_unif_2, 0.5, w_grid_size=50)


def test_verify_grid_is_eta_major_and_matches_cells(unif):
    results = verify_grid(unif, [2.0, 3.0], [0.5, 1.0], 401, 1e-3, 201, 101)
    assert [(r.eta, r.alpha) for r in results] == [(2.0, 0.5), (2.0, 1.0), (3.0, 0.5), (3.0, 1.0)]
    table = build_envelope_table(unif, 3.0, 401, 1e-3)
    assert results[2] == two_point_oracle(unif, table, 0.5, 201, 101)


def test_buffered_sweep_matches_the_where_sweep(unif, tgauss):
    # same operations in the same order: values and witnesses equal bit for bit
    wide = truncated_gaussian_scenario(sigma=3.0, delta=1.0, big_m=1e4)
    for scenario in (unif, tgauss, wide):
        for eta in (2.0, 2.5, 3.0, 6.0):
            table = build_envelope_table(scenario, eta)
            dom = offset_domain(scenario, eta)
            k_max = float(np.max(k_eta(scenario, eta, np.linspace(dom.z_lo, dom.z_hi, 201))))
            # just under k_max almost every cell is infeasible; at 1 + 1e-15 the
            # feasibility floor is exactly 1.0, which full-acceptance cells reach
            for alpha in (0.05, 0.5, 1.0, np.nextafter(k_max, 0.0), 1.0 + 1e-15):
                res = two_point_oracle(scenario, table, alpha, 201, 101)
                want = two_point_oracle_where(scenario, table, alpha, 201, 101)
                assert (res.oracle_value, res.witness) == want


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("sigma", [None, 0.5, 3.0], ids=["uniform", "sigma0.5", "sigma3"])
def test_row_blocks_match_the_full_array_sweep(unif, monkeypatch, sigma, alpha):
    """Blocks of one grid row scan to the full-array sweep's value and first-maximum witness."""
    scenario = unif if sigma is None else truncated_gaussian_scenario(sigma, 1.0, 1e4)
    table = build_envelope_table(scenario, 2.5)
    monkeypatch.setattr(goc.verify, "ORACLE_BLOCK_CELLS", 1)
    res = two_point_oracle(scenario, table, alpha, 201, 101)
    want = two_point_oracle_where(scenario, table, alpha, 201, 101)
    assert (res.oracle_value, res.witness) == want


def test_oracle_memory_is_bounded(tgauss):
    """The oracle holds one block of grid rows at a time, not the z-by-z grid."""
    table = build_envelope_table(tgauss, 2.5)
    two_point_oracle(tgauss, table, 0.5, 201, 101)  # imports and caches off the books
    tracemalloc.start()
    try:
        two_point_oracle(tgauss, table, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def _count_sweep_rows(monkeypatch):
    """Patch the oracle's row filter to tally the weight-sweep rows it lets through."""
    counted = []
    real = goc.verify._rows_that_can_win

    def counting(*args):
        rows = real(*args)
        counted.append(rows.size)
        return rows

    monkeypatch.setattr(goc.verify, "_rows_that_can_win", counting)
    return counted


@pytest.mark.parametrize("eta", [2.0, 3.0])
def test_pruned_sweep_matches_the_full_grid_on_the_benchmark_cells(eta):
    """The two cells ``goc verify`` checks in the benchmark, at the default grids."""
    scenario = truncated_gaussian_scenario(sigma=3.0, delta=1.0, big_m=1e4)
    table = build_envelope_table(scenario, eta)
    res = two_point_oracle(scenario, table, 0.5)
    want = two_point_oracle_where(scenario, table, 0.5, DEFAULT_Z_GRID, DEFAULT_W_GRID)
    assert (res.oracle_value, res.witness) == want


def test_pruning_skips_most_rows_at_an_interior_alpha(monkeypatch):
    scenario = truncated_gaussian_scenario(sigma=3.0, delta=1.0, big_m=1e4)
    table = build_envelope_table(scenario, 2.0)
    counted = _count_sweep_rows(monkeypatch)
    two_point_oracle(scenario, table, 0.5)
    assert len(counted) == DEFAULT_W_GRID
    assert sum(counted) < 0.05 * DEFAULT_W_GRID * DEFAULT_Z_GRID, sum(counted)


@pytest.mark.parametrize("alpha", [1e-16, 1e-15])
def test_a_floor_at_or_below_zero_evaluates_every_row(unif, tgauss, monkeypatch, alpha):
    # alpha - 1e-15 <= 0: every cell is feasible and no bound applies
    counted = _count_sweep_rows(monkeypatch)
    for scenario in (unif, tgauss):
        table = build_envelope_table(scenario, 2.5)
        counted.clear()
        res = two_point_oracle(scenario, table, alpha, 201, 101)
        assert counted == [201] * 101
        assert (res.oracle_value, res.witness) == two_point_oracle_where(
            scenario, table, alpha, 201, 101)


def _synthetic_law(monkeypatch, k_head, nu_head):
    """Give the oracle and its reference offsets whose k and nu start with the given values
    and are 0 after them."""
    k, nu = np.zeros(201), np.zeros(201)
    k[:len(k_head)], nu[:len(nu_head)] = k_head, nu_head
    for module in (goc.verify, reference):
        monkeypatch.setattr(module, "k_eta", lambda scenario, eta, z: k[:z.size].copy())
        monkeypatch.setattr(module, "nu_eta", lambda scenario, eta, z: nu[:z.size].copy())


@pytest.mark.parametrize("nu_on_support", [1.0, 0.0], ids=["positive", "zero"])
def test_a_sweep_cell_takes_a_tie_from_the_constraint_active_stage(
        unif, table_unif_2, monkeypatch, nu_on_support):
    """Row 0 reaches acceptance 0.5 exactly with column 1 at w* = 1/3 (off the weight grid)
    and with column 2 at w = 0.5 (on it), both worth nu / 2. The constraint-active stage,
    which runs first, holds column 1; the weight sweep comes first in the search order, so
    its cell wins the tie. With nu = 0 every bound equals the best value, 0."""
    _synthetic_law(monkeypatch, (1.0, 0.25, 0.0), (nu_on_support,) * 3)
    z = np.linspace(*offset_domain(unif, 2.0), 201)
    res = two_point_oracle(unif, table_unif_2, 0.5, 201, 101)
    assert (res.oracle_value, res.witness) == two_point_oracle_where(
        unif, table_unif_2, 0.5, 201, 101)
    assert res.oracle_value == nu_on_support / 2.0
    assert res.witness != (float(z[0]), float(z[1]), 1.0 / 3.0)  # the constraint-active cell
    assert res.witness[2] in np.linspace(0.0, 1.0, 101)


def test_a_sweep_cell_on_the_floor_survives_the_bound(unif, table_unif_2, monkeypatch):
    """At w = 0.5 the mixture of k = 0.97 and 0.61 lands exactly on the feasibility floor and
    beats the constraint-active cell by a few ulps; without its slack the bound's column
    threshold, (floor - 0.5 * 0.97) / 0.5, rounds above 0.61 and would skip the row."""
    alpha = 0.790000000000001
    assert alpha - 1e-15 == 0.5 * 0.97 + 0.5 * 0.61
    _synthetic_law(monkeypatch, (0.97, 0.61), (0.1, 1.0))
    z = np.linspace(*offset_domain(unif, 2.0), 201)
    res = two_point_oracle(unif, table_unif_2, alpha, 201, 101)
    assert (res.oracle_value, res.witness) == two_point_oracle_where(
        unif, table_unif_2, alpha, 201, 101)
    assert res.witness == (float(z[0]), float(z[1]), 0.5)


def test_an_admitted_alpha_that_no_cell_reaches_is_infeasible(unif):
    # check_alpha admits 1 + 1e-12, but above 1 + 1e-15 the floor exceeds every acceptance
    table = build_envelope_table(unif, 3.0)
    with pytest.raises(ValueError, match="^infeasible: "):
        two_point_oracle(unif, table, 1.0000000000005, 201, 101)
    assert np.isfinite(two_point_oracle(unif, table, 1.0 + 1e-15, 201, 101).oracle_value)
