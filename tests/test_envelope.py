import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goc.envelope
from goc.envelope import (
    DEFAULT_ALPHA_MIN,
    _gap_mass,
    _offsets,
    _upper_hulls,
    acceptance_grid,
    build_envelope_table,
    build_envelope_tables,
    k_eta,
    k_inverse,
    nu_eta,
    offset_domain,
)
from goc.environment import envelope_witness_mixture, make_rng
from goc.noise import MAX_SIGMA_RATIO, truncated_gaussian_scenario, uniform_scenario

from reference import (
    adaptive_simpson,
    build_envelope_table_per_eta,
    concave_envelope,
    h_eta,
    k_inverse_bisect,
    noise_pdf,
    uniform_envelope_exact,
    uniform_h_exact,
    uniform_tangent_q,
    upper_hull_indices_chain,
    upper_hull_indices_resumed,
)


def chord_max_envelope(q, v):
    """O(n^2) oracle: max over all chords of sample points embracing each abscissa."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    out = v.copy()
    for i in range(q.size):
        left = np.flatnonzero(q <= q[i])
        right = np.flatnonzero(q >= q[i])
        for j in left:
            spans = right[q[right] > q[j]]
            if spans.size == 0:
                continue
            t = (q[i] - q[j]) / (q[spans] - q[j])
            out[i] = max(out[i], float(np.max(v[j] + t * (v[spans] - v[j]))))
    return out


# -- acceptance integral ------------------------------------------------------


def test_k_endpoints_uniform(unif):
    assert k_eta(unif, 2.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert k_eta(unif, 2.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert k_eta(unif, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("eta", [2.0, 2.5, 4.0])
def test_k_monotone_and_endpoint_identities(unif, tgauss, eta):
    for scenario in (unif, tgauss):
        dom = offset_domain(scenario, eta)
        z = np.linspace(dom.z_lo, dom.z_hi, 501)
        k = k_eta(scenario, eta, z)
        assert np.all(np.diff(k) <= 1e-12)
        assert k[0] == pytest.approx(1.0, abs=1e-9)
        assert k[-1] == pytest.approx(0.0, abs=1e-9)


def test_k_rejects_outside_domain(unif):
    with pytest.raises(ValueError):
        k_eta(unif, 2.0, 0.5)
    with pytest.raises(ValueError):
        nu_eta(unif, 2.0, 3.5)
    with pytest.raises(ValueError):
        k_eta(unif, 1.5, 2.0)  # eta below 2


# -- squared-gap integral -----------------------------------------------------


def test_nu_values_uniform(unif):
    assert nu_eta(unif, 2.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert nu_eta(unif, 2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_nu_closed_form_vs_quadrature(unif, tgauss):
    for scenario in (unif, tgauss):
        for eta, z in ((2.0, 2.0), (2.5, 1.7), (4.0, 4.9)):
            direct = adaptive_simpson(
                lambda x: (x + z) ** 2 * float(noise_pdf(scenario.noise, x)),
                z - eta * scenario.delta,
                scenario.delta,
                tol=1e-12,
            )
            assert nu_eta(scenario, eta, z) == pytest.approx(direct, abs=1e-9)


@given(
    delta=st.sampled_from([1e-2, 1.0, 37.0]),
    eta=st.floats(min_value=2.0, max_value=8.0),
    z_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_nu_agrees_with_quadrature_at_the_sigma_bound(delta, eta, z_frac):
    # the widest truncated Gaussian a config accepts: its closed-form moments
    # cancel like (sigma/delta)^2 and still match quadrature to 1e-9 delta^2
    # (worst seen 8e-11 delta^2 here; 9e-10 at twice the ratio, 1e-7 at 1e3)
    scenario = truncated_gaussian_scenario(MAX_SIGMA_RATIO * delta, delta=delta, big_m=1e4 * delta)
    dom = offset_domain(scenario, eta)
    z = dom.z_lo + z_frac * (dom.z_hi - dom.z_lo)
    direct = adaptive_simpson(
        lambda x: (x + z) ** 2 * float(noise_pdf(scenario.noise, x)),
        z - eta * delta,
        delta,
        tol=1e-13 * delta ** 2,
    )
    assert abs(nu_eta(scenario, eta, z) - direct) <= 1e-9 * delta ** 2


# -- inversion ----------------------------------------------------------------


def test_k_inverse_endpoints(unif):
    for inverse in (k_inverse, k_inverse_bisect):
        assert inverse(unif, 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)
        assert inverse(unif, 2.0, 0.0) == pytest.approx(3.0, abs=1e-9)
        assert inverse(unif, 2.0, 0.5) == pytest.approx(2.0, abs=1e-10)
        with pytest.raises(ValueError):
            inverse(unif, 2.0, 1.5)


@pytest.mark.parametrize("eta", [2.0, 3.0])
def test_k_inverse_roundtrip(unif, tgauss, eta):
    q = np.linspace(0.0, 1.0, 101)
    for scenario in (unif, tgauss):
        for inverse in (k_inverse, k_inverse_bisect):
            back = k_eta(scenario, eta, inverse(scenario, eta, q))
            assert np.max(np.abs(back - q)) <= 1e-10


def test_k_inverse_exact_agrees_with_bisection(unif, tgauss):
    q = np.linspace(0.0, 1.0, 101)
    for scenario in (unif, tgauss):
        for eta in (2.0, 3.5, 6.0):
            z_bis = k_inverse_bisect(scenario, eta, q)
            z_ppf = k_inverse(scenario, eta, q)
            assert np.max(np.abs(z_bis - z_ppf)) <= 1e-9


def test_h_values(unif):
    assert h_eta(unif, 2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert h_eta(unif, 2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-10)
    # composition at the midpoint: nu at the inverted offset z = 2
    assert h_eta(unif, 2.0, 0.5) == pytest.approx(nu_eta(unif, 2.0, 2.0), abs=1e-10)
    assert h_eta(unif, 2.0, 0.5) == pytest.approx(19.0 / 6.0, abs=1e-10)


# -- concave envelope ---------------------------------------------------------


def test_envelope_of_concave_function_is_identity():
    q = np.linspace(0.0, 1.0, 101)
    v = np.sqrt(q)
    assert np.max(np.abs(concave_envelope(q, v) - v)) <= 1e-12


def test_envelope_chord_over_dip():
    out = concave_envelope([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
    assert out[1] == pytest.approx(0.5, abs=1e-12)
    assert out[0] == 0.0 and out[2] == 1.0


def test_envelope_matches_chord_oracle():
    g = make_rng(3, 14)
    q = np.sort(g.random(201))
    q[0], q[-1] = 0.0, 1.0
    q = np.unique(q)
    v = np.where(q < 0.4, 3.0 * q, np.where(q < 0.7, 1.0 - q, 2.0 * (q - 0.7))) + 0.3 * g.random(q.size)
    fast = concave_envelope(q, v)
    slow = chord_max_envelope(q, v)
    assert np.max(np.abs(fast - slow)) <= 1e-10


def test_envelope_rejects_bad_input():
    with pytest.raises(ValueError):
        concave_envelope([0.0, 0.5, 0.5, 1.0], [0.0, 0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        concave_envelope([0.5, 0.0, 1.0], [0.0, 0.1, 0.2])
    with pytest.raises(ValueError):
        concave_envelope([0.0], [1.0])


@given(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=3, max_size=40))
@settings(max_examples=60, deadline=None)
def test_envelope_dominates_and_is_concave(values):
    q = np.linspace(0.0, 1.0, len(values))
    out = concave_envelope(q, values)
    assert np.all(out >= np.asarray(values) - 1e-12)
    second = np.diff(out, 2)
    assert np.all(second <= 1e-9)


# -- the library's hull -------------------------------------------------------


def integer_chain(gaps, slopes):
    """The origin, then one point per integer gap and slope: every cross product is exact."""
    gaps = np.asarray(gaps, dtype=float)
    q = np.cumsum(np.r_[0.0, gaps])
    v = np.cumsum(np.r_[0.0, gaps * np.asarray(slopes, dtype=float)])
    return q, v


@st.composite
def hull_inputs(draw):
    """Strictly ascending ``q`` with values of one of five shapes, and that shape."""
    shape = draw(st.sampled_from(["small", "concave", "runs", "dip", "random"]))
    n = draw(st.integers(0, 3) if shape == "small" else st.integers(3, 60))
    gaps = draw(st.lists(st.integers(1, 5), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    if shape == "concave":
        # strictly falling slopes: every consecutive cross is > 0
        slopes = draw(st.lists(st.integers(-99, 99), min_size=n - 1, max_size=n - 1, unique=True))
        return shape, *integer_chain(gaps, sorted(slopes, reverse=True))
    if shape == "runs":
        # few slope values, 0 among them: collinear and constant runs with cross == 0
        slopes = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        return shape, *integer_chain(gaps, slopes)
    if shape == "dip":
        # the first triple turns up, so only 0 and 1 are on the stack when the loop takes over
        rest = draw(st.lists(st.integers(-9, 9), min_size=n - 3, max_size=n - 3))
        return shape, *integer_chain(gaps, [draw(st.integers(-5, 0)), draw(st.integers(1, 5)), *rest])
    q = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)))
    v = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    return shape, q, v


@given(hull_inputs())
@settings(max_examples=300, deadline=None)
def test_hull_indices_match_the_chain(case):
    shape, q, v = case
    hull = _upper_hulls(q, v[None, :])[0]
    assert np.array_equal(hull, upper_hull_indices_chain(q, v))
    assert np.array_equal(hull, upper_hull_indices_resumed(q, v))
    if shape == "concave":
        assert np.array_equal(hull, np.arange(q.size))
    if shape == "dip":
        assert 1 not in hull
    # each row of a block is its own hull, whatever the rows beside it do
    rows = np.stack([v, np.zeros_like(v), -v, v])
    for row, row_hull in zip(rows, _upper_hulls(q, rows)):
        assert np.array_equal(row_hull, upper_hull_indices_chain(q, row))


def test_hull_resume_on_a_real_table(unif):
    # uniform noise is concave up to q = (4 + 9 eta) / 28 (0.786 at eta = 2), then a
    # chord to q = 1: the numpy pass stops at a triple from 1714 on, the loop takes the
    # rest. These etas are rows 0, 50, 100 and 132 of the default 801-eta sweep.
    q = np.linspace(0.0, 1.0, 2001)
    for eta, tangent in ((2.0, 1571), (2.25, 1732), (2.5, 1893), (2.66, 1996)):
        h = nu_eta(unif, eta, k_inverse(unif, eta, q))
        h[0] = 0.0
        hull = _upper_hulls(q, h[None, :])[0]
        assert np.array_equal(hull, np.r_[0:tangent + 1, 2000]), eta
        assert np.array_equal(hull, upper_hull_indices_chain(q, h)), eta
        t = build_envelope_table(unif, eta, 2001)
        assert np.array_equal(t.hull_q, q[hull]) and np.array_equal(t.hull_values, h[hull])
        ref = build_envelope_table_per_eta(unif, eta, 2001, DEFAULT_ALPHA_MIN)
        for name in TABLE_FIELDS:
            assert getattr(t, name).tobytes() == getattr(ref, name).tobytes(), (eta, name)


# -- table construction -------------------------------------------------------

TABLE_FIELDS = ("alpha_grid", "h_values", "c_values", "hull_q", "hull_values")


@pytest.mark.parametrize("sigma", [None, 0.1, 0.5, 3.0], ids=["uniform", "s0.1", "s0.5", "s3"])
@pytest.mark.parametrize("count", [1, 7, 9, 801])
def test_streamed_tables_equal_the_per_eta_build(sigma, count):
    # 7, 8 and 9 rows straddle the edge of an 8-row block at the default grid
    scenario = family(sigma)
    etas = np.linspace(2.0, 6.0, count)
    tables = list(build_envelope_tables(scenario, etas, 2001, DEFAULT_ALPHA_MIN))
    assert [t.eta for t in tables] == etas.tolist()
    q, keep = acceptance_grid(2001, DEFAULT_ALPHA_MIN)
    for eta, t in zip(etas, tables):
        ref = build_envelope_table_per_eta(scenario, eta, 2001, DEFAULT_ALPHA_MIN)
        for name in TABLE_FIELDS:
            assert getattr(t, name).tobytes() == getattr(ref, name).tobytes(), (eta, name)
        # h* derived on the kept grid: the same bytes as the envelope of the full grid, cut
        h_star = np.interp(q, ref.hull_q, ref.hull_values)[keep]
        assert t.h_star_at(t.alpha_grid).tobytes() == h_star.tobytes(), eta
    if sigma is None and count == 801:
        # the 133 etas below 8/3: the chain resumes after the numpy pass on these rows
        assert sum(t.hull_q.size < 2001 for t in tables) == 133


def _scaled_family(sigma):
    # a non-unit scenario; sigma = 3 stays within MAX_SIGMA_RATIO * 0.37
    if sigma is None:
        return uniform_scenario(delta=0.37, big_m=100.0)
    return truncated_gaussian_scenario(sigma=sigma, delta=0.37, big_m=100.0)


@pytest.mark.parametrize("sigma", [None, 0.5, 3.0], ids=["uniform", "s0.5", "s3"])
def test_streamed_tables_reuse_moments_bytewise(sigma):
    # etas over [2, 9.5] cross binades of eta * delta, so more offsets differ from their
    # block's first row; a 101-point grid packs 162 rows into a block (blocks 162, 162, 77)
    scenario = _scaled_family(sigma)
    etas = np.linspace(2.0, 9.5, 401)
    tables = build_envelope_tables(scenario, etas, 101, DEFAULT_ALPHA_MIN)
    for eta, t in zip(etas, tables):
        ref = build_envelope_table_per_eta(scenario, eta, 101, DEFAULT_ALPHA_MIN)
        for name in TABLE_FIELDS:
            assert getattr(t, name).tobytes() == getattr(ref, name).tobytes(), (eta, name)


@pytest.mark.parametrize("sigma", [None, 0.5, 3.0], ids=["uniform", "s0.5", "s3"])
def test_gap_mass_of_a_block_equals_its_rows(sigma):
    scenario = _scaled_family(sigma)
    q, _ = acceptance_grid(101, DEFAULT_ALPHA_MIN)
    col = np.linspace(2.0, 9.5, 162)[:, None]
    z = _offsets(scenario, col, scenario.noise.ppf(1.0 - q))
    t = z - col * scenario.delta
    assert 0 < np.count_nonzero(t != t[0]) < t.size  # some moments are reused, some are not
    rows = [_gap_mass(scenario, eta, row) for eta, row in zip(col[:, 0], z)]
    assert _gap_mass(scenario, col, z).tobytes() == np.array(rows).tobytes()


def test_tables_check_every_eta_before_any_work(unif):
    tables = build_envelope_tables(unif, [2.0, 3.0, 1.5], 2001)
    with pytest.raises(ValueError, match=r"^eta must be >= 2, got 1.5"):
        next(tables)


def test_degenerate_offset_domain_names_eta(unif):
    with pytest.raises(ValueError, match=r"^eta must be .*got 1e\+17$"):
        offset_domain(unif, 1e17)
    # below the degenerate range (eta - 1) and (eta + 1) still round apart
    offset_domain(unif, 2.0 ** 53)


def test_table_endpoint_value(unif, table_unif_2):
    # envelope endpoint equals the raw value at full acceptance: c(1) = (4/3)/4
    assert table_unif_2.alpha_grid[-1] == 1.0
    assert table_unif_2.c_values[-1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_table_invariants(unif, tgauss):
    for scenario in (unif, tgauss):
        for eta in (2.0, 3.0, 6.0):
            t = build_envelope_table(scenario, eta, 801)
            assert np.all(t.c_values >= 0.0)
            h_star = t.h_star_at(t.alpha_grid)
            assert np.all(h_star >= t.h_values - 1e-12)
            hull_second = np.diff(h_star, 2)
            assert np.all(hull_second <= 1e-9)
            assert t.alpha_grid[0] >= DEFAULT_ALPHA_MIN - 1e-15
            assert t.alpha_grid[-1] == 1.0


def test_a_hull_that_misses_a_vertex_fails_the_dominance_check(unif, monkeypatch):
    real = goc.envelope._upper_hulls

    def drop_a_vertex(q, v):  # an interior vertex of the concave run, well above alpha_min
        return [np.delete(hull, hull.size // 2) for hull in real(q, v)]

    monkeypatch.setattr(goc.envelope, "_upper_hulls", drop_a_vertex)
    with pytest.raises(ValueError, match="^envelope fails to dominate sampled values$"):
        build_envelope_table(unif, 2.0)


def test_tables_share_their_builds_arrays(unif):
    # uniform noise is concave on the grid from eta = 8/3 on; 2 and 2.5 lie below
    tables = list(build_envelope_tables(unif, [2.0, 2.5, 3.0, 6.0], 2001))
    grid, block = tables[2].hull_q, tables[0].h_values.base
    assert np.array_equal(grid, acceptance_grid(2001, DEFAULT_ALPHA_MIN)[0])
    assert block.shape == (4, 2001)
    for t in tables:
        assert not any(getattr(t, name).flags.writeable for name in TABLE_FIELDS), t.eta
        assert np.shares_memory(t.alpha_grid, grid) and t.h_values.base is block
        assert t.c_values.flags.owndata
    for t in tables[2:]:
        assert t.hull_q is grid and t.hull_values.base is block
        assert np.shares_memory(t.h_values, t.hull_values)
    assert not np.shares_memory(tables[2].hull_values, tables[3].hull_values)
    for t in tables[:2]:
        assert t.hull_q.flags.owndata and t.hull_values.flags.owndata


def test_table_pickle_round_trip(tgauss):
    table = build_envelope_table(tgauss, 2.5, 401)
    copy = pickle.loads(pickle.dumps(table))
    for f in dataclasses.fields(table):
        value = getattr(copy, f.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, f.name
            assert np.array_equal(value, getattr(table, f.name)), f.name
        else:
            assert value == getattr(table, f.name), f.name


# one random table; sigma None draws the uniform family
TABLE_CASES = dict(
    sigma=st.one_of(st.none(), st.floats(min_value=0.05, max_value=5.0)),
    eta=st.floats(min_value=2.0, max_value=8.0),
    grid_size=st.integers(min_value=101, max_value=1201),
    alpha_min=st.floats(min_value=1e-4, max_value=0.5),
)


def family(sigma):
    if sigma is None:
        return uniform_scenario(delta=1.0, big_m=1e4)
    return truncated_gaussian_scenario(sigma=sigma, delta=1.0, big_m=1e4)


@given(**TABLE_CASES)
@settings(max_examples=60, deadline=None)
def test_built_table_is_the_envelope(sigma, eta, grid_size, alpha_min):
    # the hull inside build_envelope_table, checked on the table it returns
    # against the independent hull in tests/reference.py
    scenario = family(sigma)
    t = build_envelope_table(scenario, eta, grid_size, alpha_min)
    h_star = t.h_star_at(t.alpha_grid)
    assert np.all(h_star >= t.h_values - 1e-12)
    assert np.all(np.diff(h_star, 2) <= 1e-9)
    assert np.all(t.c_values >= 0.0)
    q = np.linspace(0.0, 1.0, grid_size)
    h = nu_eta(scenario, eta, k_inverse(scenario, eta, q))
    h[0] = 0.0
    keep = q >= alpha_min - 1e-15
    assert np.array_equal(t.alpha_grid, q[keep])
    assert np.array_equal(t.h_values, h[keep])
    assert np.array_equal(h_star, concave_envelope(q, h)[keep])


@given(
    delta=st.sampled_from([0.25, 1.0, 3.0]),
    # half the draws below 8/3, where the envelope leaves h and the hull's loop resumes
    eta=st.one_of(st.floats(min_value=2.0, max_value=8.0 / 3.0), st.floats(min_value=2.0, max_value=8.0)),
    grid_size=st.integers(min_value=101, max_value=2001),
    alpha=st.floats(min_value=1e-3, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_uniform_table_matches_the_exact_envelope(delta, eta, grid_size, alpha):
    scenario = uniform_scenario(delta=delta, big_m=1e4)
    t = build_envelope_table(scenario, eta, grid_size)
    step = 1.0 / (grid_size - 1)
    assert np.allclose(t.h_values, uniform_h_exact(delta, eta, t.alpha_grid), rtol=1e-12, atol=0.0)
    c_exact = uniform_envelope_exact(delta, eta, t.alpha_grid) / (4.0 * t.alpha_grid)
    # up to the tangent point q_T every grid point is on the hull and only rounding
    # separates the curves. Past it the hull is the chord from the last grid point
    # q_j <= q_T to q = 1, which falls short of the tangent by at most
    # |h''| (q_T - q_j)^2 / 2, with h'' = 4 delta^2 (14 q - 6 - 3 eta) on [q_T - step, q_T]
    qt = uniform_tangent_q(eta)
    chord_gap = 0.0 if qt == 1.0 else (8.0 - 3.0 * eta + 28.0 * step) * delta ** 2 * step ** 2
    bound = chord_gap / (4.0 * t.alpha_grid) + 1e-12 * c_exact
    assert np.all(np.abs(t.c_values - c_exact) <= bound)
    # between grid points the table interpolates linearly; c = h / (4q) has |c''| = 14 delta^2 / 3
    # where h is a cubic through 0, and at most 5.94 delta^2 on the tangent (largest at eta = 2)
    a = float(np.clip(alpha, t.alpha_grid[0], 1.0))
    c_a = uniform_envelope_exact(delta, eta, a) / (4.0 * a)
    c_interp = np.interp(a, t.alpha_grid, t.c_values)
    assert abs(c_interp - c_a) <= np.max(bound) + 6.0 * delta ** 2 * step ** 2 / 8.0


@given(**TABLE_CASES, alpha_frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_value_curve_identities_for_every_family(sigma, eta, grid_size, alpha_min, alpha_frac):
    scenario = family(sigma)
    # criterion 7's endpoint identities, away from the hand-picked cases
    dom = offset_domain(scenario, eta)
    assert k_eta(scenario, eta, dom.z_lo) == pytest.approx(1.0, abs=1e-9)
    assert k_eta(scenario, eta, dom.z_hi) == pytest.approx(0.0, abs=1e-9)
    assert nu_eta(scenario, eta, dom.z_hi) == pytest.approx(0.0, abs=1e-9)
    # the witness mixture attains the value curve exactly: acceptance alpha,
    # conditional MSE h*(alpha) / (4 alpha)
    t = build_envelope_table(scenario, eta, grid_size, alpha_min)
    alpha = float(t.alpha_grid[0] + alpha_frac * (1.0 - t.alpha_grid[0]))
    adv = envelope_witness_mixture(scenario, t, alpha)
    z, w = np.array(adv.offsets), np.array(adv.weights)
    acceptance = float(w @ k_eta(scenario, eta, z))
    assert acceptance == pytest.approx(alpha, abs=1e-12)
    mse = float(w @ nu_eta(scenario, eta, z)) / (4.0 * alpha)
    assert mse == pytest.approx(t.h_star_at(alpha) / (4.0 * alpha), rel=1e-12)


def test_table_rejects_bad_grid(unif):
    with pytest.raises(ValueError, match=r"^envelope\.grid: "):
        build_envelope_table(unif, 2.0, grid_size=50)
    with pytest.raises(ValueError, match=r"^envelope\.alpha_min: "):
        build_envelope_table(unif, 2.0, alpha_min=0.0)


def test_table_needs_two_kept_points():
    # alpha_min = 0.995 keeps only q = 1 of 101 points, and a one-point table has no slope:
    # estimate_lipschitz on that grid failed inside numpy
    with pytest.raises(ValueError, match=r"^envelope\.alpha_min: .*envelope\.grid = 101 "):
        build_envelope_table(uniform_scenario(), 2.5, 101, 0.995)

