import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goc.envelope import build_envelope_table, k_eta, k_inverse, nu_eta, offset_domain
from goc.environment import envelope_witness_mixture
from goc.noise import truncated_gaussian_scenario, uniform_scenario

from conftest import rng
from reference import adaptive_simpson, concave_envelope, h_eta, k_inverse_bisect


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
                lambda x: (x + z) ** 2 * float(scenario.noise.pdf(x)),
                z - eta * scenario.delta,
                scenario.delta,
                tol=1e-12,
            )
            assert nu_eta(scenario, eta, z) == pytest.approx(direct, abs=1e-9)


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
    g = rng(3, 14)
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


# -- table construction -------------------------------------------------------


def test_table_endpoint_value(unif, table_unif_2):
    # envelope endpoint equals the raw value at full acceptance: c(1) = (4/3)/4
    assert table_unif_2.c_at(1.0) == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_table_invariants(unif, tgauss):
    for scenario in (unif, tgauss):
        for eta in (2.0, 3.0, 6.0):
            t = build_envelope_table(scenario, eta, 801)
            assert np.all(t.c_values >= 0.0)
            assert np.all(t.h_star_values >= t.h_values - 1e-12)
            hull_second = np.diff(t.h_star_values, 2)
            assert np.all(hull_second <= 1e-9)
            assert t.alpha_grid[0] >= t.alpha_min - 1e-15
            assert t.alpha_grid[-1] == 1.0


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
    assert np.all(t.h_star_values >= t.h_values - 1e-12)
    assert np.all(np.diff(t.h_star_values, 2) <= 1e-9)
    assert np.all(t.c_values >= 0.0)
    q = np.linspace(0.0, 1.0, grid_size)
    h = nu_eta(scenario, eta, k_inverse(scenario, eta, q))
    h[0] = 0.0
    keep = q >= alpha_min - 1e-15
    assert np.array_equal(t.alpha_grid, q[keep])
    assert np.array_equal(t.h_values, h[keep])
    assert np.array_equal(t.h_star_values, concave_envelope(q, h)[keep])


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
    with pytest.raises(ValueError):
        build_envelope_table(unif, 2.0, grid_size=50)
    with pytest.raises(ValueError):
        build_envelope_table(unif, 2.0, alpha_min=0.0)


def test_c_lookup_bounds(table_unif_2):
    with pytest.raises(ValueError):
        table_unif_2.c_at(1e-6)
    with pytest.raises(ValueError):
        table_unif_2.c_at(1.1)
