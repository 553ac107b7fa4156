"""Independent reference implementations the tests compare the library against.

``adaptive_simpson`` cross-checks the closed-form integrals by quadrature,
integrating the noise law's density ``noise_pdf``; ``noise_cdf`` is its
distribution function, which the quantile is checked against;
``k_inverse_bisect`` and ``h_eta`` invert the acceptance integral by
bisection on ``k_eta`` alone, with no use of the noise quantile that the
library's ``k_inverse`` relies on. ``concave_envelope`` is a hull of its own,
sharing no code with the one inside ``build_envelope_table``;
``upper_hull_indices_chain`` is the plain monotone chain that the library's
hull must reproduce index for index. ``build_envelope_table_per_eta`` is the
one-table-at-a-time build, with its hull ``upper_hull_indices_resumed`` on
numpy scalars, that every table ``build_envelope_tables`` streams must equal
byte for byte. ``uniform_h_exact`` and
``uniform_envelope_exact`` are the uniform family's value curve in closed form.
``csv_text_per_cell`` is the CSV text ``write_csv`` must write byte for byte,
one ``_fmt`` call per cell; ``two_point_oracle_where`` is the oracle's sweep
over the whole offset-pair grid at once, with a fresh ``np.where`` array per
weight, which the library's buffered sweep over the blocks of grid rows its
bound keeps must match bit for bit. ``direct_adversary_optimum`` is the
adversary's own best two-offset mixture, searched with no value curve.
``ell_by_separate_pass`` is ``ell`` from a pass of its own over fresh tables,
which the slopes that ``prepare_instance`` takes from its sweep must match.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from goc.envelope import (
    EnvelopeTable,
    acceptance_grid,
    build_envelope_tables,
    k_eta,
    k_inverse,
    nu_eta,
    offset_domain,
)
from goc.experiments import _fmt
from goc.noise import UNIFORM, _big_phi, _phi
from goc.utility import q_ad, q_dc

_BISECT_ITERS = 80


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, abs(b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, eps, whole, m, fm, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    return _recurse(f, a, fa, m, fm, eps / 2.0, left, lm, flm, depth - 1) + _recurse(
        f, m, fm, b, fb, eps / 2.0, right, rm, frm, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Standard adaptive Simpson with Richardson correction; interval halving
    stops at ``max_depth`` to bound recursion on pathological integrands.
    """
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth)
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _recurse(f, a, fa, b, fb, tol, whole, m, fm, max_depth)


def noise_pdf(model, x):
    """Density of the honest-noise law ``model``; exactly zero outside ``[-delta, delta]``."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) <= model.delta
    if model.kind == UNIFORM:
        out = np.where(inside, 1.0 / (2.0 * model.delta), 0.0)
    else:
        out = np.where(inside, _phi(x / model.sigma) / (model.sigma * model._norm), 0.0)
    return out if out.ndim else float(out)


def noise_cdf(model, x):
    """Distribution function of the honest-noise law ``model``; 0 at ``-delta``, 1 at ``delta``."""
    x = np.asarray(x, dtype=float)
    if model.kind == UNIFORM:
        out = np.clip((x + model.delta) / (2.0 * model.delta), 0.0, 1.0)
    else:
        xc = np.clip(x, -model.delta, model.delta)
        lo = _big_phi(-model.delta / model.sigma)
        out = np.clip((_big_phi(xc / model.sigma) - lo) / model._norm, 0.0, 1.0)
    return out if out.ndim else float(out)


def k_inverse_bisect(scenario, eta: float, q):
    """Offset ``z`` with ``k_eta(z) = q``, by bisection on the monotone ``k_eta``."""
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12) or np.any(q > 1.0 + 1e-12):
        raise ValueError("q must lie in [0, 1]")
    q = np.clip(q, 0.0, 1.0)
    dom = offset_domain(scenario, eta)
    lo = np.full_like(q, dom.z_lo, dtype=float)
    hi = np.full_like(q, dom.z_hi, dtype=float)
    # k is nonincreasing in z: k(lo) = 1 >= q >= 0 = k(hi)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        km = k_eta(scenario, eta, mid)
        too_high = km > q
        lo = np.where(too_high, mid, lo)
        hi = np.where(too_high, hi, mid)
    out = 0.5 * (lo + hi)
    return out if out.ndim else float(out)


def h_eta(scenario, eta: float, q):
    """Squared-gap mass as a function of acceptance level: ``nu_eta`` after inverting ``k_eta``."""
    return nu_eta(scenario, eta, k_inverse_bisect(scenario, eta, q))


def concave_envelope(q, values) -> np.ndarray:
    """Pointwise-smallest concave function dominating the sampled points.

    The upper convex hull of ``(q, values)`` by Andrew's monotone chain,
    evaluated back at each ``q``. Needs at least two strictly ascending
    abscissae.
    """
    q = np.asarray(q, dtype=float)
    v = np.asarray(values, dtype=float)
    if q.ndim != 1 or q.shape != v.shape or q.size < 2:
        raise ValueError("need >= 2 points with matching shapes")
    if np.any(np.diff(q) <= 0.0):
        raise ValueError("q must be strictly ascending without duplicates")
    upper: list[tuple[float, float]] = []
    for p in zip(q.tolist(), v.tolist()):
        # pop the last vertex while it does not turn clockwise (lies on or under the chord)
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) >= 0.0:
            upper.pop()
        upper.append(p)
    hq, hv = zip(*upper)
    return np.interp(q, hq, hv)


def _cross(o, a, b) -> float:
    """z-component of ``(a - o) x (b - o)``: positive for a counter-clockwise turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def upper_hull_indices_chain(q, v) -> list[int]:
    """Indices of the upper convex hull of ``(q, v)`` by monotone chain; ``q`` ascending.

    The loop ``goc.envelope._upper_hull_indices`` started from, kept whole:
    it pops a point on or below the chord (``cross <= 0``) from every stack.
    """
    idx: list[int] = []
    for i in range(q.size):
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            # middle point on or below the chord i0 -> i: drop it
            cross = (v[i1] - v[i0]) * (q[i] - q[i0]) - (v[i] - v[i0]) * (q[i1] - q[i0])
            if cross <= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
    return idx


def upper_hull_indices_resumed(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``upper_hull_indices_chain`` resumed after one numpy pass of its ``cross``, on numpy scalars."""
    cross = (v[1:-1] - v[:-2]) * (q[2:] - q[:-2]) - (v[2:] - v[:-2]) * (q[1:-1] - q[:-2])
    bad = np.flatnonzero(cross <= 0.0)
    if bad.size == 0:
        return np.arange(q.size)
    idx = list(range(bad[0] + 2))
    for i in range(len(idx), q.size):
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            cross = (v[i1] - v[i0]) * (q[i] - q[i0]) - (v[i] - v[i0]) * (q[i1] - q[i0])
            if cross <= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
    return np.array(idx)


def build_envelope_table_per_eta(scenario, eta: float, grid_size: int, alpha_min: float):
    """One table from ``k_inverse`` and ``nu_eta`` on the 1-D grid, enveloped by its own hull."""
    q, keep = acceptance_grid(grid_size, alpha_min)
    h = nu_eta(scenario, eta, k_inverse(scenario, eta, q))
    h[0] = 0.0
    hull = upper_hull_indices_resumed(q, h)
    h_star = np.interp(q, q[hull], h[hull])
    alpha = q[keep]
    return EnvelopeTable(eta=float(eta), alpha_grid=alpha, h_values=h[keep],
                         c_values=h_star[keep] / (4.0 * alpha), hull_q=q[hull], hull_values=h[hull])


def uniform_h_exact(delta: float, eta: float, q):
    """``h_eta(q)`` for uniform noise on ``[-delta, delta]``: a cubic in ``q``.

    With ``t = delta (1 - 2q)`` the noise level that ``q`` inverts to,
    ``h = (a^3 - b^3) / (6 delta)`` with ``a = delta (1 + eta) + t`` and
    ``b = 2t + eta delta``. Since ``a - b = 2 delta q``, this is evaluated as
    ``q (a^2 + a b + b^2) / 3``: a sum of nonnegative terms, where the
    difference of cubes loses up to ``a^3 / h`` ulps to cancellation at small ``q``.
    """
    q = np.asarray(q, dtype=float)
    t = delta * (1.0 - 2.0 * q)
    a, b = delta * (1.0 + eta) + t, 2.0 * t + eta * delta
    return q * (a * a + a * b + b * b) / 3.0


def uniform_tangent_q(eta: float) -> float:
    """Where the uniform envelope leaves ``h``: the tangent point seen from ``(1, h(1))``.

    ``h''(q) = 4 delta^2 (14 q - 6 - 3 eta)`` and ``h''' = 56 delta^2``, so
    ``h(1) - h(q) - h'(q) (1 - q) = (1 - q)^2 (h''(q) / 2 + h''' (1 - q) / 6)``,
    which vanishes at ``q = (4 + 9 eta) / 28``. From ``eta = 8/3`` on, ``h`` is
    concave on all of ``[0, 1]`` and the envelope is ``h`` itself.
    """
    return min(1.0, (4.0 + 9.0 * eta) / 28.0)


def uniform_envelope_exact(delta: float, eta: float, q):
    """Concave envelope of the uniform ``h_eta``: ``h`` up to the tangent point, then the tangent."""
    q = np.asarray(q, dtype=float)
    qt = uniform_tangent_q(eta)
    if qt == 1.0:
        return uniform_h_exact(delta, eta, q)
    ht, h1 = uniform_h_exact(delta, eta, qt), uniform_h_exact(delta, eta, 1.0)
    tangent = ht + (h1 - ht) * (q - qt) / (1.0 - qt)
    return np.where(q <= qt, uniform_h_exact(delta, eta, q), tangent)


def csv_text_per_cell(
    header: Sequence[str], rows: Iterable[Sequence], config_hash: str, seed: int
) -> str:
    """The file ``write_csv`` writes, built row by row with one ``_fmt`` call per cell."""
    lines = [f"# config_hash={config_hash} seed={seed}", ",".join(header)]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return "".join(line + "\n" for line in lines)


def two_point_oracle_where(scenario, table, alpha: float, z_grid_size: int, w_grid_size: int):
    """``(oracle_value, witness)`` of ``two_point_oracle``, from full-grid arrays allocated
    afresh for every weight."""
    eta = table.eta
    dom = offset_domain(scenario, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    k1, k2, n1, n2 = kz[:, None], kz[None, :], nz[:, None], nz[None, :]
    best_val, best_witness = -np.inf, (float(z[0]), float(z[0]), 1.0)

    def consider(values, w_of_pair):
        nonlocal best_val, best_witness
        flat = int(np.argmax(values))
        if float(values.flat[flat]) > best_val:
            i, j = np.unravel_index(flat, values.shape)
            w = w_of_pair[i, j] if isinstance(w_of_pair, np.ndarray) else w_of_pair
            best_val = float(values.flat[flat])
            best_witness = (float(z[i]), float(z[j]), float(w))

    for w in np.linspace(0.0, 1.0, w_grid_size):
        pa = w * k1 + (1.0 - w) * k2
        consider(np.where(pa >= alpha - 1e-15,
                          (w * n1 + (1.0 - w) * n2) / np.maximum(4.0 * pa, 1e-300), -np.inf), w)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_star = (alpha - k2) / (k1 - k2)
    feasible = np.isfinite(w_star) & (w_star >= 0.0) & (w_star <= 1.0)
    w_safe = np.where(feasible, w_star, 0.0)
    consider(np.where(feasible, (w_safe * n1 + (1.0 - w_safe) * n2) / (4.0 * alpha), -np.inf),
             w_safe)
    return best_val, best_witness


def direct_adversary_optimum(scenario, eta: float, spec, alpha_min: float, z_grid_size: int,
                             w_grid_size: int):
    """``(q_ad, pa, mse)`` at the adversary's best two-offset mixture with ``pa >= alpha_min``.

    Searches mixtures ``(z1, z2, w)`` directly: every offset pair of the grid
    with every weight of the grid, plus the weight that puts each pair's
    acceptance exactly at ``alpha_min``. Only ``k_eta`` and ``nu_eta`` enter;
    no value curve, envelope or best response does.
    """
    dom = offset_domain(scenario, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    k1, k2, n1, n2 = kz[:, None], kz[None, :], nz[:, None], nz[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w_active = (alpha_min - k2) / (k1 - k2)
    w_active = np.where(np.isfinite(w_active), np.clip(w_active, 0.0, 1.0), 0.0)
    best = (-np.inf, np.nan, np.nan)
    for w in [*np.linspace(0.0, 1.0, w_grid_size), w_active]:
        pa = w * k1 + (1.0 - w) * k2
        mse = (w * n1 + (1.0 - w) * n2) / np.maximum(4.0 * pa, 1e-300)
        q = np.where(pa >= alpha_min, q_ad(spec, mse, pa), -np.inf)
        flat = np.unravel_index(int(np.argmax(q)), q.shape)
        if q[flat] > best[0]:
            best = (float(q[flat]), float(pa[flat]), float(mse[flat]))
    return best


def ell_by_separate_pass(scenario, spec, a: float, b: float, points: int, grid_size: int,
                         alpha_min: float) -> float:
    """``ell`` from its own pass of ``points`` fresh tables over ``linspace(a, b, points)``:
    the largest segment slope of alpha -> q_dc(c(alpha), alpha), at least 1e-9."""
    ell = 0.0
    for table in build_envelope_tables(scenario, np.linspace(a, b, points), grid_size,
                                       alpha_min):
        u_alpha = q_dc(spec, table.c_values, table.alpha_grid)
        slopes = np.abs(np.diff(u_alpha) / np.diff(table.alpha_grid))
        ell = max(ell, float(slopes.max()))
    return max(ell, 1e-9)
