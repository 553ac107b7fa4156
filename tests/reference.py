"""Independent reference implementations the tests compare the library against.

``adaptive_simpson`` cross-checks the closed-form integrals by quadrature;
``k_inverse_bisect`` and ``h_eta`` invert the acceptance integral by
bisection on ``k_eta`` alone, with no use of the noise quantile that the
library's ``k_inverse`` relies on. ``concave_envelope`` is a hull of its own,
sharing no code with the one inside ``build_envelope_table``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from goc.envelope import k_eta, nu_eta, offset_domain

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
