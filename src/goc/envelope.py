"""Acceptance/error integrals and the adversary's value curve.

For a committed threshold multiple ``eta`` and an offset ``z`` placed by
the adversary, ``k_eta(z)`` is the probability the pair is accepted and
``nu_eta(z)`` the accepted mass of the squared midpoint error (times 4).
Reparametrizing by acceptance level ``q`` gives ``h_eta(q)``; its concave
envelope ``h*`` yields the value curve ``c_eta(alpha) = h*(alpha) / (4 alpha)``,
the largest conditional MSE the adversary can force while keeping the
acceptance probability at least ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from goc.noise import Scenario

DEFAULT_GRID_SIZE = 2001
DEFAULT_ALPHA_MIN = 1e-3

_DOMAIN_FUZZ = 1e-9


class OffsetDomain(NamedTuple):
    """Offset range ``[(eta-1) delta, (eta+1) delta]`` where acceptance transitions."""

    z_lo: float
    z_hi: float


def offset_domain(scenario: Scenario, eta: float) -> OffsetDomain:
    check_eta(eta)
    z_lo, z_hi = (eta - 1.0) * scenario.delta, (eta + 1.0) * scenario.delta
    if not z_lo < z_hi:
        raise ValueError(f"eta must be small enough that (eta - 1) * delta < (eta + 1) * delta, "
                         f"got {eta}")
    return OffsetDomain(z_lo, z_hi)


def check_eta(eta: float) -> None:
    """Reject a threshold multiple unless it is finite and at least 2."""
    if not (eta >= 2.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be >= 2, got {eta}")


def check_threshold_range(a: float, b: float) -> None:
    """Reject a learner threshold range unless ``a`` passes ``check_eta`` and ``a < b``."""
    try:
        check_eta(a)
    except ValueError as exc:
        raise ValueError(f"learner.a: {exc}") from None
    if not a < b:
        raise ValueError("learner.b: must exceed learner.a")


def acceptance_grid(grid_size: int, alpha_min: float) -> tuple[np.ndarray, np.ndarray]:
    """A table's acceptance grid on [0, 1] and the mask of the (at least two) points it keeps."""
    if grid_size < 101:
        raise ValueError(f"envelope.grid: must be >= 101, got {grid_size!r}")
    if not 0.0 < alpha_min < 1.0:
        raise ValueError("envelope.alpha_min: must lie in (0, 1)")
    q = np.linspace(0.0, 1.0, grid_size)
    keep = q >= alpha_min - 1e-15
    if np.count_nonzero(keep) < 2:
        raise ValueError(f"envelope.alpha_min: must leave at least two of the envelope.grid "
                         f"= {grid_size} points at or above it, got {alpha_min!r}")
    return q, keep


def _check_domain(scenario: Scenario, eta: float, z) -> np.ndarray:
    dom = offset_domain(scenario, eta)
    z = np.asarray(z, dtype=float)
    fuzz = _DOMAIN_FUZZ * max(1.0, abs(dom.z_hi))
    if np.any(z < dom.z_lo - fuzz) or np.any(z > dom.z_hi + fuzz):
        raise ValueError(
            f"offset outside [{dom.z_lo}, {dom.z_hi}] for eta={eta}"
        )
    return np.clip(z, dom.z_lo, dom.z_hi)


def k_eta(scenario: Scenario, eta: float, z):
    """Acceptance probability of a point offset ``z``: mass of noise above ``z - eta*delta``."""
    z = _check_domain(scenario, eta, z)
    m0, _, _ = scenario.noise.partial_moments(z - eta * scenario.delta)
    out = np.clip(m0, 0.0, 1.0)
    return out if out.ndim else float(out)


def nu_eta(scenario: Scenario, eta: float, z):
    """Accepted squared-gap mass of a point offset: integral of (x+z)^2 f(x) above ``z - eta*delta``.

    Expanded into partial moments of the noise law, all closed-form for the
    built-in families; the tests cross-check it by adaptive quadrature.
    """
    out = _gap_mass(scenario, eta, _check_domain(scenario, eta, z))
    return out if out.ndim else float(out)


def _gap_mass(scenario: Scenario, eta, z: np.ndarray) -> np.ndarray:
    # eta is a scalar or a column of thresholds, one per row of z
    d = scenario.delta
    t = np.clip(z - eta * d, -d, d)
    if t.ndim < 2 or t.shape[0] < 2:
        m0, m1, m2 = scenario.noise.partial_moments(t)
    else:
        # a column of t = fl(eta d + p) - eta d repeats a few values (p rounded near eta d + p);
        # partial_moments works element by element, so the first row's moments, copied, and
        # those of the entries that differ from it are the bytes of one call on the block
        new = t != t[0]
        m0, m1, m2 = (np.broadcast_to(m, t.shape).copy()
                      for m in scenario.noise.partial_moments(t[0]))
        for m, vals in zip((m0, m1, m2), scenario.noise.partial_moments(t[new])):
            m[new] = vals
    return np.maximum(m2 + 2.0 * z * m1 + z * z * m0, 0.0)


def k_inverse(scenario: Scenario, eta: float, q):
    """Offset ``z`` with ``k_eta(z) = q``, from the noise quantile.

    Exact because ``k(z) = 1 - F(z - eta delta)`` with ``F`` the noise CDF.
    """
    offset_domain(scenario, eta)
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12) or np.any(q > 1.0 + 1e-12):
        raise ValueError("q must lie in [0, 1]")
    out = _offsets(scenario, eta, scenario.noise.ppf(1.0 - np.clip(q, 0.0, 1.0)))
    return out if out.ndim else float(out)


def _offsets(scenario: Scenario, eta, p) -> np.ndarray:
    # eta delta + F^-1(1 - q) clipped to the offset domain; eta a scalar or a column
    d = scenario.delta
    return np.clip(eta * d + p, (eta - 1.0) * d, (eta + 1.0) * d)


def _upper_hulls(q: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """Upper convex hull indices of ``(q, row)`` for each row of ``v``, by monotone chain.

    ``q`` is ascending. Nothing pops before a row's first consecutive triple
    ``(i-1, i, i+1)`` with ``cross <= 0``, so the stack is exactly ``0 .. i``
    there: one numpy pass of the chain's own ``cross`` over every row finds
    that triple, and the chain resumes at ``i+1`` on Python floats, with the
    same expressions in the same order.
    """
    dv1, dv2 = v[:, 1:-1] - v[:, :-2], v[:, 2:] - v[:, :-2]
    cross = dv1 * (q[2:] - q[:-2]) - dv2 * (q[1:-1] - q[:-2])
    bad = cross <= 0.0
    hulls = [np.arange(q.size)] * v.shape[0]
    qs = q.tolist()
    for r in np.flatnonzero(bad.any(axis=1)).tolist():
        vs = v[r].tolist()
        idx = list(range(int(bad[r].argmax()) + 2))
        for i in range(len(idx), len(qs)):
            qi, vi = qs[i], vs[i]
            while len(idx) >= 2:
                i0, i1 = idx[-2], idx[-1]
                q0, v0 = qs[i0], vs[i0]
                # middle point on or below the chord i0 -> i: drop it
                if (vs[i1] - v0) * (qi - q0) - (vi - v0) * (qs[i1] - q0) <= 0.0:
                    idx.pop()
                else:
                    break
            idx.append(i)
        hulls[r] = np.array(idx)
    return hulls


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """Sampled value curve for one threshold multiple.

    ``alpha_grid`` is the acceptance-level grid restricted to ``[alpha_min, 1]``;
    ``h_values`` the raw squared-gap mass there; ``c_values`` the value curve
    ``h* / (4 alpha)``; ``hull_q`` / ``hull_values`` the vertices of the envelope
    ``h*``, which ``h_star_at`` interpolates. Immutable after construction.

    A table from ``build_envelope_tables`` owns only ``c_values``: ``alpha_grid``
    and ``h_values`` are read-only views of its build's grid and of its row of
    the build's block of rows, and when ``h`` is concave on the grid ``hull_q``
    and ``hull_values`` are that grid and row themselves. The views keep the
    whole block alive.
    """

    eta: float
    alpha_grid: np.ndarray
    h_values: np.ndarray
    c_values: np.ndarray
    hull_q: np.ndarray
    hull_values: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.alpha_grid, self.h_values, self.c_values, self.hull_q, self.hull_values):
            a.setflags(write=False)
        if not np.all(self.c_values >= 0.0):  # NaN fails this too
            raise ValueError("value curve must be nonnegative, not NaN")

    def __reduce__(self):
        # unpickle through the constructor, so copies are read-only and checked too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def h_star_at(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.interp(alpha, self.hull_q, self.hull_values)
        return out if out.ndim else float(out)


# grid points per block of rows that build_envelope_tables evaluates at once: 8 rows at
# the default grid. Larger blocks raise peak memory and gain little.
_BLOCK_POINTS = 1 << 14


def build_envelope_tables(
    scenario: Scenario,
    etas: Iterable[float],
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> Iterator[EnvelopeTable]:
    """Sample ``h_eta`` on a uniform acceptance grid, envelope it, derive the value curve.

    Yields one table per threshold of ``etas``, in order, after checking them
    all. The envelope is computed on the full ``[0, 1]`` grid (the origin
    anchors the hull) and each table keeps the part at or above ``alpha_min``,
    where the ``1/(4 alpha)`` factor is tame. The quantile term of the offsets
    does not depend on eta, so it is evaluated once; the rest runs on blocks
    of rows, and the tables stream out so that a long sweep holds one block.
    """
    etas = [float(eta) for eta in etas]
    for eta in etas:
        offset_domain(scenario, eta)
    q, keep = acceptance_grid(grid_size, alpha_min)
    q.setflags(write=False)  # the tables share it, and each block, as views
    p = scenario.noise.ppf(1.0 - q)
    j0 = int(keep.argmax())  # keep is a suffix of the ascending grid
    alpha = q[j0:]  # every table shares this view
    rows = max(1, _BLOCK_POINTS // grid_size)
    for start in range(0, len(etas), rows):
        block = etas[start:start + rows]
        col = np.array(block)[:, None]
        h = _gap_mass(scenario, col, _offsets(scenario, col, p))
        h[:, 0] = 0.0  # exact by construction: empty integration range at q = 0
        h.setflags(write=False)
        for eta, row, hull in zip(block, h, _upper_hulls(q, h)):
            h_kept = row[j0:]
            if hull.size == q.size:
                # no non-concave triple, since each one pops a point: h* = h on the grid,
                # which is what interpolating h through its own nodes would return
                hull_q, hull_values, h_star = q, row, h_kept
            else:
                hull_q, hull_values = q[hull], row[hull]
                h_star = np.interp(alpha, hull_q, hull_values)
                if np.any(h_star < h_kept - 1e-12):
                    raise ValueError("envelope fails to dominate sampled values")
            yield EnvelopeTable(
                eta=eta,
                alpha_grid=alpha,
                h_values=h_kept,
                c_values=h_star / (4.0 * alpha),
                hull_q=hull_q,
                hull_values=hull_values,
            )


def build_envelope_table(
    scenario: Scenario,
    eta: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> EnvelopeTable:
    """The table of one threshold: a one-row ``build_envelope_tables``."""
    return next(build_envelope_tables(scenario, (eta,), grid_size, alpha_min))
