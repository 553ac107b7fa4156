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
from typing import NamedTuple

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
        raise ValueError("degenerate offset domain")
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
    z = _check_domain(scenario, eta, z)
    m0, m1, m2 = scenario.noise.partial_moments(z - eta * scenario.delta)
    out = np.maximum(m2 + 2.0 * z * m1 + z * z * m0, 0.0)
    return out if out.ndim else float(out)


def k_inverse(scenario: Scenario, eta: float, q):
    """Offset ``z`` with ``k_eta(z) = q``, from the noise quantile.

    Exact because ``k(z) = 1 - F(z - eta delta)`` with ``F`` the noise CDF.
    """
    dom = offset_domain(scenario, eta)
    q = np.asarray(q, dtype=float)
    if np.any(q < -1e-12) or np.any(q > 1.0 + 1e-12):
        raise ValueError("q must lie in [0, 1]")
    z = eta * scenario.delta + scenario.noise.ppf(1.0 - np.clip(q, 0.0, 1.0))
    out = np.clip(z, dom.z_lo, dom.z_hi)
    return out if out.ndim else float(out)


def _upper_hull_indices(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Indices of the upper convex hull of ``(q, v)`` by monotone chain; ``q`` ascending.

    Nothing pops before the first consecutive triple ``(i-1, i, i+1)`` with
    ``cross <= 0``, so the stack is exactly ``0 .. i`` there: one numpy pass of
    the loop's own ``cross`` finds that triple, and the loop resumes at ``i+1``.
    """
    cross = (v[1:-1] - v[:-2]) * (q[2:] - q[:-2]) - (v[2:] - v[:-2]) * (q[1:-1] - q[:-2])
    bad = np.flatnonzero(cross <= 0.0)
    if bad.size == 0:
        return np.arange(q.size)
    idx = list(range(bad[0] + 2))
    for i in range(len(idx), q.size):
        while len(idx) >= 2:
            i0, i1 = idx[-2], idx[-1]
            # middle point on or below the chord i0 -> i: drop it
            cross = (v[i1] - v[i0]) * (q[i] - q[i0]) - (v[i] - v[i0]) * (q[i1] - q[i0])
            if cross <= 0.0:
                idx.pop()
            else:
                break
        idx.append(i)
    return np.array(idx)


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """Sampled value curve for one threshold multiple.

    ``alpha_grid`` is the acceptance-level grid restricted to
    ``[alpha_min, 1]``; ``h_values`` / ``h_star_values`` the raw and
    enveloped squared-gap mass there; ``c_values`` the value curve
    ``h* / (4 alpha)``. Immutable after construction.
    """

    eta: float
    alpha_grid: np.ndarray
    h_values: np.ndarray
    h_star_values: np.ndarray
    c_values: np.ndarray
    hull_q: np.ndarray
    hull_values: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.alpha_grid, self.h_values, self.h_star_values, self.c_values,
                  self.hull_q, self.hull_values):
            a.setflags(write=False)
        if np.any(self.h_star_values < self.h_values - 1e-12):
            raise ValueError("envelope fails to dominate sampled values")
        if np.any(self.c_values < 0.0):
            raise ValueError("value curve must be nonnegative")

    def __reduce__(self):
        # unpickle through the constructor, so copies are read-only and checked too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def h_star_at(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.interp(alpha, self.hull_q, self.hull_values)
        return out if out.ndim else float(out)


def build_envelope_table(
    scenario: Scenario,
    eta: float,
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> EnvelopeTable:
    """Sample ``h_eta`` on a uniform acceptance grid, envelope it, derive the value curve.

    The envelope is computed on the full ``[0, 1]`` grid (the origin anchors
    the hull) and the table keeps the part at or above ``alpha_min``, where
    the ``1/(4 alpha)`` factor is tame.
    """
    q, keep = acceptance_grid(grid_size, alpha_min)
    z = k_inverse(scenario, eta, q)
    h = nu_eta(scenario, eta, z)
    h[0] = 0.0  # exact by construction: empty integration range at q = 0
    hull = _upper_hull_indices(q, h)
    h_star = np.interp(q, q[hull], h[hull])
    alpha = q[keep]
    return EnvelopeTable(
        eta=float(eta),
        alpha_grid=alpha,
        h_values=h[keep],
        h_star_values=h_star[keep],
        c_values=h_star[keep] / (4.0 * alpha),
        hull_q=q[hull],
        hull_values=h[hull],
    )
