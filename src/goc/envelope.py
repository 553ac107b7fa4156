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

import numpy as np

from goc.noise import Scenario

DEFAULT_GRID_SIZE = 2001
DEFAULT_ALPHA_MIN = 1e-3

_DOMAIN_FUZZ = 1e-9


@dataclass(frozen=True)
class OffsetDomain:
    """Offset range ``[(eta-1) delta, (eta+1) delta]`` where acceptance transitions."""

    eta: float
    z_lo: float
    z_hi: float

    def __post_init__(self) -> None:
        if not self.z_lo < self.z_hi:
            raise ValueError("degenerate offset domain")


def offset_domain(scenario: Scenario, eta: float) -> OffsetDomain:
    _check_eta(eta)
    d = scenario.delta
    return OffsetDomain(eta, (eta - 1.0) * d, (eta + 1.0) * d)


def _check_eta(eta: float) -> None:
    if not (eta >= 2.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be >= 2, got {eta}")


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


def _upper_hull_indices(q: np.ndarray, v: np.ndarray) -> list[int]:
    """Indices of the upper convex hull of ``(q, v)`` by monotone chain; ``q`` ascending."""
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


@dataclass(frozen=True, eq=False)
class EnvelopeTable:
    """Sampled value curve for one threshold multiple.

    ``alpha_grid`` is the acceptance-level grid restricted to
    ``[alpha_min, 1]``; ``h_values`` / ``h_star_values`` the raw and
    enveloped squared-gap mass there; ``c_values`` the value curve
    ``h* / (4 alpha)``. ``slack`` is the reported additive gap term
    ``(eta^2 + 4)(eta + 2) delta^3 / big_m`` (a diagnostic, never
    subtracted from ``c``). Immutable after construction.
    """

    eta: float
    alpha_grid: np.ndarray
    h_values: np.ndarray
    h_star_values: np.ndarray
    c_values: np.ndarray
    hull_q: np.ndarray
    hull_values: np.ndarray
    alpha_min: float
    slack: float

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

    def c_at(self, alpha):
        """Value curve at ``alpha`` (linear interpolation between grid points)."""
        alpha = np.asarray(alpha, dtype=float)
        fuzz = 1e-12
        if np.any(alpha < self.alpha_grid[0] - fuzz) or np.any(alpha > self.alpha_grid[-1] + fuzz):
            raise ValueError(
                f"alpha outside [{self.alpha_grid[0]}, {self.alpha_grid[-1]}]"
            )
        out = np.interp(np.clip(alpha, self.alpha_grid[0], self.alpha_grid[-1]),
                        self.alpha_grid, self.c_values)
        return out if out.ndim else float(out)

    def h_star_at(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.interp(alpha, self.hull_q, self.hull_values)
        return out if out.ndim else float(out)


def envelope_slack(scenario: Scenario, eta: float) -> float:
    """Additive tightness gap of the value-curve approximation (diagnostic)."""
    return (eta * eta + 4.0) * (eta + 2.0) * scenario.delta ** 3 / scenario.big_m


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
    _check_eta(eta)
    if grid_size < 101:
        raise ValueError("grid_size must be >= 101")
    if not 0.0 < alpha_min < 1.0:
        raise ValueError("alpha_min must lie in (0, 1)")
    q = np.linspace(0.0, 1.0, grid_size)
    z = k_inverse(scenario, eta, q)
    h = nu_eta(scenario, eta, z)
    h[0] = 0.0  # exact by construction: empty integration range at q = 0
    hull = _upper_hull_indices(q, h)
    h_star = np.interp(q, q[hull], h[hull])
    keep = q >= alpha_min - 1e-15
    if not np.any(keep):
        raise ValueError("alpha_min leaves an empty grid")
    alpha = q[keep]
    return EnvelopeTable(
        eta=float(eta),
        alpha_grid=alpha.copy(),
        h_values=h[keep].copy(),
        h_star_values=h_star[keep].copy(),
        c_values=h_star[keep] / (4.0 * alpha),
        hull_q=q[hull].copy(),
        hull_values=h[hull].copy(),
        alpha_min=float(alpha[0]),
        slack=envelope_slack(scenario, eta),
    )
