"""Honest-node noise models and global scenario constants.

The honest report is the hidden value plus symmetric noise that is
bounded by ``delta`` and has a strictly increasing CDF on its support.
Two families are built in: uniform (every downstream quantity then has a
closed form usable as a cross-check) and a zero-mean truncated Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIFORM = "uniform"
TRUNCATED_GAUSSIAN = "truncated_gaussian"

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# delta / big_m must stay below this for the midpoint estimator and the
# value-curve approximation to be trustworthy.
MAX_DELTA_RATIO = 1e-2
# sigma / delta above which the truncated-Gaussian partial moments lose accuracy to cancellation
MAX_SIGMA_RATIO = 100.0


def _phi(y: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * np.square(y)) / _SQRT2PI


def _big_phi(y: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # only truncated-Gaussian noise loads scipy.special

    return 0.5 * (1.0 + erf(y / _SQRT2))


@dataclass(frozen=True)
class HonestNoiseModel:
    """Symmetric, bounded noise law of the honest node.

    ``kind`` is ``"uniform"`` or ``"truncated_gaussian"``; the latter
    needs ``sigma`` (scale of the parent Gaussian before truncation to
    ``[-delta, delta]``). The normalization constant of the truncated
    family is computed once at construction.
    """

    kind: str
    delta: float
    sigma: float | None = None
    _norm: float = field(init=False, repr=False, compare=False, default=1.0)

    def __post_init__(self) -> None:
        if self.kind not in (UNIFORM, TRUNCATED_GAUSSIAN):
            raise ValueError(f"noise.kind: unknown kind {self.kind!r}")
        if self.kind == UNIFORM:
            if self.sigma is not None:
                raise ValueError("noise.sigma: only meaningful for truncated_gaussian")
        elif self.sigma is None or not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("noise.sigma: truncated_gaussian requires sigma > 0")
        tiny = float(np.finfo(float).smallest_normal)  # below it, 1 / (2 delta) overflows
        if not tiny <= self.delta < math.inf:
            raise ValueError(f"scenario.delta: must be finite and at least {tiny!r}, the smallest "
                             f"normal float, got {self.delta!r}")
        if self.kind == TRUNCATED_GAUSSIAN:
            sigma_max = MAX_SIGMA_RATIO * self.delta
            if self.sigma > sigma_max:
                raise ValueError(f"noise.sigma: the closed-form moments lose accuracy above "
                                 f"{MAX_SIGMA_RATIO:g} * scenario.delta = {sigma_max:g}, "
                                 f"got {self.sigma!r}")
            # mass of the parent Gaussian inside [-delta, delta]
            z = math.erf(self.delta / (self.sigma * _SQRT2))
            object.__setattr__(self, "_norm", z)
            # every quantile and moment of this family needs scipy.special, so it loads with
            # the model: a run pays the import when its config is read, not inside a sweep
            import scipy.special  # noqa: F401

    def ppf(self, u):
        """Inverse CDF on [0, 1]; exists because the CDF is strictly increasing."""
        u = np.asarray(u, dtype=float)
        if self.kind == UNIFORM:
            out = (2.0 * u - 1.0) * self.delta
        else:
            from scipy.special import ndtri

            lo = _big_phi(-self.delta / self.sigma)
            out = self.sigma * ndtri(lo + u * self._norm)
            out = np.clip(out, -self.delta, self.delta)
        return out if out.ndim else float(out)

    # -- partial moments ----------------------------------------------------

    def partial_moments(self, t):
        """Closed-form ``(M0, M1, M2)`` with ``Mj(t) = integral_t^delta x^j f(x) dx``.

        These power the acceptance / error integrals downstream; ``t`` is
        clipped to the support so callers may pass values slightly outside.
        """
        t = np.clip(np.asarray(t, dtype=float), -self.delta, self.delta)
        d = self.delta
        if self.kind == UNIFORM:
            inv = 1.0 / (2.0 * d)
            m0 = (d - t) * inv
            m1 = (d * d - t * t) * 0.5 * inv
            m2 = (d ** 3 - t ** 3) / 3.0 * inv
        else:
            s = self.sigma
            dd = d / s
            tt = t / s
            phi_d = _phi(dd)
            phi_t = _phi(tt)
            gap = _big_phi(dd) - _big_phi(tt)
            m0 = gap / self._norm
            m1 = s * (phi_t - phi_d) / self._norm
            m2 = s * s * (gap - (dd * phi_d - tt * phi_t)) / self._norm
        return m0, m1, m2


@dataclass(frozen=True)
class Scenario:
    """Global constants: value half-width ``big_m`` and the noise law, which owns ``delta``."""

    big_m: float
    noise: HonestNoiseModel

    @property
    def delta(self) -> float:
        return self.noise.delta

    def __post_init__(self) -> None:
        # the noise model checks delta itself
        if not (self.big_m > 0.0 and math.isfinite(self.big_m)):
            raise ValueError("scenario.big_m: must be a positive finite real")
        if self.delta / self.big_m > MAX_DELTA_RATIO:
            raise ValueError(
                "scenario.delta: delta << big_m violated "
                f"(delta/big_m = {self.delta / self.big_m:g} exceeds {MAX_DELTA_RATIO:g})"
            )


def uniform_scenario(delta: float = 1.0, big_m: float = 1e4) -> Scenario:
    return Scenario(big_m, HonestNoiseModel(UNIFORM, delta))


def truncated_gaussian_scenario(sigma: float, delta: float = 1.0, big_m: float = 1e4) -> Scenario:
    return Scenario(big_m, HonestNoiseModel(TRUNCATED_GAUSSIAN, delta, sigma))
