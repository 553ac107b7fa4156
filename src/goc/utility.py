"""Player utilities and the smoothness constants of the collector's realized-utility curve.

Both players act on the pair (conditional MSE, acceptance probability).
The collector's utility is nonincreasing in error and nondecreasing in
acceptance; the adversary's is strictly increasing in both. Parametric
families keep configurations serializable. The argument convention is
``(mse, pa)`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from goc.envelope import EnvelopeTable, check_threshold_range

DC_LINEAR = "linear"  # pa - gamma * mse
DC_RATIO = "ratio"  # pa / (1 + mse)
AD_WEIGHTED_SUM = "weighted_sum"  # w_mse * mse + w_pa * pa
AD_PRODUCT = "product"  # pa^theta * mse

WINDOW_FRACTION = 1.0 / 200.0  # estimate_lipschitz: its slope window, as a share of [a, b]
JUMP_FACTOR = 50.0  # ... windowed slopes above this multiple of the median flag a boundary
MIN_RESOLUTION = 51  # ... fewest etas in its realized-utility sweep


@dataclass(frozen=True)
class UtilitySpec:
    """Parametric utilities for the collector (``dc_*``) and adversary (``ad_*``)."""

    dc_kind: str = DC_LINEAR
    dc_gamma: float = 1.0
    ad_kind: str = AD_PRODUCT
    ad_w_mse: float = 1.0
    ad_w_pa: float = 1.0
    ad_theta: float = 1.0

    def __post_init__(self) -> None:
        if self.dc_kind not in (DC_LINEAR, DC_RATIO):
            raise ValueError(f"utility.dc.kind: must be {DC_LINEAR!r} or {DC_RATIO!r}, "
                             f"got {self.dc_kind!r}")
        if self.ad_kind not in (AD_WEIGHTED_SUM, AD_PRODUCT):
            raise ValueError(f"utility.ad.kind: must be {AD_WEIGHTED_SUM!r} or {AD_PRODUCT!r}, "
                             f"got {self.ad_kind!r}")
        # gamma = 0 is allowed: the collector then cares about acceptance only.
        if self.dc_kind == DC_LINEAR and not self.dc_gamma >= 0.0:
            raise ValueError("utility.dc.gamma: must be >= 0")
        if self.ad_kind == AD_WEIGHTED_SUM:
            for key, value in (("w_mse", self.ad_w_mse), ("w_pa", self.ad_w_pa)):
                if not value > 0.0:
                    raise ValueError(f"utility.ad.{key}: must be > 0 for weighted_sum")
        if self.ad_kind == AD_PRODUCT and not self.ad_theta > 0.0:
            raise ValueError("utility.ad.theta: must be > 0 for product")


def q_dc(spec: UtilitySpec, mse, pa):
    """Collector utility at (mse, pa); vectorized."""
    mse = np.asarray(mse, dtype=float)
    pa = np.asarray(pa, dtype=float)
    if spec.dc_kind == DC_LINEAR:
        out = pa - spec.dc_gamma * mse
    else:
        out = pa / (1.0 + mse)
    return out if out.ndim else float(out)


def q_ad(spec: UtilitySpec, mse, pa):
    """Adversary utility at (mse, pa); vectorized."""
    mse = np.asarray(mse, dtype=float)
    pa = np.asarray(pa, dtype=float)
    if spec.ad_kind == AD_WEIGHTED_SUM:
        out = spec.ad_w_mse * mse + spec.ad_w_pa * pa
    else:
        out = np.power(pa, spec.ad_theta) * mse
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LipschitzProfile:
    """Smoothness constants driving the learners' budgets.

    ``ell`` bounds the slope of the estimated-utility map in the acceptance
    estimate; ``big_l`` the slope of the realized-utility curve inside its
    pieces; ``d`` the minimum piece width.
    """

    ell: float
    big_l: float
    d: float

    def __post_init__(self) -> None:
        for key, value in (("ell", self.ell), ("L", self.big_l), ("d", self.d)):
            if not value > 0.0:
                raise ValueError(f"lipschitz.{key}: must be positive")


@dataclass(frozen=True)
class LipschitzEstimate:
    """Estimated profile and the detected piece boundaries."""

    profile: LipschitzProfile
    boundaries: tuple[float, ...]


def check_resolution(resolution: int) -> None:
    """Reject an ``estimate_lipschitz`` sweep of fewer than ``MIN_RESOLUTION`` etas."""
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"estimator.resolution: must be >= {MIN_RESOLUTION}, got {resolution!r}")


def dc_slope(spec: UtilitySpec, table: EnvelopeTable) -> float:
    """Largest segment slope of the piecewise-linear map alpha -> q_dc(c(alpha), alpha)."""
    u_alpha = q_dc(spec, table.c_values, table.alpha_grid)
    return float(np.max(np.abs(np.diff(u_alpha) / np.diff(table.alpha_grid))))


def estimate_lipschitz(
    etas: np.ndarray, u: np.ndarray, slopes: Sequence[float]
) -> LipschitzEstimate:
    """Estimate (ell, L, d) from the computed curves.

    ``etas`` is an evenly spaced sweep over ``[a, b]``, ``u`` the realized
    utility at each of its points, and ``ell`` the largest of ``slopes``, the
    ``dc_slope`` of some of its tables. ``L`` and ``d`` come from finite
    differences of ``u`` over a fixed physical window (stable under grid
    refinement); windowed slopes above ``JUMP_FACTOR`` times the median flag
    piece boundaries and are excluded from ``L``. Overestimates only inflate
    the learners' budgets.
    """
    check_resolution(len(etas))
    a, b = float(etas[0]), float(etas[-1])
    check_threshold_range(a, b)
    ell = max([1e-9, *slopes])

    step = etas[1] - etas[0]
    m = max(1, int(round(WINDOW_FRACTION * (b - a) / step)))
    wslopes = np.abs(u[m:] - u[:-m]) / (m * step)
    med = float(np.median(wslopes))
    if med > 0.0:
        jump_mask = wslopes > JUMP_FACTOR * med
    else:
        jump_mask = np.zeros_like(wslopes, dtype=bool)
    # collapse each run of flagged windows to one boundary: the mean of its window centers
    centers = 0.5 * (etas[m:] + etas[:-m])
    edges = np.flatnonzero(np.diff(np.concatenate(([0], jump_mask.view(np.int8), [0]))))
    boundaries = [float(np.mean(centers[i:j])) for i, j in zip(edges[::2], edges[1::2])]
    smooth = wslopes[~jump_mask]
    big_l = float(smooth.max()) if smooth.size else med
    big_l = max(big_l, 1e-9)
    cuts = [a] + boundaries + [b]
    d = float(min(np.diff(cuts))) if boundaries else b - a
    profile = LipschitzProfile(ell=ell, big_l=big_l, d=max(d, 1e-12))
    return LipschitzEstimate(profile=profile, boundaries=tuple(boundaries))
