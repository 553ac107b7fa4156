"""Player utilities and the smoothness constants of the collector's realized-utility curve.

Both players act on the pair (conditional MSE, acceptance probability).
The collector's utility is nonincreasing in error and nondecreasing in
acceptance; the adversary's is strictly increasing in both. Parametric
families keep configurations serializable. The argument convention is
``(mse, pa)`` everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from goc.envelope import DEFAULT_ALPHA_MIN, DEFAULT_GRID_SIZE, build_envelope_table
from goc.noise import Scenario

DC_LINEAR = "linear"  # pa - gamma * mse
DC_RATIO = "ratio"  # pa / (1 + mse)
AD_WEIGHTED_SUM = "weighted_sum"  # w_mse * mse + w_pa * pa
AD_PRODUCT = "product"  # pa^theta * mse

ELL_ETA_POINTS = 17  # estimate_lipschitz: etas in the ell sweep
WINDOW_FRACTION = 1.0 / 200.0  # ... its slope window, as a share of [a, b]
JUMP_FACTOR = 50.0  # ... windowed slopes above this multiple of the median flag a boundary


class UtilitySpecError(ValueError):
    """Invalid ``UtilitySpec`` or ``LipschitzProfile`` parameter; ``field`` names the field at fault."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field} {message}")
        self.field = field


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
            raise UtilitySpecError(
                "dc_kind", f"must be {DC_LINEAR!r} or {DC_RATIO!r}, got {self.dc_kind!r}"
            )
        if self.ad_kind not in (AD_WEIGHTED_SUM, AD_PRODUCT):
            raise UtilitySpecError(
                "ad_kind", f"must be {AD_WEIGHTED_SUM!r} or {AD_PRODUCT!r}, got {self.ad_kind!r}"
            )
        # gamma = 0 is allowed: the collector then cares about acceptance only.
        if self.dc_kind == DC_LINEAR and not self.dc_gamma >= 0.0:
            raise UtilitySpecError("dc_gamma", "must be >= 0")
        if self.ad_kind == AD_WEIGHTED_SUM:
            for name in ("ad_w_mse", "ad_w_pa"):
                if not getattr(self, name) > 0.0:
                    raise UtilitySpecError(name, "must be > 0 for weighted_sum")
        if self.ad_kind == AD_PRODUCT and not self.ad_theta > 0.0:
            raise UtilitySpecError("ad_theta", "must be > 0 for product")


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
        for name in ("ell", "big_l", "d"):
            if not getattr(self, name) > 0.0:
                raise UtilitySpecError(name, "must be positive")


@dataclass(frozen=True)
class LipschitzEstimate:
    """Estimated profile, the detected piece boundaries, and the utility at each sweep point."""

    profile: LipschitzProfile
    boundaries: tuple[float, ...]
    u_values: np.ndarray


def estimate_lipschitz(
    scenario: Scenario,
    spec: UtilitySpec,
    eta_range: tuple[float, float],
    resolution: int = 801,
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> LipschitzEstimate:
    """Estimate (ell, L, d) from the computed curves.

    ``ell`` is the exact maximum segment slope of the piecewise-linear map
    alpha -> q_dc(c(alpha), alpha) over a coarse eta sweep. ``L`` and ``d``
    come from finite differences of the realized-utility curve over a fixed
    physical window (stable under grid refinement); windowed slopes above
    ``JUMP_FACTOR`` times the median flag piece boundaries and are excluded
    from ``L``. Overestimates only inflate the learners' budgets.
    """
    from goc.oracle import best_response_curve  # local import: oracle depends on this module

    a, b = eta_range
    if not (2.0 <= a < b):
        raise ValueError("need 2 <= a < b")
    # slope bound in alpha, exact on the piecewise-linear tables
    ell = 0.0
    for eta in np.linspace(a, b, ELL_ETA_POINTS):
        table = build_envelope_table(scenario, eta, grid_size, alpha_min)
        u_alpha = q_dc(spec, table.c_values, table.alpha_grid)
        slopes = np.abs(np.diff(u_alpha) / np.diff(table.alpha_grid))
        ell = max(ell, float(slopes.max()))
    ell = max(ell, 1e-9)

    etas = np.linspace(a, b, resolution)
    u = np.array(
        [br.dc_value for br in best_response_curve(scenario, spec, etas, grid_size, alpha_min)]
    )
    step = etas[1] - etas[0]
    m = max(1, int(round(WINDOW_FRACTION * (b - a) / step)))
    wslopes = np.abs(u[m:] - u[:-m]) / (m * step)
    med = float(np.median(wslopes))
    if med > 0.0:
        jump_mask = wslopes > JUMP_FACTOR * med
    else:
        jump_mask = np.zeros_like(wslopes, dtype=bool)
    boundaries: list[float] = []
    if np.any(jump_mask):
        centers = 0.5 * (etas[m:] + etas[:-m])
        # collapse runs of flagged windows to one boundary each
        run_start = None
        for i, flagged in enumerate(jump_mask):
            if flagged and run_start is None:
                run_start = i
            elif not flagged and run_start is not None:
                boundaries.append(float(np.mean(centers[run_start:i])))
                run_start = None
        if run_start is not None:
            boundaries.append(float(np.mean(centers[run_start:])))
    smooth = wslopes[~jump_mask]
    big_l = float(smooth.max()) if smooth.size else med
    big_l = max(big_l, 1e-9)
    cuts = [a] + boundaries + [b]
    d = float(min(np.diff(cuts))) if boundaries else b - a
    profile = LipschitzProfile(ell=ell, big_l=big_l, d=max(d, 1e-12))
    return LipschitzEstimate(profile=profile, boundaries=tuple(boundaries), u_values=u)
