"""Independent brute-force verification of the value curve.

Maximizes the conditional midpoint MSE over two-offset mixtures subject
to an acceptance floor, entirely from the raw acceptance/error integrals,
and compares against the envelope-based curve. Mixtures of two offsets
suffice because the optimum value is a chord of the squared-gap mass
curve; the tests guard that assumption with a three-offset search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from goc.envelope import EnvelopeTable, build_envelope_table, k_eta, nu_eta, offset_domain
from goc.noise import Scenario

DEFAULT_Z_GRID = 401
DEFAULT_W_GRID = 201


@dataclass(frozen=True)
class OracleResult:
    """Brute-force maximum vs the envelope value, with the attaining mixture."""

    eta: float
    alpha: float
    oracle_value: float
    envelope_value: float
    witness: tuple[float, float, float]  # (z1, z2, weight on z1)

    @property
    def gap(self) -> float:
        return self.oracle_value - self.envelope_value


def two_point_oracle(
    scenario: Scenario,
    table: EnvelopeTable,
    alpha: float,
    z_grid_size: int = DEFAULT_Z_GRID,
    w_grid_size: int = DEFAULT_W_GRID,
) -> OracleResult:
    """Exhaustive search over two-offset mixtures with acceptance at least ``alpha``.

    Searches at ``table.eta`` and reports ``table``'s value curve beside the
    result. Sweeps an offset grid pair with a weight grid, plus the exact
    weight that makes the acceptance constraint active for each offset pair
    (the maximizer usually sits on the constraint boundary, which a weight
    grid alone would miss).
    """
    if not 0.0 < alpha <= 1.0 + 1e-12:
        raise ValueError("alpha must lie in (0, 1]")
    if z_grid_size < 201 or w_grid_size < 101:
        raise ValueError("grids too coarse: need z >= 201, w >= 101")
    eta = table.eta
    dom = offset_domain(scenario, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    if alpha > kz.max() + 1e-12:
        raise ValueError("infeasible: alpha exceeds the maximum acceptance probability")

    k1 = kz[:, None]
    k2 = kz[None, :]
    n1 = nz[:, None]
    n2 = nz[None, :]

    best_val = -np.inf
    best_witness = (float(z[0]), float(z[0]), 1.0)

    def consider(values: np.ndarray, w_of_pair) -> None:
        nonlocal best_val, best_witness
        flat = int(np.argmax(values))
        val = float(values.flat[flat])
        if val > best_val:
            i, j = np.unravel_index(flat, values.shape)
            w = float(w_of_pair[i, j]) if isinstance(w_of_pair, np.ndarray) else float(w_of_pair)
            best_val = val
            best_witness = (float(z[i]), float(z[j]), w)

    for w in np.linspace(0.0, 1.0, w_grid_size):
        pa = w * k1 + (1.0 - w) * k2
        mse = np.where(
            pa >= alpha - 1e-15,
            (w * n1 + (1.0 - w) * n2) / np.maximum(4.0 * pa, 1e-300),
            -np.inf,
        )
        consider(mse, w)

    # constraint-active weight per offset pair: acceptance exactly alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        w_star = (alpha - k2) / (k1 - k2)
    feasible = np.isfinite(w_star) & (w_star >= 0.0) & (w_star <= 1.0)
    w_safe = np.where(feasible, w_star, 0.0)
    mse = np.where(
        feasible,
        (w_safe * n1 + (1.0 - w_safe) * n2) / (4.0 * alpha),
        -np.inf,
    )
    consider(mse, w_safe)

    envelope_value = float(table.h_star_at(alpha) / (4.0 * alpha))
    return OracleResult(
        eta=float(eta),
        alpha=float(alpha),
        oracle_value=best_val,
        envelope_value=envelope_value,
        witness=best_witness,
    )


def verify_grid(
    scenario: Scenario,
    etas: Sequence[float],
    alphas: Sequence[float],
    grid_size: int,
    alpha_min: float,
    z_grid_size: int = DEFAULT_Z_GRID,
    w_grid_size: int = DEFAULT_W_GRID,
) -> list[OracleResult]:
    """Oracle results over the (eta, alpha) matrix in eta-major order, one table per eta."""
    results = []
    for eta in etas:
        table = build_envelope_table(scenario, eta, grid_size, alpha_min)
        for alpha in alphas:
            results.append(two_point_oracle(scenario, table, alpha, z_grid_size, w_grid_size))
    return results
