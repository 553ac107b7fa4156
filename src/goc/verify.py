"""Independent brute-force verification of the value curve.

Maximizes the conditional midpoint MSE over two-offset mixtures subject
to an acceptance floor, entirely from the raw acceptance/error integrals,
and compares against the envelope-based curve. Mixtures of two offsets
suffice because the optimum value is a chord of the squared-gap mass
curve; a three-offset spot check guards the assumption.
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
    eta: float,
    alpha: float,
    z_grid_size: int = DEFAULT_Z_GRID,
    w_grid_size: int = DEFAULT_W_GRID,
    table: EnvelopeTable | None = None,
) -> OracleResult:
    """Exhaustive search over two-offset mixtures with acceptance at least ``alpha``.

    Sweeps an offset grid pair with a weight grid, plus the exact weight
    that makes the acceptance constraint active for each offset pair (the
    maximizer usually sits on the constraint boundary, which a weight grid
    alone would miss).
    """
    if not 0.0 < alpha <= 1.0 + 1e-12:
        raise ValueError("alpha must lie in (0, 1]")
    if z_grid_size < 201 or w_grid_size < 101:
        raise ValueError("grids too coarse: need z >= 201, w >= 101")
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

    if table is None:
        table = build_envelope_table(scenario, eta)
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
            results.append(
                two_point_oracle(scenario, eta, alpha, z_grid_size, w_grid_size, table=table)
            )
    return results


def three_point_spot_check(
    scenario: Scenario,
    eta: float,
    alpha: float,
    z_grid_size: int = 41,
    w_grid_size: int = 13,
) -> tuple[float, float]:
    """Coarse three-offset search; returns (three_point_max, two_point_max at same z grid).

    Guards the two-offset sufficiency assumption: the three-offset value
    must not exceed the two-offset value beyond grid tolerance.
    """
    dom = offset_domain(scenario, eta)
    z = np.linspace(dom.z_lo, dom.z_hi, z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    best3 = -np.inf
    ws = np.linspace(0.0, 1.0, w_grid_size)
    k1 = kz[:, None, None]
    k2 = kz[None, :, None]
    k3 = kz[None, None, :]
    n1 = nz[:, None, None]
    n2 = nz[None, :, None]
    n3 = nz[None, None, :]
    for w1 in ws:
        for w2 in ws:
            if w1 + w2 > 1.0 + 1e-12:
                continue
            w3 = 1.0 - w1 - w2
            pa = w1 * k1 + w2 * k2 + w3 * k3
            mse = np.where(
                pa >= alpha - 1e-15,
                (w1 * n1 + w2 * n2 + w3 * n3) / np.maximum(4.0 * pa, 1e-300),
                -np.inf,
            )
            best3 = max(best3, float(mse.max()))
    two = two_point_oracle(
        scenario, eta, alpha, z_grid_size=max(z_grid_size, 201), w_grid_size=max(2 * w_grid_size + 1, 101)
    )
    return best3, two.oracle_value
