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

from goc.envelope import EnvelopeTable, build_envelope_tables, k_eta, nu_eta, offset_domain
from goc.noise import Scenario

DEFAULT_Z_GRID = 401
DEFAULT_W_GRID = 201
ORACLE_BLOCK_CELLS = 1 << 14  # offset-pair cells the oracle computes at once, in whole rows


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


def check_alpha(alpha: float) -> None:
    """Reject an acceptance floor outside (0, 1], allowing 1 + 1e-12 of float fuzz."""
    if not 0.0 < alpha <= 1.0 + 1e-12:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


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
    grid alone would miss). The offset-pair grid is computed one block of
    whole rows, about ``ORACLE_BLOCK_CELLS`` cells, at a time.
    """
    check_alpha(alpha)
    for flag, size, least in (("--z-grid", z_grid_size, 201), ("--w-grid", w_grid_size, 101)):
        if size < least:
            raise ValueError(f"{flag}: must be >= {least}, got {size!r}")
    eta = table.eta
    z = np.linspace(*offset_domain(scenario, eta), z_grid_size)
    kz = np.asarray(k_eta(scenario, eta, z))
    nz = np.asarray(nu_eta(scenario, eta, z))
    if alpha > kz.max() + 1e-12:
        raise ValueError("infeasible: alpha exceeds the maximum acceptance probability")

    k1 = kz[:, None]
    k2 = kz[None, :]
    n1 = nz[:, None]
    n2 = nz[None, :]
    step = max(1, ORACLE_BLOCK_CELLS // z_grid_size)
    blocks = [(r0, min(r0 + step, z_grid_size)) for r0 in range(0, z_grid_size, step)]

    best_val = -np.inf
    best_witness = (float(z[0]), float(z[0]), 1.0)

    def consider(values: np.ndarray, r0: int, w_of_pair) -> None:
        """Keep the first maximum of ``values``, grid rows ``r0`` on, if it beats the best."""
        nonlocal best_val, best_witness
        flat = int(np.argmax(values))
        val = float(values.flat[flat])
        if val > best_val:
            i, j = np.unravel_index(flat, values.shape)
            w = float(w_of_pair[i, j]) if isinstance(w_of_pair, np.ndarray) else float(w_of_pair)
            best_val = val
            best_witness = (float(z[r0 + i]), float(z[j]), w)

    # Both stages run over blocks of rows in row order, so the strict > in consider keeps
    # the whole grid's first maximum. The weight sweep reuses one block's buffers; k is
    # finite, so pa < floor is exactly the complement of pa >= floor.
    shape = (step, z_grid_size)
    pa_rows, mse_rows = np.empty(shape), np.empty(shape)
    infeasible_rows = np.empty(shape, dtype=bool)
    for w in np.linspace(0.0, 1.0, w_grid_size):
        wk1, wk2, wn1, wn2 = w * k1, (1.0 - w) * k2, w * n1, (1.0 - w) * n2
        for r0, r1 in blocks:
            pa, mse = pa_rows[:r1 - r0], mse_rows[:r1 - r0]
            infeasible = infeasible_rows[:r1 - r0]
            np.add(wk1[r0:r1], wk2, out=pa)
            np.less(pa, alpha - 1e-15, out=infeasible)
            np.add(wn1[r0:r1], wn2, out=mse)
            np.multiply(4.0, pa, out=pa)
            np.maximum(pa, 1e-300, out=pa)
            np.divide(mse, pa, out=mse)
            np.copyto(mse, -np.inf, where=infeasible)
            consider(mse, r0, w)

    # constraint-active weight per offset pair: acceptance exactly alpha
    for r0, r1 in blocks:
        with np.errstate(divide="ignore", invalid="ignore"):
            w_star = (alpha - k2) / (k1[r0:r1] - k2)
        feasible = np.isfinite(w_star) & (w_star >= 0.0) & (w_star <= 1.0)
        w_safe = np.where(feasible, w_star, 0.0)
        mse = np.where(
            feasible,
            (w_safe * n1[r0:r1] + (1.0 - w_safe) * n2) / (4.0 * alpha),
            -np.inf,
        )
        consider(mse, r0, w_safe)

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
    for table in build_envelope_tables(scenario, etas, grid_size, alpha_min):
        for alpha in alphas:
            results.append(two_point_oracle(scenario, table, alpha, z_grid_size, w_grid_size))
    return results
