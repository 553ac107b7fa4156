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
_INFEASIBLE = "infeasible: alpha exceeds the maximum acceptance probability"


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
    grid alone would miss). The constraint-active stage runs first, and the
    weight sweep then evaluates only the grid rows whose bound can still reach
    the best value (``_rows_that_can_win``). The result is the first maximum in
    the order weight-sweep cells by ``(w, row, column)``, then constraint-active
    cells by ``(row, column)``. The offset-pair grid is computed one block of
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
        raise ValueError(_INFEASIBLE)

    k1 = kz[:, None]
    k2 = kz[None, :]
    n1 = nz[:, None]
    n2 = nz[None, :]
    floor = alpha - 1e-15
    step = max(1, ORACLE_BLOCK_CELLS // z_grid_size)

    # constraint-active weight per offset pair: acceptance exactly alpha
    active_val, active_witness = -np.inf, None
    for r0 in range(0, z_grid_size, step):
        with np.errstate(divide="ignore", invalid="ignore"):
            w_star = (alpha - k2) / (k1[r0:r0 + step] - k2)
        feasible = np.isfinite(w_star) & (w_star >= 0.0) & (w_star <= 1.0)
        w_safe = np.where(feasible, w_star, 0.0)
        mse = np.where(
            feasible,
            (w_safe * n1[r0:r0 + step] + (1.0 - w_safe) * n2) / (4.0 * alpha),
            -np.inf,
        )
        flat = int(np.argmax(mse))
        if float(mse.flat[flat]) > active_val:
            i, j = np.unravel_index(flat, mse.shape)
            active_val = float(mse.flat[flat])
            active_witness = (float(z[r0 + i]), float(z[j]), float(w_safe[i, j]))

    # The weight sweep skips only rows with no cell at or above the best so far, and takes
    # the rest in ascending order, so it still keeps its own first maximum. It reuses one
    # block's buffers; k is finite, so pa < floor is exactly the complement of pa >= floor.
    # a stable argsort maps in less of numpy's sort code on first use (peak RSS) than the default
    order = np.argsort(kz, kind="stable")
    k_sorted = kz[order]
    n_top = np.append(np.maximum.accumulate(nz[order][::-1])[::-1], -np.inf)
    shape = (step, z_grid_size)
    pa_rows, mse_rows = np.empty(shape), np.empty(shape)
    infeasible_rows = np.empty(shape, dtype=bool)
    sweep_val, sweep_witness = -np.inf, None
    for w in np.linspace(0.0, 1.0, w_grid_size):
        wk1, wk2, wn1, wn2 = w * k1, (1.0 - w) * k2, w * n1, (1.0 - w) * n2
        rows = _rows_that_can_win(w, floor, kz, nz, k_sorted, n_top, max(active_val, sweep_val))
        for s in range(0, rows.size, step):
            r = rows[s:s + step]
            pa, mse = pa_rows[:r.size], mse_rows[:r.size]
            infeasible = infeasible_rows[:r.size]
            np.add(wk1[r], wk2, out=pa)
            np.less(pa, floor, out=infeasible)
            np.add(wn1[r], wn2, out=mse)
            np.multiply(4.0, pa, out=pa)
            np.maximum(pa, 1e-300, out=pa)
            np.divide(mse, pa, out=mse)
            np.copyto(mse, -np.inf, where=infeasible)
            flat = int(np.argmax(mse))
            if float(mse.flat[flat]) > sweep_val:
                i, j = np.unravel_index(flat, mse.shape)
                sweep_val = float(mse.flat[flat])
                sweep_witness = (float(z[r[i]]), float(z[j]), float(w))

    # weight-sweep cells come first in the search order, so the sweep's maximum takes a tie
    best_val, best_witness = ((sweep_val, sweep_witness) if sweep_val >= active_val
                              else (active_val, active_witness))
    if best_val == -np.inf:  # every feasible cell is worth at least 0: none reaches the floor
        raise ValueError(_INFEASIBLE)
    envelope_value = float(table.h_star_at(alpha) / (4.0 * alpha))
    return OracleResult(
        eta=float(eta),
        alpha=float(alpha),
        oracle_value=best_val,
        envelope_value=envelope_value,
        witness=best_witness,
    )


def _rows_that_can_win(
    w: float,
    floor: float,
    kz: np.ndarray,
    nz: np.ndarray,
    k_sorted: np.ndarray,
    n_top: np.ndarray,
    best: float,
) -> np.ndarray:
    """Ascending grid rows whose weight-``w`` cells could reach ``best``; all if ``floor <= 0``.

    A feasible cell has ``pa >= floor``, so its denominator is at least
    ``4 floor``, and its column has ``k >= kmin = (floor - w k_row - 1e-9) /
    (1 - w)``. ``n_top[p]`` is the largest ``nu`` over the columns from
    position ``p`` of ``k_sorted`` (ascending) on, and ``-inf`` past the end.
    With ``nu >= 0``, ``0 <= k <= 1`` and ``0 <= w <= 1`` no term cancels, so
    rounding moves a cell's acceptance by about 1e-16 and its value or the
    bound by a few ulps, far inside the ``1e-9`` slacks: a skipped row holds
    no cell at or above ``best``.
    """
    if floor <= 0.0:
        return np.arange(kz.size)
    if w == 1.0:  # pa is the row's own k
        num = np.where(kz >= floor - 1e-9, nz, -np.inf)
    else:
        kmin = (floor - w * kz - 1e-9) / (1.0 - w)
        num = w * nz + (1.0 - w) * n_top[np.searchsorted(k_sorted, kmin)]
    bound = num / (4.0 * floor) * (1.0 + 1e-9)
    return np.flatnonzero(bound >= best)


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
