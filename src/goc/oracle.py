"""Myopic best response of the reporting adversary and the committed-threshold solver.

The adversary is represented by its induced operating point on the value
curve: the acceptance level maximizing its utility, with ties broken in
the collector's disfavor. The collector's observable consequences depend
only on this (acceptance, conditional MSE) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from goc.envelope import (
    DEFAULT_ALPHA_MIN,
    DEFAULT_GRID_SIZE,
    EnvelopeTable,
    build_envelope_table,
)
from goc.noise import Scenario
from goc.utility import UtilitySpec, q_ad, q_dc

# numerical tolerance for "equally good" adversary responses on the grid
TIE_TOL = 1e-9


@dataclass(frozen=True)
class BestResponse:
    """Adversary's grid-optimal operating point against one committed threshold.

    ``mmse`` equals the value curve at ``alpha_star`` by construction;
    ``tie_count`` reports how many grid points tied within tolerance
    (the returned one minimizes the collector's utility, lowest index on
    remaining ties).
    """

    eta: float
    alpha_star: float
    mmse: float
    ad_value: float
    dc_value: float
    tie_count: int


def best_response(table: EnvelopeTable, spec: UtilitySpec) -> BestResponse:
    """Grid argmax of the adversary utility along the value curve, worst-case tie-break."""
    ad_vals = q_ad(spec, table.c_values, table.alpha_grid)
    best = float(np.max(ad_vals))
    ties = np.flatnonzero(ad_vals >= best - TIE_TOL)
    dc_vals = q_dc(spec, table.c_values[ties], table.alpha_grid[ties])
    j = int(np.argmin(dc_vals))
    pick = int(ties[j])
    return BestResponse(
        eta=table.eta,
        alpha_star=float(table.alpha_grid[pick]),
        mmse=float(table.c_values[pick]),
        ad_value=float(ad_vals[pick]),
        dc_value=float(dc_vals[j]),
        tie_count=int(ties.size),
    )


def realized_u(
    scenario: Scenario,
    spec: UtilitySpec,
    eta: float,
    table: EnvelopeTable | None = None,
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> float:
    """Collector utility against the best-responding adversary at ``eta``.

    No ``goc`` command calls it; the benchmark tracer (``bench/spans.py``
    ``TRACED``) wraps it by name, so it stays until the tracer drops it.
    """
    if table is None:
        table = build_envelope_table(scenario, eta, grid_size, alpha_min)
    return best_response(table, spec).dc_value


def best_response_curve(
    scenario: Scenario,
    spec: UtilitySpec,
    eta_grid: Sequence[float],
    grid_size: int = DEFAULT_GRID_SIZE,
    alpha_min: float = DEFAULT_ALPHA_MIN,
) -> list[BestResponse]:
    """Best responses along an eta grid, one freshly built table per point."""
    return [
        best_response(build_envelope_table(scenario, eta, grid_size, alpha_min), spec)
        for eta in eta_grid
    ]


def solve_complete_info(
    tables: Sequence[EnvelopeTable], spec: UtilitySpec
) -> tuple[float, float]:
    """Complete-information solve: the table whose tie-broken collector utility is largest.

    Returns ``(eta_hat, dc_value)``; ties resolve to the lowest index.
    """
    if not tables:
        raise ValueError("tables must be nonempty")
    values = [best_response(t, spec).dc_value for t in tables]
    i = int(np.argmax(values))
    return tables[i].eta, float(values[i])
