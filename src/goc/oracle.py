"""Myopic best response of the reporting adversary along the committed thresholds.

The adversary is represented by its induced operating point on the value
curve: the acceptance level maximizing its utility, with ties broken in
the collector's disfavor. The collector's observable consequences depend
only on this (acceptance, conditional MSE) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from goc.envelope import EnvelopeTable
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


def realized_u(table: EnvelopeTable, spec: UtilitySpec) -> float:
    """Collector utility against the adversary best-responding along ``table``.

    No ``goc`` command calls it; the benchmark tracer (``bench/spans.py``
    ``TRACED``) wraps it by name, so it stays until the tracer drops it.
    """
    return best_response(table, spec).dc_value

