"""Threshold learning without knowledge of the adversary's utility.

Both learners sweep a uniform grid of candidate thresholds, estimate each
candidate's acceptance rate from observed accept/reject outcomes, and map
it through the known value curve to an estimated collector utility. The
explore-then-commit learner plays every candidate a fixed number of
rounds; the elimination learner drops candidates whose estimate falls a
confidence radius behind the current best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from goc.envelope import EnvelopeTable, check_threshold_range
from goc.utility import LipschitzProfile, UtilitySpec, q_dc

_ELIM_BLOCK = 4096
# rounds per ETC block: bounds a trial's memory; 4096-round blocks cost 5-13% per trial
_ETC_BLOCK = 1 << 16


def _least_integer_above(x: float) -> int:
    """Smallest integer strictly greater than ``x``, robust to float fuzz."""
    n = math.floor(x * (1.0 + 1e-12)) + 1
    return int(n)


def check_learner_targets(delta: float, lam: float, budget_scale: float) -> None:
    """Reject ``delta`` outside (0, 1), ``lam <= 0`` or ``budget_scale`` outside (0, 1]."""
    if not 0.0 < delta < 1.0:
        raise ValueError("learner.delta: must lie in (0, 1)")
    if not lam > 0.0:
        raise ValueError("learner.lambda: must be positive")
    if not 0.0 < budget_scale <= 1.0:
        raise ValueError("experiment.budget_scale: must lie in (0, 1]")


def derive_budget(
    a: float, b: float, delta: float, lam: float, lip: LipschitzProfile
) -> tuple[int, int]:
    """Smallest (n, k) strictly satisfying the grid and per-candidate sampling bounds.

    ``n`` exceeds ``(b - a) max(2 L / lambda, 1 / d)`` and ``k`` exceeds
    ``(8 ell^2 / lambda^2) ln(2 (n + 1) / delta)``.
    """
    check_threshold_range(a, b)
    check_learner_targets(delta, lam, 1.0)
    n = _least_integer_above((b - a) * max(2.0 * lip.big_l / lam, 1.0 / lip.d))
    k = _least_integer_above(
        (8.0 * lip.ell ** 2 / lam ** 2) * math.log(2.0 * (n + 1) / delta)
    )
    return n, k


def elimination_radius(ell: float, n: int, delta: float, r):
    """Confidence radius after ``r`` rounds: ``2 ell sqrt(ln(4(n+1)/delta) / (2r))``.

    ``r`` may be an array of round counts.
    """
    r = np.asarray(r, dtype=float)
    out = 2.0 * ell * np.sqrt(math.log(4.0 * (n + 1) / delta) / (2.0 * r))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LearnerConfig:
    """Grid range, accuracy/confidence targets, smoothness profile, and derived budget."""

    a: float
    b: float
    delta: float
    lam: float
    lip: LipschitzProfile
    n: int
    k: int
    budget_scale: float = 1.0

    def __post_init__(self) -> None:
        n_min, k_min = derive_budget(self.a, self.b, self.delta, self.lam, self.lip)
        check_learner_targets(self.delta, self.lam, self.budget_scale)
        if self.n < n_min:
            raise ValueError(f"n = {self.n} below the required {n_min}")
        if self.budget_scale == 1.0 and self.k < k_min:
            raise ValueError(f"k = {self.k} below the required {k_min}")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @classmethod
    def derive(
        cls,
        a: float,
        b: float,
        delta: float,
        lam: float,
        lip: LipschitzProfile,
        budget_scale: float = 1.0,
    ) -> "LearnerConfig":
        n, k = derive_budget(a, b, delta, lam, lip)
        if budget_scale != 1.0:
            k = max(1, math.ceil(k * budget_scale))
        return cls(a=a, b=b, delta=delta, lam=lam, lip=lip, n=n, k=k, budget_scale=budget_scale)

    def etas(self) -> np.ndarray:
        """Candidate grid ``a + (b - a) (i - 1) / n`` for ``i = 1 .. n + 1``."""
        return self.a + (self.b - self.a) * (np.arange(self.n + 1) / self.n)


@dataclass(frozen=True)
class LearnerOutcome:
    """Learner output: the committed arm (1-based ``eta_hat_index``) and one column per arm
    field, position ``i`` holding arm ``i + 1``; an eliminated arm stopped at its
    ``rounds_played``."""

    eta_hat_index: int
    etas: tuple[float, ...]
    rounds_played: tuple[int, ...]
    accept_count: tuple[int, ...]
    u_hat: tuple[float, ...]
    eliminated: tuple[bool, ...]
    clamp_count: int = 0

    @property
    def eta_hat(self) -> float:
        return self.etas[self.eta_hat_index - 1]

    @property
    def total_game_rounds(self) -> int:
        return sum(self.rounds_played)


def _u_hat_rows(
    spec: UtilitySpec, tables: list[EnvelopeTable], alpha_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated utility per (arm, round) entry, clamping the rate into the table range.

    Row ``i`` is read through ``tables[i]``. Returns the utility matrix and the
    mask of clamped entries (rates below the table's lower edge; the singular
    small-rate region is far from optimal anyway).
    """
    out = np.empty_like(alpha_hat)
    clamped = np.empty(alpha_hat.shape, dtype=bool)
    for i, table in enumerate(tables):
        row = alpha_hat[i]
        clamped[i] = row < table.alpha_grid[0]
        safe = np.clip(row, table.alpha_grid[0], 1.0)
        c = np.interp(safe, table.alpha_grid, table.c_values)
        out[i] = q_dc(spec, c, safe)
    return out, clamped


def _outcome(etas, alive, stop, counts, u, clamps) -> LearnerOutcome:
    """Commit to the best live arm (lowest index on ties) and record every arm's columns.

    ``stop[i]`` is the last round arm ``i`` played; ``counts`` and ``u`` hold its
    accept count and estimated utility at that round.
    """
    m = int(np.argmax(np.where(alive, u, -np.inf)))
    columns = (etas, stop, counts, u, ~alive)
    return LearnerOutcome(m + 1, *(tuple(c.tolist()) for c in columns), clamp_count=clamps)


def run_etc(config: LearnerConfig, env, spec: UtilitySpec) -> LearnerOutcome:
    """Play every candidate exactly ``k`` rounds, then commit to the best estimate.

    The candidate schedule is round-robin; with per-candidate streams the
    totals are identical to any interleaving. Exact ties resolve to the
    lowest index.
    """
    n_arms = config.n + 1
    if env.n_arms != n_arms:
        raise ValueError("environment arm count does not match the config grid")
    counts = np.zeros(n_arms, dtype=np.int64)
    for r0 in range(0, config.k, _ETC_BLOCK):
        counts += env.acceptance_block(r0, min(r0 + _ETC_BLOCK, config.k)).sum(axis=1)
    u, clamped = _u_hat_rows(spec, env.tables, (counts / config.k)[:, None])
    return _outcome(config.etas(), np.ones(n_arms, dtype=bool), np.full(n_arms, config.k),
                    counts, u[:, 0], clamps=int(np.count_nonzero(clamped)))


def run_elimination(config: LearnerConfig, env, spec: UtilitySpec) -> LearnerOutcome:
    """Round-by-round play with confidence-radius elimination of trailing candidates.

    Each surviving candidate plays one game per round; a candidate is
    dropped as soon as the best current estimate exceeds its own by more
    than the shrinking radius. Processing is blocked for speed, which is
    equivalent to the sequential rule because candidate streams are
    independent: an elimination restarts the scan inside the block with
    the survivor set updated. A block draws and scores only the candidates
    alive at its start.
    """
    n_arms, k = config.n + 1, config.k
    if env.n_arms != n_arms:
        raise ValueError("environment arm count does not match the config grid")
    # per arm: the last round it played, and its accept count and estimated utility there
    alive = np.ones(n_arms, dtype=bool)
    stop = np.zeros(n_arms, dtype=np.int64)
    counts = np.zeros(n_arms, dtype=np.int64)
    u = np.full(n_arms, -np.inf)
    clamps = 0

    pos = 0
    while pos < k:
        b = min(_ELIM_BLOCK, k - pos)
        rows = np.flatnonzero(alive)
        cum = counts[rows, None] + np.cumsum(env.acceptance_block(pos, pos + b, rows), axis=1)
        r_vec = np.arange(pos + 1, pos + b + 1, dtype=float)
        alpha_hat = cum / r_vec[None, :]
        u_live, clamped = _u_hat_rows(spec, [env.tables[i] for i in rows], alpha_hat)
        eps = elimination_radius(config.lip.ell, config.n, config.delta, r_vec)
        live = np.ones(rows.size, dtype=bool)
        col = np.full(rows.size, b - 1)  # the last column each row played in this block
        best = u_live.max(axis=0)
        j = 0
        while j < b:
            viol = (best[j:] - u_live[live, j:]) > eps[j:]
            hit_cols = np.flatnonzero(viol.any(axis=0))
            if hit_cols.size == 0:
                break
            jj = j + int(hit_cols[0])
            dropped = np.flatnonzero(live)[viol[:, hit_cols[0]]]
            live[dropped] = False
            col[dropped] = jj
            alive[rows[dropped]] = False
            # later columns need a new best only where a dropped row attained it
            later = jj + 1 + np.flatnonzero((u_live[dropped, jj + 1:] == best[jj + 1:]).any(axis=0))
            if later.size:
                best[later] = u_live[np.ix_(live, later)].max(axis=0)
            j = jj + 1
        played = np.arange(b)[None, :] <= col[:, None]
        clamps += int(np.count_nonzero(clamped & played))
        at = (np.arange(rows.size), col)  # each live arm at the last round it played
        stop[rows] = pos + col + 1
        counts[rows] = cum[at]
        u[rows] = u_live[at]
        pos += b

    return _outcome(config.etas(), alive, stop, counts, u, clamps)
