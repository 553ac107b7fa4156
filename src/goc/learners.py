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
from goc.environment import _BLOCK_ARM_ROUNDS
from goc.utility import LipschitzProfile, UtilitySpec, q_dc

# rounds per elimination block, unless the budget allows fewer: each arm call per block
# costs about 10 us in physical mode beside 16-18 ns per round (2 cores, numpy 2.4.6),
# so blocks much shorter than this slow those trials
_ELIM_BLOCK = 4096


def _least_integer_above(x: float) -> int:
    """Smallest integer strictly greater than ``x``, robust to float fuzz."""
    return math.floor(x * (1.0 + 1e-12)) + 1


def check_learner_targets(delta: float, lam: float, budget_scale: float) -> None:
    """Reject ``delta`` outside (0, 1), ``lam <= 0`` or ``budget_scale`` outside (0, 1]."""
    if not 0.0 < delta < 1.0:
        raise ValueError("learner.delta: must lie in (0, 1)")
    if not lam > 0.0:
        raise ValueError("learner.lambda: must be positive")
    if not 0.0 < budget_scale <= 1.0:
        raise ValueError("experiment.budget_scale: must lie in (0, 1]")


def elimination_radius(ell: float, n: int, delta: float, r):
    """Confidence radius after ``r`` rounds: ``2 ell sqrt(ln(4(n+1)/delta) / (2r))``.

    ``r`` may be an array of round counts.
    """
    r = np.asarray(r, dtype=float)
    out = 2.0 * ell * np.sqrt(math.log(4.0 * (n + 1) / delta) / (2.0 * r))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LearnerConfig:
    """Grid range, accuracy/confidence targets, smoothness profile, and the budget ``(n, k)``
    the learners play; ``derive`` builds it from the sample-complexity bound."""

    a: float
    b: float
    delta: float
    lam: float
    lip: LipschitzProfile
    n: int
    k: int

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
        """Smallest ``(n, k)`` strictly above the grid bound ``(b - a) max(2 L / lambda, 1 / d)``
        and the sampling bound ``(8 ell^2 / lambda^2) ln(2 (n + 1) / delta)``, with ``k`` then
        scaled by ``budget_scale`` (rounded up)."""
        check_threshold_range(a, b)
        check_learner_targets(delta, lam, budget_scale)
        n = _least_integer_above((b - a) * max(2.0 * lip.big_l / lam, 1.0 / lip.d))
        k = _least_integer_above((8.0 * lip.ell ** 2 / lam ** 2) * math.log(2.0 * (n + 1) / delta))
        if budget_scale != 1.0:  # above 2^53, ceil(k * 1.0) could round k
            k = max(1, math.ceil(k * budget_scale))
        return cls(a=a, b=b, delta=delta, lam=lam, lip=lip, n=n, k=k)

    def etas(self) -> np.ndarray:
        """Candidate grid ``a + (b - a) (i - 1) / n`` for ``i = 1 .. n + 1``."""
        return self.a + (self.b - self.a) * (np.arange(self.n + 1) / self.n)


@dataclass(frozen=True)
class LearnerOutcome:
    """Learner output: the committed arm (1-based ``eta_hat_index``) and one column per arm
    field, position ``i`` holding arm ``i + 1`` of the config's ``etas()``; an eliminated arm
    stopped at its ``rounds_played``. ``clamp_count`` counts rates below the arm table's lower
    edge: for ETC each arm's final rate, for elimination each arm's estimate per round played."""

    eta_hat_index: int
    rounds_played: tuple[int, ...]
    accept_count: tuple[int, ...]
    u_hat: tuple[float, ...]
    eliminated: tuple[bool, ...]
    clamp_count: int

    @property
    def total_game_rounds(self) -> int:
        return sum(self.rounds_played)


def _u_hat(spec: UtilitySpec, table: EnvelopeTable, rate):
    """Estimated utility at acceptance-rate estimates ``rate``, read through ``table``, and
    the mask of the rates below the table's lower edge.

    Those rates are clamped to the edge (the singular small-rate region is
    far from optimal anyway); callers count them from the mask.
    """
    lo = table.alpha_grid[0]
    safe = np.clip(rate, lo, 1.0)
    return q_dc(spec, np.interp(safe, table.alpha_grid, table.c_values), safe), rate < lo


def _first_violation(best, u, eps, start: int) -> int:
    """First column from ``start`` on where ``best - u`` exceeds ``eps``; ``len(u)`` if none."""
    hit = best[start:] - u[start:] > eps[start:]
    j = int(hit.argmax())
    return start + j if hit[j] else len(u)


def _outcome(alive, stop, counts, u, clamps) -> LearnerOutcome:
    """Commit to the best live arm (lowest index on ties) and record every arm's columns.

    ``stop[i]`` is the last round arm ``i`` played; ``counts`` and ``u`` hold its
    accept count and estimated utility at that round.
    """
    m = int(np.argmax(np.where(alive, u, -np.inf)))
    columns = (stop, counts, u, ~alive)
    return LearnerOutcome(m + 1, *(tuple(c.tolist()) for c in columns), clamps)


def run_etc(config: LearnerConfig, env, spec: UtilitySpec) -> LearnerOutcome:
    """Play every candidate exactly ``k`` rounds, then commit to the best estimate.

    Its only statistic is each candidate's accept count over rounds
    ``0 .. k-1``, which ``env.accept_counts`` supplies: with per-candidate
    streams any interleaving gives the same totals, and an environment that
    elimination already used counts the rounds it drew without drawing them
    again. Exact ties resolve to the lowest index.
    """
    n_arms = config.n + 1
    if env.n_arms != n_arms:
        raise ValueError("environment arm count does not match the config grid")
    counts = env.accept_counts(config.k)
    rates = counts / config.k
    u, clamped = zip(*(_u_hat(spec, t, a) for t, a in zip(env.tables, rates)))
    return _outcome(np.ones(n_arms, dtype=bool), np.full(n_arms, config.k), counts,
                    np.array(u), clamps=int(sum(clamped)))


def run_elimination(config: LearnerConfig, env, spec: UtilitySpec) -> LearnerOutcome:
    """Round-by-round play with confidence-radius elimination of trailing candidates.

    Each surviving candidate plays one game per round; a candidate is
    dropped as soon as the best current estimate exceeds its own by more
    than the shrinking radius. Processing is blocked for speed, which is
    equivalent to the sequential rule because candidate streams are
    independent: a block draws and scores only the candidates alive at its
    start, and its scan drops each one at the first round where it trails
    the best of the candidates still alive then.
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
        rows = np.flatnonzero(alive)
        b = min(_ELIM_BLOCK, max(1, _BLOCK_ARM_ROUNDS // rows.size), k - pos)
        block = env.acceptance_block(pos, pos + b, rows)
        r_vec = np.arange(pos + 1, pos + b + 1, dtype=float)
        eps = elimination_radius(config.lip.ell, config.n, config.delta, r_vec)
        # the block's one scratch array: accept counts, then rates, then each row's utilities
        u_live = block.astype(float)
        np.cumsum(u_live, axis=1, out=u_live)
        u_live += counts[rows, None]
        u_live /= r_vec
        clamped = {}  # row -> mask of its clamped rates, for the rows that have any
        for j, i in enumerate(rows):
            u_live[j], mask = _u_hat(spec, env.tables[i], u_live[j])
            if mask.any():
                clamped[j] = mask
        # one-pass scan: each row's first violating column; dropping rows only lowers best,
        # so no violation moves earlier, and only rows whose first violation sat where best
        # fell need a look further on
        best = u_live.max(axis=0)
        first = np.array([_first_violation(best, row, eps, 0) for row in u_live])
        live = np.ones(rows.size, dtype=bool)
        col = np.full(rows.size, b - 1)  # the last column each row played in this block
        while (jj := int(first.min())) < b:
            dropped = np.flatnonzero(first == jj)
            live[dropped] = False
            col[dropped] = jj
            first[dropped] = b
            alive[rows[dropped]] = False
            # later columns need a new best only where a dropped row attained it
            later = jj + 1 + np.flatnonzero((u_live[dropped, jj + 1:] == best[jj + 1:]).any(axis=0))
            if later.size:
                new = u_live[np.ix_(live, later)].max(axis=0)
                fell = later[new < best[later]]
                best[later] = new
                for j in np.flatnonzero(np.isin(first, fell)):
                    first[j] = _first_violation(best, u_live[j], eps, first[j])
        clamps += sum(int(np.count_nonzero(m[:col[j] + 1])) for j, m in clamped.items())
        stop[rows] = pos + col + 1
        counts[rows] += [np.count_nonzero(block[j, :c + 1]) for j, c in enumerate(col)]
        u[rows] = u_live[np.arange(rows.size), col]
        del block, u_live, clamped  # freed before the next block is drawn
        pos += b

    return _outcome(alive, stop, counts, u, clamps)
