"""Multi-round interaction between the collector and a myopic adversary.

Two modes: a fast Bernoulli mode where each round only reveals the
accept/reject coin with the best-response acceptance rate, and a physical
mode that simulates the full report pair against an offset-mixture
adversary. Randomness comes from per-(trial, arm) streams addressed by a
seed key, so the draw for any given round is independent of execution
order; splitting a run into consecutive blocks yields the same values.

A learner's arm environment holds only what each arm draws from; the learner
scores arms with the instance's value curves. It draws only the arms a block
lists, and each stream is read in round order: a block of an arm starts at the
first round that arm has not drawn. It also keeps each arm's accept count over
every round it drew, so ``accept_counts`` draws only the rest of each stream: a
trial's ETC run counts on the environment its elimination run used, and each
stream is drawn once. A learner sees only the accept bit, so the physical arm
environment decides most rounds by one lookup in the arm's ``_Gate`` (see
``PhysicalArmEnv``), and the bits equal the full simulation's by construction.
``goc simulate`` and ``physical_rounds`` keep the full batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from goc.envelope import EnvelopeTable, check_eta, k_inverse
from goc.noise import Scenario

# per-round uniform draws consumed in physical mode, in order: value, honest noise,
# mixture component, offset sign, and a fifth that no output reads, still drawn so that
# every round reads the same stream positions and every output stays the same
_PHYS_DRAWS = 5
# arm-rounds per learner block, which bounds a trial's working set whatever the arm count:
# accept_counts draws at most this // arms rounds of an arm per call, and an elimination
# block's utilities take 8 bytes per arm-round
_BLOCK_ARM_ROUNDS = 1 << 19
# Generator.random returns multiples of this in [0, 1)
_UNIT = 2.0 ** -53
# top bits of the honest-noise word that key a physical round's table lookup: each
# (component, sign) pair has a table row of 2**_V_BITS entries, about 2 of them edges
_V_BITS = 12
# half-width of the guard band around each acceptance edge in noise space, relative to
# big_m + z + eta * delta; near an edge the acceptance test's rounding stays below 2**-52 of it
_GATE_BAND = 1e-12


def make_rng(*key: int) -> np.random.Generator:
    """Deterministic generator for an integer key path (seed, trial, arm, ...)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


@dataclass(frozen=True)
class MixtureAdversary:
    """Finite mixture of report offsets; the sign of each draw is flipped fairly.

    Offsets are nonnegative magnitudes; weights sum to one. A point mass is
    the single-component special case.
    """

    offsets: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.weights) or not self.offsets:
            raise ValueError("offsets and weights must be nonempty and aligned")
        if not all(0.0 <= z < np.inf for z in self.offsets):
            raise ValueError("offsets must be finite and nonnegative")
        if not all(0.0 <= w < np.inf for w in self.weights):
            raise ValueError("weights must be finite and nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def point_mass(cls, z: float) -> "MixtureAdversary":
        return cls((float(z),), (1.0,))

    def check_span(self, scenario: Scenario) -> None:
        if max(self.offsets) > scenario.big_m:
            raise ValueError(f"offset {max(self.offsets)!r} exceeds scenario.big_m = "
                             f"{scenario.big_m!r}, the scenario's plausible span")

    def cumulative_weights(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.weights, dtype=float))


def step_bernoulli(rng: np.random.Generator, alpha: float) -> bool:
    """One accept/reject coin at acceptance rate ``alpha``, one uniform from ``rng``.

    No ``goc`` command calls it; the benchmark tracer (``bench/spans.py``
    ``TRACED``) wraps it by name, so it stays until the tracer drops it.
    """
    return bool(rng.random() < alpha)


@dataclass
class PhysicalBatch:
    """Vectorized physical rounds; fields align by round index."""

    accepted: np.ndarray
    estimate: np.ndarray
    u_true: np.ndarray


def _physical_from_uniforms(
    scenario: Scenario, eta: float, adv: MixtureAdversary, draws: np.ndarray
) -> PhysicalBatch:
    u = (2.0 * draws[:, 0] - 1.0) * scenario.big_m
    n_h = scenario.noise.ppf(draws[:, 1])
    # the mixture component: how many cumulative weights, the last one excepted, are at or
    # below the round's uniform; the offset is added at a sign uniform of 0.5 or more
    comp = np.zeros(len(draws), dtype=np.intp)
    for w in adv.cumulative_weights()[:-1]:
        comp += draws[:, 2] >= w
    n_a = np.where(draws[:, 3] >= 0.5, 1.0, -1.0) * np.asarray(adv.offsets, dtype=float)[comp]
    y_h = u + n_h
    y_a = u + n_a
    return PhysicalBatch(accepted=np.abs(y_h - y_a) <= eta * scenario.delta,
                         estimate=0.5 * (y_h + y_a), u_true=u)


def physical_rounds(
    scenario: Scenario,
    eta: float,
    adv: MixtureAdversary,
    rng: np.random.Generator,
    n_rounds: int,
) -> PhysicalBatch:
    """Vectorized physical rounds drawing five uniforms per round, in round order, from ``rng``.

    Consecutive calls on one stream therefore reproduce a single call for
    all their rounds.
    """
    check_eta(eta)
    adv.check_span(scenario)
    return _physical_from_uniforms(scenario, eta, adv, rng.random((n_rounds, _PHYS_DRAWS)))


def envelope_witness_mixture(
    scenario: Scenario, table: EnvelopeTable, alpha: float
) -> MixtureAdversary:
    """Two-offset mixture attaining the value curve at ``alpha``.

    Mixes the offsets of the two envelope-hull vertices bracketing
    ``alpha`` so the acceptance probability is exactly ``alpha`` and the
    conditional midpoint MSE equals ``c_eta(alpha)``. At a vertex the
    witness is that vertex's point mass.
    """
    q = table.hull_q
    if not (q[0] - 1e-12 <= alpha <= q[-1] + 1e-12):
        raise ValueError("alpha outside the envelope's acceptance range")
    alpha = float(np.clip(alpha, q[0], q[-1]))
    j = int(np.searchsorted(q, alpha, side="right"))
    j = min(max(j, 1), q.size - 1)
    q_lo, q_hi = float(q[j - 1]), float(q[j])
    if alpha == q_lo or alpha >= q_hi:  # a hull vertex, q_hi == q_lo included
        return MixtureAdversary.point_mass(float(k_inverse(scenario, table.eta, alpha)))
    z_lo = float(k_inverse(scenario, table.eta, q_lo))
    z_hi = float(k_inverse(scenario, table.eta, q_hi))
    w_lo = (q_hi - alpha) / (q_hi - q_lo)
    return MixtureAdversary((z_lo, z_hi), (w_lo, 1.0 - w_lo))


def _gate_thresholds(
    scenario: Scenario, etas: Sequence[float], advs: Sequence[MixtureAdversary]
) -> list[np.ndarray]:
    """Per arm, the honest-noise uniforms that bound its acceptance region and guard bands.

    Round ``r`` of an arm with eta ``e`` and mixture ``adv`` is accepted when
    ``|fl(u + n_h) - fl(u + n_a)| <= c`` with ``c = e * delta``. Here
    ``|u| <= big_m`` and ``n_a = +-z``, so near an edge ``u`` cancels up to
    rounding below ``2**-52 (big_m + z + c)``, and acceptance depends only on
    where ``n_h = ppf(v)`` falls against the edges ``n_a - c`` and ``n_a + c``.
    Row ``2 * component + plus`` of an arm's int64 ``(2 * components, 4)``
    array holds, for the targets ``n_a - c - tau``, ``n_a - c + tau``,
    ``n_a + c - tau`` and ``n_a + c + tau`` (``tau = _GATE_BAND (big_m + z + c)``),
    the least integer ``t`` with ``ppf(t 2**-53)`` at or above the target
    (``2**53`` if none): a bisection on ``noise.ppf`` itself, over every arm at once.
    """
    targets = []
    for eta, adv in zip(etas, advs):
        c = float(eta) * scenario.delta
        n_a = np.outer(adv.offsets, [-1.0, 1.0]).ravel()
        tau = _GATE_BAND * (scenario.big_m + np.abs(n_a) + c)
        edge = np.array([[-c], [-c], [c], [c]])
        side = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        targets.append(n_a + edge + side * tau)
    x = np.hstack(targets)
    # invariant: ppf below the target at lo (or lo = -1), not below it at hi (or hi = 2**53)
    lo = np.full(x.shape, -1, dtype=np.int64)
    hi = np.full(x.shape, 2 ** 53, dtype=np.int64)
    while np.any(open_ := hi - lo > 1):
        mid = (lo + hi) // 2
        # a NaN quantile counts as above every target, so its round rejects as the full test does
        up = ~(scenario.noise.ppf(np.maximum(mid, 0) * _UNIT) < x)
        hi = np.where(open_ & up, mid, hi)
        lo = np.where(open_ & ~up, mid, lo)
    return np.split(np.ascontiguousarray(hi.T), np.cumsum([t.shape[1] for t in targets])[:-1])


@dataclass(frozen=True)
class _Gate:
    """One physical arm's acceptance decision on raw 64-bit draws, built once per instance.

    A round's key is ``pair << _V_BITS | bucket``: ``pair = 2 * component +
    plus`` and ``bucket``, the top ``_V_BITS`` bits of the honest-noise word,
    which equal ``floor(v 2**_V_BITS)`` for the uniform ``v`` that
    ``Generator.random`` makes of it. ``thresholds`` is the arm's array from
    ``_gate_thresholds``, one row per pair. ``table[key]``, int8, is 1 where
    every uniform of the bucket reaches exactly two of its pair's thresholds (accepted),
    0 where they all reach none or all four (rejected), and 2 at an edge: a
    bucket that holds one of the pair's thresholds, or whose level is odd.
    ``cuts`` are the raw component words at which the component index steps
    up, one per cumulative weight, the last one excepted, that a uniform can reach.
    """

    scenario: Scenario
    eta: float
    adv: MixtureAdversary
    thresholds: np.ndarray
    cuts: np.ndarray
    table: np.ndarray

    @classmethod
    def build(
        cls, scenario: Scenario, eta: float, adv: MixtureAdversary, thresholds: np.ndarray
    ) -> "_Gate":
        # d >= w holds for d = (raw >> 11) 2**-53 exactly when raw >= ceil(w 2**53) << 11
        cuts = np.ceil(adv.cumulative_weights()[:-1] * 2.0 ** 53)
        cuts = cuts[cuts < 2.0 ** 53].astype(np.uint64) << np.uint64(11)
        # per pair, how many thresholds fall in each bucket (the last one: none); in a
        # bucket no threshold falls in, every uniform reaches exactly those in the buckets
        # up to it, a count that assumes nothing about the thresholds' order
        pairs = np.arange(len(thresholds))[:, None]
        held = np.zeros((len(thresholds), (1 << _V_BITS) + 1), dtype=np.int64)
        np.add.at(held, (pairs, thresholds >> (53 - _V_BITS)), 1)
        level = np.cumsum(held, axis=1)
        edge = (held > 0) | (level & 1 == 1)
        table = np.where(edge, 2, level == 2)[:, :-1].astype(np.int8).ravel()
        return cls(scenario, eta, adv, thresholds, cuts, table)

    def decide(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Acceptance bits of physical rounds equal to ``_physical_from_uniforms(...).accepted``.

        ``raw`` holds each round's five 64-bit words from ``random_raw``, whose
        uniforms ``Generator.random`` would return as ``(raw >> 11) 2**-53``.
        Most rounds are decided by one lookup of their key in ``table``. Edge
        rounds count how many of their pair's four ``thresholds`` the
        honest-noise uniform ``v`` reaches. For a ``v`` that ``Generator.random``
        can return, ``ppf(v)`` then lies below the first target (count 0:
        rejected), between the second and third (2: accepted) or above the fourth
        (4: rejected), up to ``ppf``'s own ulp-level wobble; a guard band ``tau``
        wide exceeds that wobble plus the test's rounding, so these rounds decide
        the same as the full test. Odd counts lie in a band and go through
        ``_physical_from_uniforms``. Returns the bits and the indices of banded rounds.
        """
        key = raw[:, 3] >> 63
        key <<= _V_BITS
        key |= raw[:, 1] >> (64 - _V_BITS)
        key = key.view(np.int64)
        for cut in self.cuts:
            key += (raw[:, 2] >= cut) << (_V_BITS + 1)
        entry = self.table.take(key)
        accepted = entry == 1
        edge = (entry == 2).nonzero()[0]
        band = edge[:0]
        if edge.size:
            v = (raw.take(edge, axis=0)[:, 1] >> 11).view(np.int64)  # in units of 2**-53
            pair = key.take(edge) >> _V_BITS
            level = np.count_nonzero(v[:, None] >= self.thresholds.take(pair, axis=0), axis=1)
            accepted[edge] = level == 2
            band = edge[level & 1 == 1]
            if band.size:
                draws = (raw.take(band, axis=0) >> 11) * _UNIT
                accepted[band] = _physical_from_uniforms(self.scenario, self.eta, self.adv,
                                                         draws).accepted
        return accepted, band


def physical_gates(
    scenario: Scenario, tables: Sequence[EnvelopeTable], alphas: Sequence[float]
) -> tuple[_Gate, ...]:
    """Each arm's ``_Gate``: ``tables[i]`` against its witness mixture at the rate ``alphas[i]``.

    Like ``physical_rounds``, it rejects an offset beyond ``scenario.big_m``.
    """
    advs = [envelope_witness_mixture(scenario, t, a) for t, a in zip(tables, alphas, strict=True)]
    for table, adv in zip(tables, advs):
        try:
            adv.check_span(scenario)
        except ValueError as exc:
            raise ValueError(f"learner.b: arm eta = {table.eta!r}: witness {exc}") from None
    etas = [t.eta for t in tables]
    return tuple(_Gate.build(scenario, eta, adv, t)
                 for eta, adv, t in zip(etas, advs, _gate_thresholds(scenario, etas, advs)))


class _ArmEnv:
    """Per-arm streams for one learning trial; subclasses supply each arm's block sampler.

    ``arms[i]`` is all arm ``i``'s sampler reads: its best-response acceptance
    rate or its ``_Gate``, resolved once per instance by ``prepare_instance``.
    The environment draws only: the value curves that score an arm stay with the
    learners. Arm ``i`` owns the stream keyed ``(seed, trial, i)``, so matched-seed
    comparisons see identical draws. Each stream is read in round order: a
    block may list any subset of the arms, each of which must have been drawn
    up to the block's first round. Per arm, the environment records how many
    rounds it drew and how many of them accepted; that is its only draw state.
    """

    def __init__(self, arms: Sequence, base_seed: int, trial: int) -> None:
        self.arms = tuple(arms)
        self._gens = [make_rng(base_seed, trial, i) for i in range(self.n_arms)]
        self._drawn = np.zeros(self.n_arms, dtype=np.int64)  # each arm's next round
        self._counts = np.zeros(self.n_arms, dtype=np.int64)  # its accepts before that round

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def acceptance_block(self, r0: int, r1: int, arms: Sequence[int] | None = None) -> np.ndarray:
        """Boolean matrix (listed arm, round) for rounds ``r0 .. r1-1``.

        ``arms`` lists arm indices in ascending order, ``None`` meaning every
        arm. Each stream is read in round order, so every listed arm must have
        been drawn up to ``r0`` (by blocks or ``accept_counts``), and ``r1``
        may not precede ``r0``; otherwise ``ValueError``. Row ``j`` equals arm
        ``arms[j]``'s row in a block drawn for every arm.
        """
        rows = np.arange(self.n_arms) if arms is None else np.asarray(arms, dtype=np.intp)
        if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or (
                rows.size and (rows[0] < 0 or rows[-1] >= self.n_arms)):
            raise ValueError("arms must be ascending indices of this environment's arms")
        if r1 < r0 or np.any(self._drawn[rows] != r0):
            raise ValueError(f"each stream is read in round order: a block of rounds "
                             f"[{r0}, {r1}) must start at each listed arm's next round")
        out = np.empty((rows.size, r1 - r0), dtype=bool)
        for j, i in enumerate(rows):
            out[j] = self._accepted(int(i), r1 - r0)
            self._counts[i] += np.count_nonzero(out[j])
        self._drawn[rows] = r1
        return out

    def accept_counts(self, k: int) -> np.ndarray:
        """Every arm's accept count over rounds ``0 .. k-1``, as an int64 array.

        Rounds that blocks already drew count as drawn, the whole last block of
        an arm that elimination dropped included; only each stream's rest is
        drawn, at most ``_BLOCK_ARM_ROUNDS // n_arms`` rounds per call. Each
        stream is read in round order, so an arm already drawn past round
        ``k`` raises ``ValueError``, and a later block continues from ``k``.
        """
        if np.any(self._drawn > k):
            raise ValueError(f"each stream is read in round order: an arm was already "
                             f"drawn past round {k}")
        chunk = max(1, _BLOCK_ARM_ROUNDS // self.n_arms)
        for i in range(self.n_arms):
            for r0 in range(int(self._drawn[i]), k, chunk):
                self._counts[i] += np.count_nonzero(self._accepted(i, min(chunk, k - r0)))
        self._drawn[:] = k
        return self._counts.copy()


class BernoulliArmEnv(_ArmEnv):
    """Accept/reject coins; ``arms[i]`` is arm ``i``'s best-response acceptance rate."""

    def _accepted(self, i: int, n: int) -> np.ndarray:
        return self._gens[i].random(n) < self.arms[i]


class PhysicalArmEnv(_ArmEnv):
    """Full simulated games; ``arms[i]`` is arm ``i``'s ``_Gate`` (see ``physical_gates``).

    Each arm's envelope-witness mixture realizes its best-response acceptance
    level, so acceptance statistics match the Bernoulli mode in law. Each round
    still consumes five 64-bit words, the stream positions of its five
    uniforms; most rounds are decided by one lookup in the arm's ``_Gate``
    table, and only rounds in one of its guard bands build the report pair.
    """

    def _accepted(self, i: int, n: int) -> np.ndarray:
        raw = self._gens[i].bit_generator.random_raw(n * _PHYS_DRAWS).reshape(n, _PHYS_DRAWS)
        return self.arms[i].decide(raw)[0]
