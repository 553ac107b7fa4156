"""Multi-round interaction between the collector and a myopic adversary.

Two modes: a fast Bernoulli mode where each round only reveals the
accept/reject coin with the best-response acceptance rate, and a physical
mode that simulates the full report pair against an offset-mixture
adversary. Randomness comes from per-(trial, arm) streams addressed by a
seed key, so the draw for any given round is independent of execution
order; splitting a run into consecutive blocks yields the same values.

The learners' arm environments draw only the arms a block lists, and an
arm left out of a block is retired for good, so each stream is still read
in round order. A learner sees only the accept bit, so the physical arm
environment decides most rounds from the honest-noise uniform alone (see
``_gate``) and builds the report pair only for rounds near an acceptance
edge; the bits equal the full simulation's by construction. ``goc
simulate`` and ``physical_rounds`` keep the full batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from goc.envelope import EnvelopeTable, check_eta, k_inverse
from goc.noise import Scenario

# per-round uniform draws consumed in physical mode, in order: value, honest noise,
# mixture component, offset sign, and a fifth that no output reads, still drawn so that
# every round reads the same stream positions and every output stays the same
_PHYS_DRAWS = 5
# Generator.random returns multiples of this in [0, 1)
_UNIT = 2.0 ** -53
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


def _offset_choice(adv: MixtureAdversary, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each round's mixture component, and whether its offset is added (``True``) or subtracted.

    The component is the number of cumulative weights, the last one excepted,
    at or below the round's uniform.
    """
    comp = np.zeros(len(draws), dtype=np.intp)
    for w in adv.cumulative_weights()[:-1]:
        comp += draws[:, 2] >= w
    return comp, draws[:, 3] >= 0.5


def _physical_from_uniforms(
    scenario: Scenario, eta: float, adv: MixtureAdversary, draws: np.ndarray
) -> PhysicalBatch:
    u = (2.0 * draws[:, 0] - 1.0) * scenario.big_m
    n_h = scenario.noise.ppf(draws[:, 1])
    comp, plus = _offset_choice(adv, draws)
    n_a = np.where(plus, 1.0, -1.0) * np.asarray(adv.offsets, dtype=float)[comp]
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
    conditional midpoint MSE equals ``c_eta(alpha)``.
    """
    q = table.hull_q
    if not (q[0] - 1e-12 <= alpha <= q[-1] + 1e-12):
        raise ValueError("alpha outside the envelope's acceptance range")
    alpha = float(np.clip(alpha, q[0], q[-1]))
    j = int(np.searchsorted(q, alpha, side="right"))
    j = min(max(j, 1), q.size - 1)
    q_lo, q_hi = float(q[j - 1]), float(q[j])
    z_lo = float(k_inverse(scenario, table.eta, q_lo))
    z_hi = float(k_inverse(scenario, table.eta, q_hi))
    if q_hi == q_lo or alpha >= q_hi:
        return MixtureAdversary.point_mass(z_hi)
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
    Column ``2 * component + plus`` of an arm's ``(4, 2 * components)`` array
    holds, for the targets ``n_a - c - tau``, ``n_a - c + tau``, ``n_a + c - tau``
    and ``n_a + c + tau`` (``tau = _GATE_BAND (big_m + z + c)``), the least
    multiple ``t`` of ``2**-53`` with ``ppf(t)`` at or above the target (1 if
    none): a bisection on ``noise.ppf`` itself, over every arm at once.
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
    return np.split(hi * _UNIT, np.cumsum([t.shape[1] for t in targets])[:-1], axis=1)


def _gate(
    scenario: Scenario, eta: float, adv: MixtureAdversary, thresholds: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance bits of physical rounds equal to ``_physical_from_uniforms(...).accepted``.

    Counts how many of its pair's four ``thresholds`` (from ``_gate_thresholds``)
    each round's honest-noise uniform ``v`` reaches. For a ``v`` that
    ``Generator.random`` can return, ``ppf(v)`` then lies below the first
    target (count 0: rejected), between the second and third (2: accepted)
    or above the fourth (4: rejected), up to ``ppf``'s own ulp-level wobble;
    a guard band ``tau`` wide exceeds that wobble plus the test's rounding, so
    these rounds decide the same as the full test. Odd counts lie in a band
    and go through ``_physical_from_uniforms``. Returns the bits and the mask
    of banded rounds.
    """
    comp, plus = _offset_choice(adv, draws)
    pair = 2 * comp + plus
    v = np.ascontiguousarray(draws[:, 1])
    level = (v >= thresholds[0].take(pair)).view(np.int8).copy()
    for t in thresholds[1:]:
        level += (v >= t.take(pair)).view(np.int8)
    accepted = level == 2
    band = (level & 1).view(bool)
    if band.any():
        accepted[band] = _physical_from_uniforms(scenario, eta, adv, draws[band]).accepted
    return accepted, band


class _ArmEnv:
    """Per-arm streams for one learning trial; subclasses supply each arm's block sampler.

    Arm ``i`` is ``tables[i]``'s threshold, accepted at the rate ``alphas[i]``
    (its best response, which ``prepare_instance`` resolves once per instance),
    and owns the stream keyed ``(seed, trial, i)``; blocks must be
    requested in round order, and all arms share the block schedule so
    matched-seed algorithm comparisons see identical draws. A block may list
    a subset of the arms; an arm left out is retired and never drawn again.
    """

    def __init__(
        self,
        scenario: Scenario,
        tables: Sequence[EnvelopeTable],
        alphas: Sequence[float],
        base_seed: int,
        trial: int,
    ) -> None:
        if len(alphas) != len(tables):
            raise ValueError("alphas and tables must align")
        self.scenario = scenario
        self.tables = list(tables)
        self.alphas = np.asarray(alphas, dtype=float)
        self._gens = [make_rng(base_seed, trial, i) for i in range(len(tables))]
        self._pos = 0
        self._live = np.ones(len(tables), dtype=bool)

    @property
    def n_arms(self) -> int:
        return len(self.tables)

    def acceptance_block(self, r0: int, r1: int, arms: Sequence[int] | None = None) -> np.ndarray:
        """Boolean matrix (listed arm, round) for rounds ``r0 .. r1-1``.

        ``arms`` lists arm indices in ascending order, ``None`` meaning every
        arm. Blocks must follow one another, and an arm left out of a block is
        retired: asking for it again raises ``ValueError``. Row ``j`` equals
        arm ``arms[j]``'s row in a block drawn for every arm.
        """
        if r0 != self._pos or r1 < r0:
            raise ValueError("blocks must be requested sequentially")
        rows = np.arange(self.n_arms) if arms is None else np.asarray(arms, dtype=np.intp)
        if rows.ndim != 1 or np.any(np.diff(rows) <= 0) or (
                rows.size and (rows[0] < 0 or rows[-1] >= self.n_arms)):
            raise ValueError("arms must be ascending indices of this environment's arms")
        if not self._live[rows].all():
            raise ValueError("a retired arm cannot be drawn again")
        self._pos = r1
        self._live[:] = False
        self._live[rows] = True
        out = np.empty((rows.size, r1 - r0), dtype=bool)
        for j, i in enumerate(rows):
            out[j] = self._accepted(int(i), r1 - r0)
        return out


class BernoulliArmEnv(_ArmEnv):
    """Accept/reject coins with each arm's best-response acceptance rate."""

    def _accepted(self, i: int, n: int) -> np.ndarray:
        return self._gens[i].random(n) < self.alphas[i]


class PhysicalArmEnv(_ArmEnv):
    """Full simulated games against each arm's envelope-witness mixture.

    The mixture realizes the arm's best-response acceptance level, so
    acceptance statistics match the Bernoulli mode in law. Each round still
    consumes five uniforms, but only rounds in a guard band of ``_gate``
    build the report pair.
    """

    @cached_property
    def adversaries(self) -> list[MixtureAdversary]:
        return [
            envelope_witness_mixture(self.scenario, t, a) for t, a in zip(self.tables, self.alphas)
        ]

    @cached_property
    def _thresholds(self) -> list[np.ndarray]:
        return _gate_thresholds(self.scenario, [t.eta for t in self.tables], self.adversaries)

    def _accepted(self, i: int, n: int) -> np.ndarray:
        draws = self._gens[i].random((n, _PHYS_DRAWS))
        return _gate(self.scenario, self.tables[i].eta, self.adversaries[i],
                     self._thresholds[i], draws)[0]
