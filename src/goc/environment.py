"""Multi-round interaction between the collector and a myopic adversary.

Two modes: a fast Bernoulli mode where each round only reveals the
accept/reject coin with the best-response acceptance rate, and a physical
mode that simulates the full report pair against an offset-mixture
adversary. Randomness comes from per-(trial, arm) streams addressed by a
seed key, so the draw for any given round is independent of execution
order; splitting a run into consecutive blocks yields the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from goc.envelope import EnvelopeTable, k_inverse
from goc.noise import Scenario
from goc.oracle import best_response
from goc.utility import UtilitySpec

# per-round uniform draws consumed in physical mode, in order:
# value, honest noise, mixture component, offset sign, presentation order
_PHYS_DRAWS = 5


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
        if any(z < 0.0 or not np.isfinite(z) for z in self.offsets):
            raise ValueError("offsets must be finite and nonnegative")
        if any(w < 0.0 for w in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")

    @classmethod
    def point_mass(cls, z: float) -> "MixtureAdversary":
        return cls((float(z),), (1.0,))

    def check_span(self, scenario: Scenario) -> None:
        if max(self.offsets) > scenario.big_m:
            raise ValueError("offset exceeds the scenario's plausible span")

    def cumulative_weights(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class RoundObservation:
    """One round as seen by the collector; what ``step_bernoulli`` returns."""

    round: int
    eta_committed: float
    accepted: bool


def step_bernoulli(
    spec: UtilitySpec,
    table: EnvelopeTable,
    rng: np.random.Generator,
    round_index: int = 0,
    alpha: float | None = None,
) -> RoundObservation:
    """One accept/reject coin with the best-response acceptance rate.

    Pass a precomputed ``alpha`` in loops; otherwise the best response is
    recomputed from the table each call. No ``goc`` command calls it; the
    benchmark tracer (``bench/spans.py`` ``TRACED``) wraps it by name, so it
    stays until the tracer drops it.
    """
    if alpha is None:
        alpha = best_response(table, spec).alpha_star
    accepted = bool(rng.random() < alpha)
    return RoundObservation(round=round_index, eta_committed=table.eta, accepted=accepted)


@dataclass
class PhysicalBatch:
    """Vectorized physical rounds; fields align by round index."""

    eta: float
    accepted: np.ndarray
    estimate: np.ndarray
    u_true: np.ndarray
    honest_first: np.ndarray


def _physical_from_uniforms(
    scenario: Scenario, eta: float, adv: MixtureAdversary, draws: np.ndarray
) -> PhysicalBatch:
    u = (2.0 * draws[:, 0] - 1.0) * scenario.big_m
    n_h = scenario.noise.ppf(draws[:, 1])
    comp = np.searchsorted(adv.cumulative_weights(), draws[:, 2], side="right")
    comp = np.minimum(comp, len(adv.offsets) - 1)
    z = np.asarray(adv.offsets, dtype=float)[comp]
    sign = np.where(draws[:, 3] < 0.5, -1.0, 1.0)
    n_a = sign * z
    honest_first = draws[:, 4] < 0.5
    y_h = u + n_h
    y_a = u + n_a
    y1 = np.where(honest_first, y_h, y_a)
    y2 = np.where(honest_first, y_a, y_h)
    accepted = np.abs(y1 - y2) <= eta * scenario.delta
    estimate = 0.5 * (y1 + y2)
    return PhysicalBatch(
        eta=float(eta),
        accepted=accepted,
        estimate=estimate,
        u_true=u,
        honest_first=honest_first,
    )


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
    if eta < 2.0:
        raise ValueError("eta must be >= 2")
    adv.check_span(scenario)
    return _physical_from_uniforms(scenario, eta, adv, rng.random((n_rounds, _PHYS_DRAWS)))


def empirical_conditional_mse(batch: PhysicalBatch) -> float:
    """Mean squared estimation error over accepted rounds; raises if none were accepted."""
    mask = batch.accepted
    if not np.any(mask):
        raise ValueError("no accepted rounds: conditional MSE undefined")
    err = batch.u_true[mask] - batch.estimate[mask]
    return float(np.mean(np.square(err)))


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


class _ArmEnv:
    """Per-arm streams for one learning trial; subclasses supply the block sampler.

    Arm ``i`` owns the stream keyed ``(seed, trial, i)``; blocks must be
    requested in round order per arm, and all arms share the block schedule
    so matched-seed algorithm comparisons see identical draws.
    """

    def __init__(
        self,
        scenario: Scenario,
        spec: UtilitySpec,
        etas: Sequence[float],
        tables: Sequence[EnvelopeTable],
        base_seed: int,
        trial: int,
    ) -> None:
        if len(etas) != len(tables):
            raise ValueError("etas and tables must align")
        self.scenario = scenario
        self.spec = spec
        self.etas = np.asarray(etas, dtype=float)
        self.tables = list(tables)
        self.alphas = np.array([best_response(t, spec).alpha_star for t in tables])
        self._gens = [make_rng(base_seed, trial, i) for i in range(len(tables))]
        self._pos = 0

    @property
    def n_arms(self) -> int:
        return len(self.tables)

    def _advance(self, r0: int, r1: int) -> int:
        """Claim rounds ``r0 .. r1-1``, which must follow the last block; returns their count."""
        if r0 != self._pos or r1 < r0:
            raise ValueError("blocks must be requested sequentially")
        self._pos = r1
        return r1 - r0


class BernoulliArmEnv(_ArmEnv):
    """Accept/reject coins with each arm's best-response acceptance rate."""

    def acceptance_block(self, r0: int, r1: int) -> np.ndarray:
        """Boolean matrix (arm, round) for rounds ``r0 .. r1-1``; sequential access only."""
        n = self._advance(r0, r1)
        out = np.empty((self.n_arms, n), dtype=bool)
        for i, gen in enumerate(self._gens):
            out[i] = gen.random(n) < self.alphas[i]
        return out


class PhysicalArmEnv(_ArmEnv):
    """Full simulated games against each arm's envelope-witness mixture.

    The mixture realizes the arm's best-response acceptance level, so
    acceptance statistics match the Bernoulli mode in law.
    """

    @cached_property
    def adversaries(self) -> list[MixtureAdversary]:
        return [
            envelope_witness_mixture(self.scenario, t, a) for t, a in zip(self.tables, self.alphas)
        ]

    def acceptance_block(self, r0: int, r1: int) -> np.ndarray:
        """Boolean matrix (arm, round) for rounds ``r0 .. r1-1``; sequential access only."""
        n = self._advance(r0, r1)
        out = np.empty((self.n_arms, n), dtype=bool)
        for i, gen in enumerate(self._gens):
            batch = _physical_from_uniforms(
                self.scenario, float(self.etas[i]), self.adversaries[i], gen.random((n, _PHYS_DRAWS))
            )
            out[i] = batch.accepted
        return out
