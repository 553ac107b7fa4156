"""Threshold-acceptance games against a rational reporting adversary.

A data collector estimates a hidden value from one honest and one
adversarial report, accepting the pair only when the reports are close.
This package computes the adversary's value curve (worst conditional MSE
as a function of acceptance probability), solves the committed-threshold
game, simulates the multi-round interaction, and runs the two
threshold-learning algorithms together with brute-force verification.
"""

from goc.noise import HonestNoiseModel, Scenario
from goc.envelope import (
    EnvelopeTable,
    OffsetDomain,
    build_envelope_table,
    concave_envelope,
    k_eta,
    k_inverse,
    nu_eta,
)
from goc.utility import (
    LipschitzEstimate,
    LipschitzProfile,
    UtilitySpec,
    dc_utility_curve,
    estimate_lipschitz,
    q_ad,
    q_dc,
)
from goc.oracle import BestResponse, best_response, realized_u, solve_complete_info
from goc.environment import (
    MixtureAdversary,
    RoundObservation,
    empirical_conditional_mse,
    envelope_witness_mixture,
    step_bernoulli,
)
from goc.learners import (
    ArmState,
    LearnerConfig,
    LearnerOutcome,
    derive_budget,
    elimination_radius,
    run_elimination,
    run_etc,
)
from goc.verify import OracleResult, three_point_spot_check, two_point_oracle

__all__ = [
    "HonestNoiseModel",
    "Scenario",
    "EnvelopeTable",
    "OffsetDomain",
    "build_envelope_table",
    "concave_envelope",
    "k_eta",
    "nu_eta",
    "k_inverse",
    "UtilitySpec",
    "LipschitzProfile",
    "LipschitzEstimate",
    "q_dc",
    "q_ad",
    "dc_utility_curve",
    "estimate_lipschitz",
    "BestResponse",
    "best_response",
    "solve_complete_info",
    "realized_u",
    "MixtureAdversary",
    "RoundObservation",
    "step_bernoulli",
    "empirical_conditional_mse",
    "envelope_witness_mixture",
    "LearnerConfig",
    "ArmState",
    "LearnerOutcome",
    "derive_budget",
    "elimination_radius",
    "run_etc",
    "run_elimination",
    "OracleResult",
    "two_point_oracle",
    "three_point_spot_check",
]

__version__ = "0.1.0"
