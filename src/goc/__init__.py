"""Threshold-acceptance games against a rational reporting adversary.

A data collector estimates a hidden value from one honest and one
adversarial report, accepting the pair only when the reports are close.
This package computes the adversary's value curve (worst conditional MSE
as a function of acceptance probability), solves the committed-threshold
game, simulates the multi-round interaction, and runs the two
threshold-learning algorithms together with brute-force verification.
Public names live in their modules (``goc.envelope``, ``goc.learners``, ...).
"""

__version__ = "0.1.0"
