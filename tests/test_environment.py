import numpy as np
import pytest

from goc.envelope import build_envelope_table, envelope_slack, k_eta, nu_eta
from goc.environment import (
    BernoulliArmEnv,
    MixtureAdversary,
    empirical_conditional_mse,
    envelope_witness_mixture,
    make_rng,
    physical_rounds,
    step_bernoulli,
)
from goc.noise import truncated_gaussian_scenario
from goc.oracle import best_response


def mse_with_stderr(batch):
    err2 = np.square(batch.u_true[batch.accepted] - batch.estimate[batch.accepted])
    return float(err2.mean()), float(err2.std(ddof=1) / np.sqrt(err2.size))


def test_zero_offset_always_accepted(unif):
    batch = physical_rounds(unif, 2.0, MixtureAdversary.point_mass(0.0), make_rng(1, 2), 10**4)
    assert np.all(batch.accepted)


def test_far_offset_never_accepted(unif):
    adv = MixtureAdversary.point_mass((2.0 + 2.0) * unif.delta)  # gap exceeds the window a.s.
    batch = physical_rounds(unif, 2.0, adv, make_rng(1, 3), 10**4)
    assert not np.any(batch.accepted)


def test_boundary_offset_acceptance_rate(unif):
    eta = 2.0
    z = eta * unif.delta
    batch = physical_rounds(unif, eta, MixtureAdversary.point_mass(z), make_rng(1, 4), 10**6)
    rate = float(np.mean(batch.accepted))
    assert rate == pytest.approx(k_eta(unif, eta, z), abs=0.002)


@pytest.mark.parametrize("eta,z", [(2.0, 1.0), (2.0, 1.5), (3.0, 3.5)])
def test_conditional_mse_identity(unif, eta, z):
    # the core bridge: physical conditional MSE equals nu(z) / (4 k(z))
    batch = physical_rounds(unif, eta, MixtureAdversary.point_mass(z), make_rng(2, int(10 * z)), 10**6)
    mse, se = mse_with_stderr(batch)
    expected = nu_eta(unif, eta, z) / (4.0 * k_eta(unif, eta, z))
    assert abs(mse - expected) <= 3.0 * se


def test_mixture_bridge(unif):
    eta = 2.5
    adv = MixtureAdversary((1.6, 3.2), (0.7, 0.3))
    batch = physical_rounds(unif, eta, adv, make_rng(2, 9), 10**6)
    k = np.array([k_eta(unif, eta, z) for z in adv.offsets])
    nu = np.array([nu_eta(unif, eta, z) for z in adv.offsets])
    w = np.asarray(adv.weights)
    rate = float(np.mean(batch.accepted))
    assert rate == pytest.approx(float(w @ k), abs=3.0 * np.sqrt(0.25 / batch.accepted.size))
    mse, se = mse_with_stderr(batch)
    assert abs(mse - float(w @ nu) / (4.0 * float(w @ k))) <= 3.0 * se


def test_near_noiseless_mse_vanishes():
    scenario = truncated_gaussian_scenario(sigma=1e-6, delta=1.0, big_m=1e4)
    batch = physical_rounds(scenario, 2.0, MixtureAdversary.point_mass(0.0), make_rng(3, 1), 10**4)
    assert empirical_conditional_mse(batch) < 1e-10


def test_no_accepted_rounds_signals(unif):
    adv = MixtureAdversary.point_mass(4.0)
    batch = physical_rounds(unif, 2.0, adv, make_rng(3, 2), 100)
    with pytest.raises(ValueError, match="no accepted rounds"):
        empirical_conditional_mse(batch)


def test_order_randomization(unif):
    batch = physical_rounds(unif, 2.0, MixtureAdversary.point_mass(1.0), make_rng(3, 4), 10**5)
    frac = float(np.mean(batch.honest_first))
    assert abs(frac - 0.5) <= 0.01


def test_physical_rounds_chunk_invariant(unif):
    adv = MixtureAdversary((1.2, 2.4), (0.5, 0.5))
    bulk = physical_rounds(unif, 2.5, adv, make_rng(4, 5), 64)
    # the same stream split into consecutive calls, single rounds included,
    # must reproduce the bulk rounds exactly
    gen = make_rng(4, 5)
    parts = [physical_rounds(unif, 2.5, adv, gen, n) for n in (1, 1, 17, 45)]
    for field in ("accepted", "estimate", "u_true", "honest_first"):
        joined = np.concatenate([getattr(b, field) for b in parts])
        assert np.array_equal(joined, getattr(bulk, field)), field


def test_step_bernoulli_rate_and_determinism(spec_default, table_unif_25):
    alpha = best_response(table_unif_25, spec_default).alpha_star
    gen = make_rng(5, 6)
    hits = sum(
        step_bernoulli(spec_default, table_unif_25, gen, round_index=i, alpha=alpha).accepted
        for i in range(10**5)
    )
    assert hits / 10**5 == pytest.approx(alpha, abs=3.2 * np.sqrt(alpha * (1 - alpha) / 10**5))
    seq1 = [step_bernoulli(spec_default, table_unif_25, make_rng(5, 7), i).accepted for i in range(50)]
    seq2 = [step_bernoulli(spec_default, table_unif_25, make_rng(5, 7), i).accepted for i in range(50)]
    assert seq1 == seq2


def test_degenerate_bernoulli_always_accepts(spec_pa_only, table_unif_2):
    gen = make_rng(5, 8)
    assert all(
        step_bernoulli(spec_pa_only, table_unif_2, gen, alpha=1.0).accepted for _ in range(100)
    )


def test_mode_equivalence(unif, spec_default):
    # physical play against the envelope-witness mixture reproduces the
    # Bernoulli acceptance rate of the best response
    eta = 3.0
    table = build_envelope_table(unif, eta)
    alpha = best_response(table, spec_default).alpha_star
    adv = envelope_witness_mixture(unif, table, alpha)
    batch = physical_rounds(unif, eta, adv, make_rng(6, 1), 10**5)
    rate = float(np.mean(batch.accepted))
    assert abs(rate - alpha) <= 3.0 * np.sqrt(alpha * (1.0 - alpha) / 10**5)


@pytest.mark.parametrize("eta,alpha", [(2.0, 0.3), (2.5, 0.6), (4.0, 0.9)])
def test_witness_mixture_attains_curve(unif, eta, alpha):
    # acceptance pins to alpha and the conditional MSE lands on the curve,
    # within the sandwich slack plus Monte-Carlo error
    table = build_envelope_table(unif, eta)
    adv = envelope_witness_mixture(unif, table, alpha)
    batch = physical_rounds(unif, eta, adv, make_rng(6, int(eta * 10)), 4 * 10**5)
    rate = float(np.mean(batch.accepted))
    assert abs(rate - alpha) <= 3.5 * np.sqrt(alpha * (1.0 - alpha) / batch.accepted.size)
    mse, se = mse_with_stderr(batch)
    c_val = float(table.c_at(alpha))
    assert mse <= c_val + 3.0 * se + envelope_slack(unif, eta)
    assert mse == pytest.approx(c_val, abs=4.0 * se)


def test_mixture_validation(unif):
    with pytest.raises(ValueError):
        MixtureAdversary((1.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValueError):
        MixtureAdversary((-1.0,), (1.0,))
    with pytest.raises(ValueError):
        MixtureAdversary((), ())
    big = MixtureAdversary.point_mass(unif.big_m * 2)
    with pytest.raises(ValueError):
        physical_rounds(unif, 2.0, big, make_rng(0), 1)


def test_arm_env_blocks_are_chunk_invariant(unif, spec_default):
    etas = [2.0, 2.5, 3.0]
    tables = [build_envelope_table(unif, e, 801) for e in etas]
    env1 = BernoulliArmEnv(unif, spec_default, etas, tables, base_seed=9, trial=4)
    whole = env1.acceptance_block(0, 1000)
    env2 = BernoulliArmEnv(unif, spec_default, etas, tables, base_seed=9, trial=4)
    parts = np.concatenate(
        [env2.acceptance_block(0, 137), env2.acceptance_block(137, 640), env2.acceptance_block(640, 1000)],
        axis=1,
    )
    assert np.array_equal(whole, parts)
    with pytest.raises(ValueError):
        env2.acceptance_block(0, 10)  # non-sequential
