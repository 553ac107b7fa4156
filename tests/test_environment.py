import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goc.environment
from goc.envelope import build_envelope_table, k_eta, nu_eta
from goc.environment import (
    BernoulliArmEnv,
    MixtureAdversary,
    PhysicalArmEnv,
    _gate,
    _gate_thresholds,
    _physical_from_uniforms,
    envelope_witness_mixture,
    make_rng,
    physical_rounds,
    step_bernoulli,
)
from goc.learners import LearnerConfig, run_elimination, run_etc
from goc.noise import truncated_gaussian_scenario, uniform_scenario
from goc.oracle import best_response
from goc.utility import LipschitzProfile

from conftest import best_response_rates


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
    assert mse_with_stderr(batch)[0] < 1e-10


def test_physical_rounds_chunk_invariant(unif):
    adv = MixtureAdversary((1.2, 2.4), (0.5, 0.5))
    bulk = physical_rounds(unif, 2.5, adv, make_rng(4, 5), 64)
    # the same stream split into consecutive calls, single rounds included,
    # must reproduce the bulk rounds exactly
    gen = make_rng(4, 5)
    parts = [physical_rounds(unif, 2.5, adv, gen, n) for n in (1, 1, 17, 45)]
    for field in ("accepted", "estimate", "u_true"):
        joined = np.concatenate([getattr(b, field) for b in parts])
        assert np.array_equal(joined, getattr(bulk, field)), field


def test_step_bernoulli_rate_and_determinism(spec_default, table_unif_25):
    alpha = best_response(table_unif_25, spec_default).alpha_star
    gen = make_rng(5, 6)
    hits = sum(step_bernoulli(gen, alpha) for _ in range(10**5))
    assert hits / 10**5 == pytest.approx(alpha, abs=3.2 * np.sqrt(alpha * (1 - alpha) / 10**5))
    seq1 = [step_bernoulli(make_rng(5, 7), alpha) for _ in range(50)]
    seq2 = [step_bernoulli(make_rng(5, 7), alpha) for _ in range(50)]
    assert seq1 == seq2


def test_degenerate_bernoulli_always_accepts():
    gen = make_rng(5, 8)
    assert all(step_bernoulli(gen, 1.0) for _ in range(100))


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
    c_val = float(np.interp(alpha, table.alpha_grid, table.c_values))
    # plus the value-curve approximation's additive gap (eta^2 + 4)(eta + 2) delta^3 / big_m
    slack = (eta * eta + 4.0) * (eta + 2.0) * unif.delta ** 3 / unif.big_m
    assert mse <= c_val + 3.0 * se + slack
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


def test_mixture_weights_must_be_finite_and_nonnegative():
    for weights in [(np.nan, np.nan), (np.inf, 0.0), (-0.5, 1.5)]:
        with pytest.raises(ValueError, match="weights must be finite and nonnegative"):
            MixtureAdversary((1.0, 2.0), weights)


def test_physical_rounds_rejects_eta_like_the_table(unif):
    with pytest.raises(ValueError) as table_err:
        build_envelope_table(unif, 1.5)
    with pytest.raises(ValueError) as rounds_err:
        physical_rounds(unif, 1.5, MixtureAdversary.point_mass(1.0), make_rng(0), 1)
    assert str(rounds_err.value) == str(table_err.value)


def test_arm_env_blocks_are_chunk_invariant(unif, spec_default):
    etas = [2.0, 2.5, 3.0]
    tables = [build_envelope_table(unif, e, 801) for e in etas]
    rates = best_response_rates(tables, spec_default)
    whole = BernoulliArmEnv(unif, tables, rates, base_seed=9, trial=4).acceptance_block(0, 1000)
    env2 = BernoulliArmEnv(unif, tables, rates, base_seed=9, trial=4)
    parts = np.concatenate(
        [env2.acceptance_block(0, 137), env2.acceptance_block(137, 640), env2.acceptance_block(640, 1000)],
        axis=1,
    )
    assert np.array_equal(whole, parts)
    with pytest.raises(ValueError):
        env2.acceptance_block(0, 10)  # non-sequential


@pytest.mark.parametrize("cls", [BernoulliArmEnv, PhysicalArmEnv])
def test_live_arm_blocks_match_full_draws(tgauss, spec_default, cls):
    etas = [2.0, 2.5, 3.0, 4.0]
    tables = [build_envelope_table(tgauss, e, 801) for e in etas]
    rates = best_response_rates(tables, spec_default)
    full = cls(tgauss, tables, rates, base_seed=9, trial=2).acceptance_block(0, 900)
    env = cls(tgauss, tables, rates, base_seed=9, trial=2)
    # each returned row is the listed arm's row of the full draw
    for r0, r1, arms in [(0, 250, None), (250, 400, [0, 1, 2, 3]), (400, 410, [0, 2, 3]),
                         (410, 700, [2, 3]), (700, 900, [3])]:
        rows = list(range(4)) if arms is None else arms
        got = env.acceptance_block(r0, r1, arms)
        assert got.shape == (len(rows), r1 - r0)
        assert np.array_equal(got, full[rows, r0:r1])
    for arms in ([2], [2, 3], None):
        with pytest.raises(ValueError, match="round order"):
            env.acceptance_block(900, 950, arms)
    with pytest.raises(ValueError, match="ascending"):
        env.acceptance_block(900, 950, [3, 3])
    assert env.acceptance_block(900, 950, [3]).shape == (1, 50)


@pytest.mark.parametrize("cls", [BernoulliArmEnv, PhysicalArmEnv])
def test_accept_counts_equal_block_row_sums(tgauss, spec_default, cls, monkeypatch):
    # a small call bound: 250 rounds per arm call, so k = 600 straddles two chunk edges
    monkeypatch.setattr(goc.environment, "_BLOCK_ARM_ROUNDS", 1000)
    etas = [2.0, 2.5, 3.0, 4.0]
    tables = [build_envelope_table(tgauss, e, 801) for e in etas]
    rates = best_response_rates(tables, spec_default)
    full = cls(tgauss, tables, rates, base_seed=9, trial=2).acceptance_block(0, 600)
    calls = []

    def counted(env):
        accepted = env._accepted
        monkeypatch.setattr(env, "_accepted", lambda i, n: calls.append(n) or accepted(i, n))
        return env

    fresh = counted(cls(tgauss, tables, rates, base_seed=9, trial=2))
    assert fresh.accept_counts(600).tolist() == full.sum(axis=1).tolist()
    assert calls == [250, 250, 100] * 4
    # after blocks that dropped arm 1 at round 137 and arm 0 at round 300, as elimination
    # does: their whole blocks count as drawn, and only each stream's rest is drawn
    used = cls(tgauss, tables, rates, base_seed=9, trial=2)
    used.acceptance_block(0, 137)
    used.acceptance_block(137, 300, [0, 2, 3])
    used.acceptance_block(300, 310, [2, 3])
    calls.clear()
    counts = counted(used).accept_counts(600)
    assert counts.dtype == np.int64
    assert counts.tolist() == full.sum(axis=1).tolist()
    assert calls == [250, 50, 250, 213, 250, 40, 250, 40]
    assert used.accept_counts(600).tolist() == counts.tolist()  # nothing left to draw


def test_each_stream_is_read_in_round_order(unif, spec_default):
    tables = [build_envelope_table(unif, e, 801) for e in (2.0, 3.0, 4.0)]
    rates = best_response_rates(tables, spec_default)

    def env():
        return BernoulliArmEnv(unif, tables, rates, base_seed=9, trial=4)

    full = env().acceptance_block(0, 160)
    # a block after accept_counts(k) continues each stream from round k
    counted = env()
    counted.acceptance_block(0, 50, [1])
    with pytest.raises(ValueError, match="past round 40"):
        counted.accept_counts(40)
    assert counted.accept_counts(100).tolist() == full[:, :100].sum(axis=1).tolist()
    assert np.array_equal(counted.acceptance_block(100, 130, [0, 2]), full[[0, 2], 100:130])
    # a block must start at each listed arm's next round: not before it, not after it
    for r0, r1, arms in [(100, 110, None), (90, 110, [1]), (120, 140, [0]), (140, 150, [0]),
                         (130, 125, [0])]:
        with pytest.raises(ValueError, match="round order"):
            counted.acceptance_block(r0, r1, arms)
    # arms drawn in separate blocks at the same rounds equal one joint block
    apart = [counted.acceptance_block(130, 160, [i]) for i in (0, 2)]
    assert np.array_equal(np.vstack(apart), full[[0, 2], 130:])
    assert np.array_equal(counted.acceptance_block(100, 160, [1]), full[[1], 100:])
    # ETC and then elimination on one environment fails at the first block, which is
    # why a trial runs elimination first
    cfg = LearnerConfig(a=2.0, b=4.0, delta=0.1, lam=0.5,
                        lip=LipschitzProfile(ell=2.0, big_l=0.05, d=2.0), n=2, k=60)
    shared = env()
    run_etc(cfg, shared, spec_default)
    with pytest.raises(ValueError, match="round order"):
        run_elimination(cfg, shared, spec_default)


_TOP = 1.0 - 2.0 ** -53  # the largest uniform Generator.random returns


@settings(max_examples=150, deadline=None)
@given(
    gaussian=st.booleans(),
    log_sigma=st.floats(-6.0, 2.0),
    delta=st.sampled_from([0.25, 1.0, 37.0]),
    eta=st.floats(2.0, 8.0),
    edge_k=st.integers(0, 2 ** 53 - 1),
    far=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=2),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_gate_matches_the_full_acceptance_test(
    gaussian, log_sigma, delta, eta, edge_k, far, weights, seed
):
    big_m = 1e4 * delta
    if gaussian:
        scenario = truncated_gaussian_scenario(delta * 10.0 ** log_sigma, delta, big_m)
    else:
        scenario = uniform_scenario(delta, big_m)
    c = eta * delta
    # the first offset puts an acceptance edge on an attainable honest-noise value; the
    # others range over the whole span, so some thresholds leave [ppf(0), ppf(1)]
    offsets = (c + float(scenario.noise.ppf(edge_k * 2.0 ** -53)), *(f * big_m for f in far))
    w = np.asarray(weights[: len(offsets)])
    adv = MixtureAdversary(offsets, tuple(w / w.sum()))
    thresholds = _gate_thresholds(scenario, [eta], [adv])[0]
    assert thresholds.shape == (4, 2 * len(offsets))

    rng = make_rng(seed)
    draws = rng.random((1000, 5))
    # rounds steered to each (component, sign) pair: the extreme uniforms 0 and 1 - 2**-53,
    # the ends and middle of each nonempty guard band, and the uniforms just outside it
    cw = np.concatenate([[0.0], np.cumsum(w / w.sum())])
    ulp = 2.0 ** -53
    placed = []
    for pair in range(2 * len(offsets)):
        t1, t2, t3, t4 = thresholds[:, pair]
        vs = [0.0, _TOP]
        for lo, hi in ((t1, t2), (t3, t4)):
            vs += [max(lo - ulp, 0.0), min(hi, _TOP)]
            if lo < hi:
                placed.extend(range(len(draws) + len(vs), len(draws) + len(vs) + 3))
                vs += [lo, hi - ulp, (int(lo / ulp) + int(hi / ulp)) // 2 * ulp]
        rows = rng.random((len(vs), 5))
        rows[:, 1] = vs
        rows[:, 2] = 0.5 * (cw[pair // 2] + cw[pair // 2 + 1])
        rows[:, 3] = 0.75 if pair % 2 else 0.25
        draws = np.vstack([draws, rows])

    accepted, band = _gate(scenario, eta, adv, thresholds, draws)
    assert np.array_equal(accepted, _physical_from_uniforms(scenario, eta, adv, draws).accepted)
    assert placed and band[placed].all()
