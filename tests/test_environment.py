import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goc.environment
from goc.envelope import build_envelope_table, k_eta, k_inverse, nu_eta
from goc.environment import (
    BernoulliArmEnv,
    MixtureAdversary,
    PhysicalArmEnv,
    _V_BITS,
    _Gate,
    _gate_thresholds,
    _physical_from_uniforms,
    envelope_witness_mixture,
    make_rng,
    physical_gates,
    physical_rounds,
    step_bernoulli,
)
from goc.learners import LearnerConfig, run_elimination, run_etc
from goc.noise import truncated_gaussian_scenario, uniform_scenario
from goc.oracle import best_response
from goc.utility import LipschitzProfile, UtilitySpec

from conftest import arm_inputs, best_response_rates


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
    whole = BernoulliArmEnv(rates, base_seed=9, trial=4).acceptance_block(0, 1000)
    env2 = BernoulliArmEnv(rates, base_seed=9, trial=4)
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
    inputs = arm_inputs(cls, tgauss, tables, spec_default)
    full = cls(inputs, base_seed=9, trial=2).acceptance_block(0, 900)
    env = cls(inputs, base_seed=9, trial=2)
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
    inputs = arm_inputs(cls, tgauss, tables, spec_default)
    full = cls(inputs, base_seed=9, trial=2).acceptance_block(0, 600)
    calls = []

    def counted(env):
        accepted = env._accepted
        monkeypatch.setattr(env, "_accepted", lambda i, n: calls.append(n) or accepted(i, n))
        return env

    fresh = counted(cls(inputs, base_seed=9, trial=2))
    assert fresh.accept_counts(600).tolist() == full.sum(axis=1).tolist()
    assert calls == [250, 250, 100] * 4
    # after blocks that dropped arm 1 at round 137 and arm 0 at round 300, as elimination
    # does: their whole blocks count as drawn, and only each stream's rest is drawn
    used = cls(inputs, base_seed=9, trial=2)
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
        return BernoulliArmEnv(rates, base_seed=9, trial=4)

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
    run_etc(cfg, tables, spec_default, shared)
    with pytest.raises(ValueError, match="round order"):
        run_elimination(cfg, tables, spec_default, shared)


def test_raw_words_are_the_streams_uniforms():
    # the physical arm environment reads raw words where physical_rounds reads uniforms:
    # Generator.random makes each uniform of one raw word, as (raw >> 11) 2**-53
    def uniforms(words):
        return ((words >> 11) * 2.0 ** -53).reshape(-1, 5)

    for n in (1, 7, 4096):
        gen = make_rng(3, 1, n)
        assert np.array_equal(uniforms(gen.bit_generator.random_raw(5 * n)),
                              make_rng(3, 1, n).random((n, 5)))
    # calls interleaved on one generator read consecutive stream positions
    gen = make_rng(3, 2)
    parts = [uniforms(gen.bit_generator.random_raw(15)), gen.random((4, 5)),
             uniforms(gen.bit_generator.random_raw(5 * 1000)), gen.random((2, 5))]
    assert np.array_equal(np.vstack(parts), make_rng(3, 2).random((1009, 5)))


def test_witness_at_a_hull_vertex_is_a_point_mass(unif):
    eta = 3.0
    table = build_envelope_table(unif, eta)
    q = table.hull_q
    j = q.size // 2
    for alpha in (q[0], q[j], q[-1]):
        adv = envelope_witness_mixture(unif, table, float(alpha))
        assert len(adv.offsets) == 1 and adv.weights == (1.0,)
        assert k_eta(unif, eta, adv.offsets[0]) == pytest.approx(alpha, abs=1e-9)
    # the two-offset form it replaces, weights (1, 0) on the vertex and its upper
    # neighbour, gives the same bits: d >= 1.0 never holds, so its component is the first
    z_lo, z_hi = (float(k_inverse(unif, eta, q[i])) for i in (j, j + 1))
    mixed = MixtureAdversary((z_lo, z_hi), (1.0, 0.0))
    point = envelope_witness_mixture(unif, table, float(q[j]))
    assert point.offsets == mixed.offsets[:1]
    old = physical_rounds(unif, eta, mixed, make_rng(7, 1), 10**5)
    new = physical_rounds(unif, eta, point, make_rng(7, 1), 10**5)
    for field in ("accepted", "estimate", "u_true"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field


@pytest.mark.parametrize("gamma,theta,etas", [(0.3, 1.0, (2.0, 3.0, 4.5, 6.0)),
                                              (0.1, 3.0, (2.0, 2.25, 2.5, 3.0))],
                         ids=["uniform-defaults", "interior"])
def test_physical_env_blocks_equal_physical_rounds(unif, gamma, theta, etas):
    # the environment's lookup decision against the full simulation of the same streams, on
    # point-mass witnesses (the defaults) and on two-component ones (the interior instance)
    spec = UtilitySpec(dc_kind="linear", dc_gamma=gamma, ad_kind="product", ad_theta=theta)
    tables = [build_envelope_table(unif, e) for e in etas]
    gates = physical_gates(unif, tables, best_response_rates(tables, spec))
    env = PhysicalArmEnv(gates, base_seed=11, trial=3)
    if theta > 1.0:
        assert any(len(gate.adv.offsets) == 2 for gate in gates)
    n = 200_000
    block = env.acceptance_block(0, n)
    for i, (table, gate) in enumerate(zip(tables, gates)):
        full = physical_rounds(unif, table.eta, gate.adv, make_rng(11, 3, i), n).accepted
        assert np.array_equal(block[i], full), i


@settings(max_examples=150, deadline=None)
@given(
    gaussian=st.booleans(),
    log_sigma=st.floats(-6.0, 2.0),
    delta=st.sampled_from([0.25, 1.0, 37.0]),
    eta=st.floats(2.0, 8.0),
    edge_k=st.integers(0, 2 ** 53 - 1),
    far=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=2),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    vertex=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
# a guard band many buckets wide, whose inner buckets hold no threshold but have odd levels
@example(gaussian=True, log_sigma=-6.0, delta=1.0, eta=3.0, edge_k=int(0.3 * 2 ** 53), far=[],
         weights=[0.3, 0.3, 0.4], vertex=False, seed=1)
# a vertex witness whose weight-0 components have acceptance edges in the noise's support
@example(gaussian=True, log_sigma=2.0, delta=1.0, eta=3.0, edge_k=2 ** 52, far=[2.5e-4, 3.1e-4],
         weights=[0.3, 0.3, 0.4], vertex=True, seed=1)
def test_gate_matches_the_full_acceptance_test(
    gaussian, log_sigma, delta, eta, edge_k, far, weights, vertex, seed
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
    # a vertex witness weighs its first offset 1.0, so no component cut splits the rounds
    w = np.asarray([1.0, 0.0, 0.0] if vertex else weights)[: len(offsets)]
    adv = MixtureAdversary(offsets, tuple(w / w.sum()))
    thresholds = _gate_thresholds(scenario, [eta], [adv])[0]
    assert thresholds.shape == (2 * len(offsets), 4)
    gate = _Gate.build(scenario, eta, adv, thresholds)

    rng = make_rng(seed)
    rows = [rng.bit_generator.random_raw(5 * 1000).reshape(1000, 5)]

    def steer(v, comp_word, plus):
        """Indices of appended rounds of random words but for the honest-noise words ``v``,
        the component words ``comp_word`` and offset sign ``plus``."""
        block = rng.bit_generator.random_raw(5 * len(v)).reshape(len(v), 5)
        block[:, 1] = v
        block[:, 2] = comp_word
        block[:, 3] = (block[:, 3] >> np.uint64(1)) | np.uint64(plus << 63)
        start = sum(map(len, rows))
        rows.append(block)
        return range(start, start + len(v))

    def words(u53):
        """Raw words whose uniforms are ``u53`` 2**-53, their low 11 bits random."""
        low = rng.bit_generator.random_raw(len(u53)) >> np.uint64(53)
        return (np.asarray(u53, dtype=np.uint64) << np.uint64(11)) | low

    # rounds steered to each (component, sign) pair: the extreme uniforms 0 and 1 - 2**-53,
    # the ends and middle of each nonempty guard band, the uniforms just outside it, and
    # the first and last word of each of the pair's edge buckets
    cw = np.concatenate([[0.0], np.cumsum(w / w.sum())])
    top = 2 ** 53 - 1
    placed = []
    for pair in range(2 * len(offsets)):
        comp, plus = divmod(pair, 2)
        if w[comp] == 0.0:  # a vertex witness never draws this component
            continue
        inside = words([min(int(0.5 * (cw[comp] + cw[comp + 1]) * 2 ** 53), top)])
        t1, t2, t3, t4 = (int(t) for t in thresholds[pair])
        vs = [0, top]
        for lo, hi in ((t1, t2), (t3, t4)):
            vs += [max(lo - 1, 0), min(hi, top)]
            if lo < hi:
                placed.extend(steer(words([lo, hi - 1, (lo + hi) // 2]), inside, plus))
        steer(words(vs), inside, plus)
        row = gate.table[pair << _V_BITS: (pair + 1) << _V_BITS]
        first = np.flatnonzero(row == 2).astype(np.uint64) << np.uint64(64 - _V_BITS)
        steer(np.concatenate([first, first + np.uint64((1 << (64 - _V_BITS)) - 1)]), inside, plus)
    # component words on both sides of each cut, ceil(w 2**53) << 11, with honest-noise
    # words inside the acceptance region of the components on either side; a cut at
    # 2**53 << 11 would need 65 bits, so the largest word must stay below it
    for comp, cum in enumerate(adv.cumulative_weights()[:-1]):
        cut = int(np.ceil(cum * 2.0 ** 53)) << 11
        sides = np.array([cut - 1, cut] if cut < 2 ** 64 else [2 ** 64 - 1], dtype=np.uint64)
        for plus in (0, 1):
            for side_comp in (comp, comp + 1):
                t2, t3 = (int(t) for t in thresholds[2 * side_comp + plus, 1:3])
                if t2 < t3:
                    steer(words([(t2 + t3) // 2] * sides.size), sides, plus)
    raw = np.vstack(rows)

    accepted, band = gate.decide(raw)
    draws = (raw >> 11) * 2.0 ** -53
    assert np.array_equal(accepted, _physical_from_uniforms(scenario, eta, adv, draws).accepted)
    assert placed and np.isin(placed, band).all()
