import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goc.learners
from goc.config import load_config
from goc.envelope import DEFAULT_ALPHA_MIN, build_envelope_table, build_envelope_tables
from goc.environment import BernoulliArmEnv, PhysicalArmEnv, make_rng
from goc.experiments import ELIMINATION, ETC, prepare_instance, run_trial
from goc.learners import (
    LearnerConfig,
    _u_hat,
    elimination_radius,
    run_elimination,
    run_etc,
)
from goc.utility import LipschitzProfile

from conftest import arm_inputs, best_response_rates


LIP = LipschitzProfile(ell=1.0, big_l=1.0, d=0.5)


def _budget(a, b, delta, lam, lip, budget_scale=1.0):
    cfg = LearnerConfig.derive(a, b, delta, lam, lip, budget_scale=budget_scale)
    return cfg.n, cfg.k


def test_budget_example_values():
    assert _budget(2.0, 6.0, 0.05, 0.1, LIP) == (81, 6477)


def test_budget_strictness_on_integer_boundary():
    # (b - a) * 2L / lambda lands exactly on 80: strict bound forces 81
    n, _ = _budget(2.0, 6.0, 0.05, 0.1, LIP)
    assert n == 81


def test_budget_driven_by_piece_width():
    lip = LipschitzProfile(ell=1.0, big_l=0.01, d=0.1)
    n, _ = _budget(2.0, 6.0, 0.05, 1.0, lip)
    assert n == 41  # 4 * max(0.02, 10) = 40, strictly above


def test_budget_delta_halving_additivity():
    _, k1 = _budget(2.0, 6.0, 0.05, 0.1, LIP)
    _, k2 = _budget(2.0, 6.0, 0.025, 0.1, LIP)
    assert abs((k2 - k1) - (8.0 / 0.01) * math.log(2.0)) <= 1.0


def test_budget_rejects_bad_ranges():
    with pytest.raises(ValueError, match=r"^learner\.b: "):
        _budget(2.0, 2.0, 0.05, 0.1, LIP)  # degenerate interval
    with pytest.raises(ValueError, match=r"^learner\.a: "):
        _budget(1.5, 6.0, 0.05, 0.1, LIP)
    with pytest.raises(ValueError, match=r"^learner\.lambda: "):
        _budget(2.0, 6.0, 0.05, 0.0, LIP)
    with pytest.raises(ValueError, match=r"^learner\.delta: "):
        _budget(2.0, 6.0, 1.5, 0.1, LIP)


def test_unscaled_budget_keeps_a_k_beyond_float_precision():
    # k lies above 2^53 and is odd, so k * 1.0 is not k and ceil(k * 1.0) would move it
    lip = LipschitzProfile(ell=1e8, big_l=1.0, d=0.5)
    n, k = _budget(2.0, 6.0, 0.05, 0.1, lip)
    bound = (8.0 * 1e8 ** 2 / 0.1 ** 2) * math.log(2.0 * (n + 1) / 0.05)
    assert (n, k) == (81, math.floor(bound * (1.0 + 1e-12)) + 1)
    assert k > 2 ** 53 and math.ceil(k * 1.0) != k


def test_elimination_radius_value_and_decrease():
    assert elimination_radius(1.0, 81, 0.05, 1000) == pytest.approx(0.1325801333679985, abs=1e-9)
    radii = [elimination_radius(1.0, 81, 0.05, r) for r in (1, 10, 100, 1000)]
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_grid_identity():
    cfg = LearnerConfig.derive(2.0, 6.0, 0.05, 0.1, LIP)
    etas = cfg.etas()
    assert etas[0] == 2.0
    assert etas[-1] == 6.0
    expect = 2.0 + 4.0 * (np.arange(cfg.n + 1) / cfg.n)
    assert np.max(np.abs(etas - expect)) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError, match=r"^experiment\.budget_scale: "):
        LearnerConfig.derive(2.0, 6.0, 0.05, 0.1, LIP, budget_scale=1.5)
    scaled = LearnerConfig.derive(2.0, 6.0, 0.05, 0.1, LIP, budget_scale=0.01)
    assert (scaled.n, scaled.k) == (81, 65)  # ceil(6477 * 0.01)
    assert LearnerConfig.derive(2.0, 6.0, 0.05, 0.1, LIP, budget_scale=0.001).k == 7  # rounded up
    full = LearnerConfig.derive(2.0, 6.0, 0.05, 0.1, LIP, budget_scale=1.0)
    assert (full.n, full.k) == _budget(2.0, 6.0, 0.05, 0.1, LIP) == (81, 6477)


@pytest.mark.parametrize("cls", [BernoulliArmEnv, PhysicalArmEnv])
def test_etc_blocks_match_one_full_block(unif, spec_default, cls):
    # k straddles the first chunk edge, so accept_counts draws each arm in two calls
    k = goc.learners._BLOCK_ARM_ROUNDS // 2 + 5
    etas = [2.0, 3.0]
    tables = [build_envelope_table(unif, e, 201) for e in etas]
    lip = LipschitzProfile(ell=2.0, big_l=0.05, d=2.0)
    cfg = LearnerConfig(a=2.0, b=3.0, delta=0.1, lam=0.5, lip=lip, n=1, k=k)
    inputs = arm_inputs(cls, unif, tables, spec_default)
    out = run_etc(cfg, tables, spec_default, cls(inputs, base_seed=3, trial=1))
    full = cls(inputs, base_seed=3, trial=1).acceptance_block(0, k)
    assert list(out.accept_count) == full.sum(axis=1).tolist()


def _tiny_instance(unif, spec, n_arms=3, k=400, alpha_min=DEFAULT_ALPHA_MIN):
    lip = LipschitzProfile(ell=2.0, big_l=0.05, d=1.0)
    cfg = LearnerConfig(a=2.0, b=3.0, delta=0.1, lam=0.5, lip=lip, n=n_arms - 1, k=k)
    etas = cfg.etas()
    tables = [build_envelope_table(unif, float(e), 801, alpha_min) for e in etas]
    return cfg, etas, tables


@pytest.mark.parametrize("learner", [run_etc, run_elimination])
def test_arm_count_mismatch_is_rejected_before_any_draw(unif, spec_default, learner):
    # the grid has 3 arms: too few tables, too few environment arms, or both agreeing on 2
    cfg, _, tables = _tiny_instance(unif, spec_default)
    rates = best_response_rates(tables, spec_default)
    for arm_tables, arm_rates in [(tables[:2], rates), (tables, rates[:2]),
                                  (tables[:2], rates[:2])]:
        env = BernoulliArmEnv(arm_rates, base_seed=3, trial=0)
        with pytest.raises(ValueError, match="^arm counts differ: "):
            learner(cfg, arm_tables, spec_default, env)
        assert env._drawn.tolist() == [0] * len(arm_rates)


# Tables whose lower edge sits at the best response of the first candidate,
# so about half of that candidate's rate estimates fall below it and are clamped.
CLAMPING_ALPHA_MIN = 0.5


def test_etc_constant_utility_breaks_ties_low(unif, spec_pa_only):
    # acceptance-dominated adversary accepts everything; acceptance-only
    # collector sees identical estimates, so the first candidate wins
    cfg, etas, tables = _tiny_instance(unif, spec_pa_only)
    env = BernoulliArmEnv(best_response_rates(tables, spec_pa_only), base_seed=3, trial=0)
    out = run_etc(cfg, tables, spec_pa_only, env)
    assert out.eta_hat_index == 1
    assert out.total_game_rounds == cfg.k * (cfg.n + 1)
    assert all(a / r == 1.0 for a, r in zip(out.accept_count, out.rounds_played))


def test_etc_identifies_best_arm(unif, spec_default):
    cfg, etas, tables = _tiny_instance(unif, spec_default, k=2000)
    env = BernoulliArmEnv(best_response_rates(tables, spec_default), base_seed=4, trial=1)
    out = run_etc(cfg, tables, spec_default, env)
    # on this instance the realized utility decreases in eta
    assert out.eta_hat_index == 1
    for a, r in zip(out.accept_count, out.rounds_played):
        assert 0 <= a <= r == cfg.k
        assert a / r == pytest.approx(a / cfg.k, abs=0.0)


def test_etc_matches_manual_argmax(unif, spec_default):
    from goc.utility import q_dc

    # the second instance clamps estimates
    for alpha_min, trial in [(DEFAULT_ALPHA_MIN, 2), (CLAMPING_ALPHA_MIN, 3)]:
        cfg, etas, tables = _tiny_instance(unif, spec_default, k=350, alpha_min=alpha_min)
        rates = best_response_rates(tables, spec_default)
        env = BernoulliArmEnv(rates, base_seed=5, trial=trial)
        out = run_etc(cfg, tables, spec_default, env)
        manual = []
        clamps = 0
        env2 = BernoulliArmEnv(rates, base_seed=5, trial=trial)
        draws = env2.acceptance_block(0, cfg.k)
        for i, t in enumerate(tables):
            rate = draws[i].sum() / cfg.k
            clamps += int(rate < t.alpha_grid[0])
            a = np.clip(rate, t.alpha_grid[0], 1.0)
            manual.append(float(q_dc(spec_default, np.interp(a, t.alpha_grid, t.c_values), a)))
        assert out.eta_hat_index == int(np.argmax(manual)) + 1
        assert out.u_hat[0] == pytest.approx(manual[0], abs=1e-12)
        assert out.clamp_count == clamps
    assert clamps > 0


def test_u_hat_masks_exactly_the_rates_it_clamps(unif, spec_default):
    table = build_envelope_table(unif, 2.5, 201, CLAMPING_ALPHA_MIN)
    lo = table.alpha_grid[0]
    below = np.nextafter(lo, 0.0)
    u_lo, at_edge = _u_hat(spec_default, table, lo)
    u_below, under = _u_hat(spec_default, table, below)
    assert (bool(at_edge), bool(under)) == (False, True)
    assert u_below == u_lo  # read at the edge
    rates = np.array([0.0, below, lo, 0.75, 1.0])
    u, mask = _u_hat(spec_default, table, rates)
    assert mask.tolist() == [True, True, False, False, False]
    assert u.tolist() == [u_lo] * 3 + [_u_hat(spec_default, table, r)[0] for r in (0.75, 1.0)]


def test_elimination_drops_separated_arms(unif, spec_gamma1):
    cfg, etas, tables = _tiny_instance(unif, spec_gamma1, n_arms=4, k=3000)
    env = BernoulliArmEnv(best_response_rates(tables, spec_gamma1), base_seed=6, trial=3)
    out = run_elimination(cfg, tables, spec_gamma1, env)
    assert out.total_game_rounds < cfg.k * (cfg.n + 1)
    assert any(out.eliminated)
    for eliminated, played in zip(out.eliminated, out.rounds_played):
        # an eliminated arm's rounds_played is the round it was dropped at
        if eliminated:
            assert 1 <= played <= cfg.k
        else:
            assert played == cfg.k


def _sequential_elimination(cfg, tables, draws, spec):
    """Literal round-by-round elimination: per arm, the last round played, accept count,
    rate and utility, plus the elimination log and the number of clamped estimates."""
    from goc.utility import q_dc

    n_arms = cfg.n + 1
    alive = [True] * n_arms
    played = [0] * n_arms
    counts = [0] * n_arms
    rate = [0.0] * n_arms
    u_now = [-np.inf] * n_arms
    log = []
    clamps = 0
    ln_term = math.log(4.0 * n_arms / cfg.delta)
    for r in range(1, cfg.k + 1):
        for i in range(n_arms):
            if alive[i]:
                counts[i] += int(draws[i, r - 1])
                played[i] = r
                rate[i] = counts[i] / r
                clamps += int(rate[i] < tables[i].alpha_grid[0])
                a = np.clip(rate[i], tables[i].alpha_grid[0], 1.0)
                c = float(np.interp(a, tables[i].alpha_grid, tables[i].c_values))
                u_now[i] = float(q_dc(spec, c, a))
        best = max(u for i, u in enumerate(u_now) if alive[i])
        eps = 2.0 * cfg.lip.ell * math.sqrt(ln_term / (2.0 * r))
        for i in range(n_arms):
            if alive[i] and best - u_now[i] > eps:
                alive[i] = False
                log.append((r, i + 1))
    return alive, played, counts, rate, u_now, log, clamps


def test_elimination_matches_sequential_reference(unif, spec_default, spec_gamma1, monkeypatch):
    """Blocked implementation equals a literal round-by-round replay, arm by arm."""
    # (spec, k, trial, alpha_min, fixed rates): the second instance eliminates arms and clamps
    # far more often; the third eliminates an arm whose rate sits below alpha_min; in the
    # fourth an arm dropped at one round holds the best estimate of a later round in the
    # same block, so the scan must recompute that round's best
    instances = [
        (spec_default, 300, 5, DEFAULT_ALPHA_MIN, None),
        (spec_default, 1000, 0, CLAMPING_ALPHA_MIN, None),
        (spec_default, 1000, 0, CLAMPING_ALPHA_MIN, (0.9, 0.45, 0.7, 0.55)),
        (spec_gamma1, 1000, 17, DEFAULT_ALPHA_MIN, None),
    ]
    for spec, k, trial, alpha_min, alphas in instances:
        cfg, etas, tables = _tiny_instance(unif, spec, n_arms=4, k=k, alpha_min=alpha_min)
        rates = alphas or best_response_rates(tables, spec)

        def make_env():
            return BernoulliArmEnv(rates, base_seed=7, trial=trial)

        draws = make_env().acceptance_block(0, cfg.k)
        alive, played, counts, rate, u_now, log, clamps = _sequential_elimination(
            cfg, tables, draws, spec)
        assert clamps > 0
        assert log or alpha_min == DEFAULT_ALPHA_MIN
        survivors = [i for i in range(cfg.n + 1) if alive[i]]
        best_i = max(survivors, key=lambda i: u_now[i])
        for block in (cfg.k, 7):  # one block, then blocks of 7 rounds
            monkeypatch.setattr(goc.learners, "_ELIM_BLOCK", block)
            out = run_elimination(cfg, tables, spec, make_env())
            assert sorted((r, i + 1) for i, r in enumerate(out.rounds_played)
                          if out.eliminated[i]) == log
            assert out.eta_hat_index == best_i + 1
            for i in range(cfg.n + 1):
                assert (out.rounds_played[i], out.accept_count[i]) == (played[i], counts[i])
                assert out.eliminated[i] == (not alive[i])
                assert out.accept_count[i] / out.rounds_played[i] == pytest.approx(rate[i],
                                                                                   abs=1e-12)
                assert out.u_hat[i] == pytest.approx(u_now[i], abs=1e-12)
            assert out.clamp_count == clamps
            assert out.total_game_rounds == sum(played)


@pytest.fixture(scope="module")
def scan_tables(unif):
    return [build_envelope_table(unif, e, 201) for e in (2.0, 2.5, 3.0)]


# fixed arm rates: 0 and 5e-4 sit below alpha_min, and 0 and 1 draw identical streams,
# so arms sharing a table and one of those rates tie exactly
_SCAN_RATES = st.sampled_from([0.0, 5e-4, 0.05, 0.3, 0.6, 0.9, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(arms=st.lists(st.tuples(st.integers(0, 2), _SCAN_RATES), min_size=2, max_size=8),
       k=st.integers(50, 3000), elim_block=st.integers(1, 300), arm_rounds=st.integers(1, 2000),
       ell=st.sampled_from([0.05, 0.3, 2.0]), trial=st.integers(0, 1000))
# a drop lowers best at a round where another arm still trails it by more than the radius,
# so that arm's re-check must start at that round
@example(arms=[(2, 0.534200021324978), (2, 0.7108481510736502), (0, 0.3), (2, 0.0),
               (1, 0.6069226301458123)], k=111, elim_block=75, arm_rounds=1665, ell=0.05,
         trial=744)
def test_blocked_scan_matches_sequential_replay(scan_tables, spec_default, arms, k,
                                               elim_block, arm_rounds, ell, trial):
    """Blocks of any size, down to one round, scan to the round-by-round outcome."""
    lip = LipschitzProfile(ell=ell, big_l=0.05, d=2.0)
    cfg = LearnerConfig(a=2.0, b=3.0, delta=0.1, lam=0.5, lip=lip, n=len(arms) - 1, k=k)
    tables = [scan_tables[t] for t, _ in arms]
    rates = [rate for _, rate in arms]
    draws = BernoulliArmEnv(rates, base_seed=9, trial=trial).acceptance_block(0, k)
    alive, played, counts, _, u_now, _, clamps = _sequential_elimination(
        cfg, tables, draws, spec_default)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(goc.learners, "_ELIM_BLOCK", elim_block)
        mp.setattr(goc.learners, "_BLOCK_ARM_ROUNDS", arm_rounds)
        out = run_elimination(cfg, tables, spec_default, BernoulliArmEnv(rates, 9, trial))
    survivors = [i for i in range(len(arms)) if alive[i]]
    assert out.eta_hat_index == max(survivors, key=lambda i: u_now[i]) + 1
    assert list(out.rounds_played) == played
    assert list(out.accept_count) == counts
    assert list(out.eliminated) == [not a for a in alive]
    assert list(out.u_hat) == pytest.approx(u_now, abs=1e-12)
    assert out.clamp_count == clamps


def test_trial_memory_is_bounded(unif, spec_default):
    """A trial's working set is a block of a bounded arm-round count, whatever k and the arms."""
    def peak_mb(run, *args) -> float:
        run(*args)  # warm: imports and lazy set-up stay off the books
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    art = prepare_instance(load_config(None))  # 38 arms, k = 123,929
    lip = LipschitzProfile(ell=art.learner.lip.ell, big_l=0.01, d=1.0)
    wide = LearnerConfig(a=2.0, b=6.0, delta=0.05, lam=0.1, lip=lip, n=400, k=20_000)
    tables = list(build_envelope_tables(unif, wide.etas(), 201))
    rates = best_response_rates(tables, spec_default)
    peaks = {
        "etc": peak_mb(run_trial, art, 0, ETC),
        "elimination": peak_mb(run_trial, art, 0, ELIMINATION),
        "elimination, 401 arms": peak_mb(lambda: run_elimination(
            wide, tables, spec_default, BernoulliArmEnv(rates, 42, 1))),
    }
    bounds = {"etc": 1.5, "elimination": 3.0, "elimination, 401 arms": 8.0}
    assert all(peaks[name] <= bound for name, bound in bounds.items()), peaks


def test_no_spurious_elimination_when_gaps_are_zero(spec_default, table_unif_25):
    # two candidates with identical acceptance laws and identical curves:
    # the confidence radius must keep both alive in almost every trial
    from goc.oracle import best_response

    alpha = best_response(table_unif_25, spec_default).alpha_star
    lip = LipschitzProfile(ell=2.5, big_l=0.1, d=1.0)
    cfg = LearnerConfig(a=2.0, b=2.5, delta=0.05, lam=0.5, lip=lip, n=1, k=2000)
    eliminated_trials = 0
    for trial in range(200):
        env = BernoulliArmEnv([alpha] * 2, base_seed=11, trial=trial)
        out = run_elimination(cfg, [table_unif_25] * 2, spec_default, env)
        if any(out.eliminated):
            eliminated_trials += 1
    assert eliminated_trials <= 10  # delta * trials


def test_matched_seed_draws_agree_between_learners(unif, spec_default):
    cfg, etas, tables = _tiny_instance(unif, spec_default, k=500)
    rates = best_response_rates(tables, spec_default)
    env_a = BernoulliArmEnv(rates, base_seed=12, trial=7)
    env_b = BernoulliArmEnv(rates, base_seed=12, trial=7)
    out_a = run_etc(cfg, tables, spec_default, env_a)
    out_b = run_elimination(cfg, tables, spec_default, env_b)
    assert out_b.total_game_rounds <= out_a.total_game_rounds
    # if nothing was eliminated the final estimates coincide
    if not any(out_b.eliminated):
        assert out_a.accept_count == out_b.accept_count


def test_hoeffding_concentration_of_rate_estimates():
    # fixed candidate with known rate: the deviation frequency obeys the
    # two-sided exponential bound with 10% headroom
    k = 2000
    alpha = 0.37
    gen = make_rng(14, 0)
    alpha_hat = gen.binomial(k, alpha, size=10**4) / k
    for eps in (0.01, 0.02, 0.05):
        freq = float(np.mean(np.abs(alpha_hat - alpha) > eps))
        assert freq <= 2.0 * math.exp(-2.0 * k * eps * eps) * 1.1


def test_learner_outcome_n_eliminated_consistency(unif, spec_gamma1):
    cfg, etas, tables = _tiny_instance(unif, spec_gamma1, n_arms=4, k=2500)
    env = BernoulliArmEnv(best_response_rates(tables, spec_gamma1), base_seed=15, trial=0)
    out = run_elimination(cfg, tables, spec_gamma1, env)
    assert out.total_game_rounds == sum(out.rounds_played)
    surviving = [i + 1 for i, eliminated in enumerate(out.eliminated) if not eliminated]
    assert out.eta_hat_index in surviving
