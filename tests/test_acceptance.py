"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The learning criteria
use the full derived per-candidate budget (no smoke scaling) on the
default instance, on an instance whose optimum is an interior arm, and on
a well-separated instance; trial artifacts are shared across criteria
through module-scoped fixtures.
"""

import math
from collections import Counter

import numpy as np
import pytest

from goc.config import load_config
from goc.envelope import build_envelope_table, k_eta, nu_eta
from goc.environment import MixtureAdversary, make_rng, physical_rounds
from goc.experiments import ELIMINATION, ETC, prepare_instance, run_trial, run_trials
from goc.learners import LearnerConfig
from goc.noise import truncated_gaussian_scenario, uniform_scenario
from goc.verify import two_point_oracle

from reference import h_eta

ETA_MATRIX = (2.0, 2.5, 3.0, 4.0, 6.0)
ALPHA_MATRIX = tuple(round(0.1 * i, 1) for i in range(1, 11))


def report(criterion: int | str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def matched_trials(art):
    """ETC and elimination results over ``experiment.trials`` matched-seed trials, each trial's
    two learners sharing one environment as in ``goc report``."""
    trials = art.config["experiment.trials"]
    results = run_trials(art, (ETC, ELIMINATION), threads=1)
    return results[:trials], results[trials:]


def picked_arms(results) -> dict[int, int]:
    """How often each 1-based arm was committed to, by arm."""
    return dict(sorted(Counter(r.outcome.eta_hat_index for r in results).items()))


def full_budget(art) -> bool:
    """Whether the trials play the paper's budget: ``LearnerConfig.derive``'s, unscaled."""
    c = art.config
    return art.learner == LearnerConfig.derive(
        c["learner.a"], c["learner.b"], c["learner.delta"], c["learner.lambda"], art.learner.lip)


@pytest.fixture(scope="module")
def default_art():
    # uniform noise, linear collector (gamma 0.3), product adversary;
    # (a, b, delta, lambda) = (2, 6, 0.05, 0.1) with estimated smoothness
    return prepare_instance(load_config(None))


@pytest.fixture(scope="module")
def default_results(default_art):
    return matched_trials(default_art)


@pytest.fixture(scope="module")
def interior_art():
    # the defaults with a gentle collector (gamma 0.1) and a steeper adversary (theta 3):
    # n = 20, and the best arm is arm 5 of 21 (eta 2.8), with 8 arms within lambda of it
    return prepare_instance(load_config(None).with_overrides(**{
        "utility.ad.theta": 3.0,
        "utility.dc.gamma": 0.1,
    }))


@pytest.fixture(scope="module")
def interior_results(interior_art):
    return matched_trials(interior_art)


@pytest.fixture(scope="module")
def interior_physical(interior_art):
    # the interior instance with every arm played as simulated games against its mixture
    art = prepare_instance(interior_art.config.with_overrides(**{"env.mode": "physical"}))
    return art, matched_trials(art)


@pytest.fixture(scope="module")
def separated_config():
    # sharply varying utility over a short range: gamma = 1 collector,
    # product adversary, accuracy target 0.5
    return load_config(None).with_overrides(**{
        "utility.dc.gamma": 1.0,
        "learner.b": 3.0,
        "learner.lambda": 0.5,
    })


@pytest.fixture(scope="module")
def separated_art(separated_config):
    return prepare_instance(separated_config)


@pytest.fixture(scope="module")
def separated_results(separated_art):
    return matched_trials(separated_art)


def test_criterion_1_envelope_oracle_agreement():
    scenario = uniform_scenario(delta=1.0, big_m=1e4)
    worst = 0.0
    for eta in ETA_MATRIX:
        table = build_envelope_table(scenario, eta)
        for alpha in ALPHA_MATRIX:
            res = two_point_oracle(scenario, table, alpha)
            rel = abs(res.gap) / max(1.0, res.envelope_value)
            worst = max(worst, rel)
    ok = worst <= 1e-3
    report(1, ok, f"max |oracle - envelope| = {worst:.2e} (tol 1e-3, relative)")
    assert ok


def test_criterion_2_physical_bridge():
    scenario = uniform_scenario(delta=1.0, big_m=1e4)
    rounds = 10**6
    worst_acc_sigmas = 0.0
    worst_mse_sigmas = 0.0
    for eta in (2.0, 2.5, 3.0):
        d = scenario.delta
        for z in ((eta - 1.0) * d, eta * d, (eta + 0.5) * d):
            batch = physical_rounds(
                scenario, eta, MixtureAdversary.point_mass(z), make_rng(101, int(eta * 10), int(z * 10)), rounds
            )
            k = float(k_eta(scenario, eta, z))
            rate = float(np.mean(batch.accepted))
            sigma = math.sqrt(k * (1.0 - k) / rounds)
            if sigma == 0.0:
                assert rate == k
            else:
                worst_acc_sigmas = max(worst_acc_sigmas, abs(rate - k) / sigma)
            err2 = np.square(batch.u_true[batch.accepted] - batch.estimate[batch.accepted])
            se = float(err2.std(ddof=1) / math.sqrt(err2.size))
            expected = float(nu_eta(scenario, eta, z)) / (4.0 * k)
            worst_mse_sigmas = max(worst_mse_sigmas, abs(float(err2.mean()) - expected) / se)
    ok = worst_acc_sigmas <= 3.0 and worst_mse_sigmas <= 3.0
    report(2, ok, f"acceptance {worst_acc_sigmas:.2f} sigma, conditional MSE {worst_mse_sigmas:.2f} sigma (limit 3)")
    assert ok


def test_criterion_3_etc_pac_validation(
    default_art, default_results, interior_art, interior_results
):
    ok, details = True, []
    for name, art, (etc, _) in (("default", default_art, default_results),
                                ("interior", interior_art, interior_results)):
        delta = art.config["learner.delta"]
        lam = art.config["learner.lambda"]
        rate = sum(r.regret_raw > lam for r in etc) / len(etc)
        ok = ok and rate < delta and full_budget(art)
        details.append(
            f"{name}: ETC failure rate {rate:.4f} over {len(etc)} trials (n={art.learner.n}, "
            f"k={art.learner.k}, full budget, target < {delta}), picked arms {picked_arms(etc)}")
    report(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_elimination_validation_and_efficiency(
    default_art, default_results, interior_art, interior_results, separated_results
):
    ok, bounded, details = True, True, []
    for name, art, (etc, elim) in (("default", default_art, default_results),
                                   ("interior", interior_art, interior_results)):
        delta = art.config["learner.delta"]
        rate = sum(r.regret_raw > art.config["learner.lambda"] for r in elim) / len(elim)
        ok = ok and rate < delta
        details.append(f"{name}: elimination failure rate {rate:.4f} (target < {delta}), "
                       f"picked arms {picked_arms(elim)}")
    for etc, elim in (default_results, interior_results, separated_results):
        bounded = bounded and all(e.rounds_used <= c.rounds_used for e, c in zip(elim, etc))
    etc_s, elim_s = separated_results
    strict = np.mean([e.rounds_used < c.rounds_used for e, c in zip(elim_s, etc_s)])
    ok = ok and bounded and strict >= 0.5
    report(
        4,
        ok,
        f"{'; '.join(details)}; rounds bounded in 100% ({bounded}); "
        f"strict saving in {strict:.0%} of separated trials",
    )
    assert ok


def test_criteria_3_and_4_in_physical_mode(interior_results, interior_physical):
    # criterion 3's and 4's failure-rate and round-bound checks, at their tolerances, on the
    # interior instance in physical mode; the picked arms print beside Bernoulli mode's
    art, (etc, elim) = interior_physical
    delta, lam = art.config["learner.delta"], art.config["learner.lambda"]
    rates = [sum(r.regret_raw > lam for r in rs) / len(rs) for rs in (etc, elim)]
    bounded = all(e.rounds_used <= c.rounds_used for e, c in zip(elim, etc))
    ok = max(rates) < delta and bounded and full_budget(art)
    bern_etc, bern_elim = interior_results
    report("3 and 4, physical mode", ok,
           f"interior, {len(etc)} matched pairs (n={art.learner.n}, k={art.learner.k}, full "
           f"budget): failure rate ETC {rates[0]:.4f}, elimination {rates[1]:.4f} (target < "
           f"{delta}); rounds bounded in 100% ({bounded}); picked arms ETC physical "
           f"{picked_arms(etc)} vs bernoulli {picked_arms(bern_etc)}, elimination physical "
           f"{picked_arms(elim)} vs bernoulli {picked_arms(bern_elim)}")
    assert ok


def test_criterion_5_safe_elimination_frequency(separated_art):
    # beside the separated instance, one whose best arm is interior: the defaults with
    # theta 3 over [2, 4] at lambda 0.5, so n = 4, k = 2,319 and the best arm is 2 of 5 (eta 2.5)
    interior = prepare_instance(load_config(None).with_overrides(**{
        "utility.ad.theta": 3.0,
        "learner.b": 4.0,
        "learner.lambda": 0.5,
    }))
    trials = 500
    ok, details = True, []
    for name, art in (("separated", separated_art), ("interior", interior)):
        results = [run_trial(art, t, ELIMINATION) for t in range(trials)]
        rate = sum(r.best_arm_eliminated for r in results) / trials
        delta = art.config["learner.delta"]
        ok = ok and rate < delta
        details.append(f"{name} {rate:.4f} (target < {delta}, picked arms {picked_arms(results)})")
    report(5, ok, f"best candidate eliminated in {trials} trials: {'; '.join(details)}")
    assert ok


def test_criterion_6_quantization_bound(default_art, separated_art):
    worst_excess = -np.inf
    gentle = load_config(None).with_overrides(**{"utility.dc.gamma": 0.1})
    mixed = load_config(None).with_overrides(**{
        "utility.ad.kind": "weighted_sum",
        "utility.ad.w_mse": 1.0,
        "utility.ad.w_pa": 8.0,
    })
    instances = [default_art, separated_art, prepare_instance(gentle), prepare_instance(mixed)]
    for art in instances:
        bound = art.learner.lip.big_l * (art.learner.b - art.learner.a) / art.learner.n + 1e-6
        excess = (art.u_star - float(art.u_grid.max())) - bound
        worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 0.0
    report(6, ok, f"max(reference) - max(grid) exceeds L(b-a)/n + 1e-6 by {worst_excess:.2e} (<= 0 required)")
    assert ok


def test_criterion_7_endpoint_identities():
    models = (
        uniform_scenario(delta=1.0, big_m=1e4),
        truncated_gaussian_scenario(sigma=0.5, delta=1.0, big_m=1e4),
    )
    worst = 0.0
    for scenario in models:
        d = scenario.delta
        for eta in ETA_MATRIX:
            worst = max(worst, abs(k_eta(scenario, eta, (eta - 1.0) * d) - 1.0))
            worst = max(worst, abs(k_eta(scenario, eta, (eta + 1.0) * d)))
            worst = max(worst, abs(nu_eta(scenario, eta, (eta + 1.0) * d)))
            worst = max(worst, abs(h_eta(scenario, eta, 0.0)))
    ok = worst <= 1e-9
    report(7, ok, f"max endpoint identity error {worst:.2e} (tol 1e-9)")
    assert ok


def test_criterion_8_subcommand_determinism(tmp_path):
    from goc.cli import main

    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(
        "learner.b = 3.0\n"
        "learner.lambda = 0.5\n"
        "lipschitz.ell = 2.0\n"
        "lipschitz.L = 0.3\n"
        "lipschitz.d = 1.0\n"
        "envelope.grid = 401\n"
        "experiment.trials = 2\n"
        "experiment.budget_scale = 0.02\n"
    )
    c = str(cfg_path)
    invocations = {
        "envelope": ["envelope", "--config", c, "--eta-list", "2,2.5", "--grid", "301"],
        "solve": ["solve", "--config", c, "--eta-list", "2,2.5,3"],
        "simulate": ["simulate", "--config", c, "--mode", "physical", "--eta", "2.5",
                     "--rounds", "500", "--adv", "z=2.0:1.0", "--seed", "7"],
        "learn": ["learn", "--config", c, "--algo", "both", "--seed", "42"],
        "verify": ["verify", "--config", c, "--eta-list", "2", "--alpha-list", "0.5,1.0",
                   "--z-grid", "201", "--w-grid", "101"],
        "curves": ["curves", "--config", c, "--points", "11"],
        "report": ["report", "--config", c],
    }
    all_ok = True
    for name, argv in invocations.items():
        outs = []
        for run in ("a", "b"):
            target = tmp_path / f"{name}_{run}"
            if name == "report":
                rc = main(argv + ["--out", str(target)])
                assert rc == 0
                outs.append(
                    (target / "trials.csv").read_bytes() + (target / "summary.csv").read_bytes()
                )
            else:
                out_file = target.with_suffix(".csv")
                rc = main(argv + ["--out", str(out_file)])
                assert rc == 0
                outs.append(out_file.read_bytes())
        same = outs[0] == outs[1]
        all_ok = all_ok and same
        assert same, f"{name} output differs between identical runs"
    report(8, all_ok, "all seven subcommands byte-identical across repeated runs")
    assert all_ok


def test_supplementary_learners_agree(default_art, default_results):
    # both learners land within lambda of each other in at least 1 - 2 delta of trials
    etc, elim = default_results
    lam = default_art.config["learner.lambda"]
    delta = default_art.config["learner.delta"]
    etas = default_art.learner.etas()
    u_of = lambda r: float(default_art.u_grid[np.argmin(np.abs(etas - r.eta_hat))])
    agree = np.mean([abs(u_of(a) - u_of(b)) <= lam for a, b in zip(etc, elim)])
    assert agree >= 1.0 - 2.0 * delta


def test_supplementary_known_utility_benchmark_dominates(default_art, default_results):
    # the complete-information solve on the same grid is never worse than a
    # learner's choice beyond lambda, in at least 1 - delta of trials
    value = default_art.u_grid.max()
    etc, _ = default_results
    lam = default_art.config["learner.lambda"]
    delta = default_art.config["learner.delta"]
    etas = default_art.learner.etas()
    u_of = lambda r: float(default_art.u_grid[np.argmin(np.abs(etas - r.eta_hat))])
    frac = np.mean([value >= u_of(r) - lam for r in etc])
    assert frac >= 1.0 - delta
