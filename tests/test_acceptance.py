"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The learning criteria
use the full derived per-candidate budget (no smoke scaling) on the
default instance and on a well-separated instance; trial artifacts are
shared across criteria through module-scoped fixtures.
"""

import math

import numpy as np
import pytest

from goc.config import default_config
from goc.envelope import build_envelope_table, k_eta, nu_eta
from goc.environment import MixtureAdversary, make_rng, physical_rounds
from goc.experiments import ELIMINATION, ETC, prepare_instance, run_trial
from goc.noise import truncated_gaussian_scenario, uniform_scenario
from goc.verify import two_point_oracle

from reference import h_eta

ETA_MATRIX = (2.0, 2.5, 3.0, 4.0, 6.0)
ALPHA_MATRIX = tuple(round(0.1 * i, 1) for i in range(1, 11))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def default_art():
    # uniform noise, linear collector (gamma 0.3), product adversary;
    # (a, b, delta, lambda) = (2, 6, 0.05, 0.1) with estimated smoothness
    return prepare_instance(default_config())


@pytest.fixture(scope="module")
def default_results(default_art):
    trials = default_art.config["experiment.trials"]
    etc = [run_trial(default_art, t, ETC) for t in range(trials)]
    elim = [run_trial(default_art, t, ELIMINATION) for t in range(trials)]
    return etc, elim


@pytest.fixture(scope="module")
def separated_config():
    # sharply varying utility over a short range: gamma = 1 collector,
    # product adversary, accuracy target 0.5
    return default_config().with_overrides(**{
        "utility.dc.gamma": 1.0,
        "learner.b": 3.0,
        "learner.lambda": 0.5,
    })


@pytest.fixture(scope="module")
def separated_art(separated_config):
    return prepare_instance(separated_config)


@pytest.fixture(scope="module")
def separated_results(separated_art):
    trials = separated_art.config["experiment.trials"]
    etc = [run_trial(separated_art, t, ETC) for t in range(trials)]
    elim = [run_trial(separated_art, t, ELIMINATION) for t in range(trials)]
    return etc, elim


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


def test_criterion_3_etc_pac_validation(default_art, default_results):
    etc, _ = default_results
    delta = default_art.config["learner.delta"]
    lam = default_art.config["learner.lambda"]
    failures = sum(r.regret_raw > lam for r in etc)
    rate = failures / len(etc)
    ok = rate < delta and default_art.learner.budget_scale == 1.0
    report(
        3,
        ok,
        f"ETC failure rate {rate:.4f} over {len(etc)} trials "
        f"(n={default_art.learner.n}, k={default_art.learner.k}, full budget, target < {delta})",
    )
    assert ok


def test_criterion_4_elimination_validation_and_efficiency(
    default_art, default_results, separated_art, separated_results
):
    etc_d, elim_d = default_results
    delta = default_art.config["learner.delta"]
    lam = default_art.config["learner.lambda"]
    rate = sum(r.regret_raw > lam for r in elim_d) / len(elim_d)
    bounded_default = all(e.rounds_used <= c.rounds_used for e, c in zip(elim_d, etc_d))
    etc_s, elim_s = separated_results
    bounded_sep = all(e.rounds_used <= c.rounds_used for e, c in zip(elim_s, etc_s))
    strict = np.mean([e.rounds_used < c.rounds_used for e, c in zip(elim_s, etc_s)])
    ok = rate < delta and bounded_default and bounded_sep and strict >= 0.5
    report(
        4,
        ok,
        f"elimination failure rate {rate:.4f} (target < {delta}); rounds bounded in 100% "
        f"({bounded_default and bounded_sep}); strict saving in {strict:.0%} of separated trials",
    )
    assert ok


def test_criterion_5_safe_elimination_frequency(separated_art):
    trials = 500
    eliminated = 0
    for t in range(trials):
        res = run_trial(separated_art, t, ELIMINATION)
        eliminated += res.best_arm_eliminated
    rate = eliminated / trials
    delta = separated_art.config["learner.delta"]
    ok = rate < delta
    report(5, ok, f"best candidate eliminated in {rate:.4f} of {trials} trials (target < {delta})")
    assert ok


def test_criterion_6_quantization_bound(default_art, separated_art):
    worst_excess = -np.inf
    gentle = default_config().with_overrides(**{"utility.dc.gamma": 0.1})
    mixed = default_config().with_overrides(**{
        "utility.ad.kind": "weighted_sum",
        "utility.ad.w_mse": 1.0,
        "utility.ad.w_pa": 8.0,
    })
    instances = [default_art, separated_art, prepare_instance(gentle), prepare_instance(mixed)]
    for art in instances:
        bound = art.lip.big_l * (art.learner.b - art.learner.a) / art.learner.n + 1e-6
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
    u_of = lambda r: float(default_art.u_grid[np.argmin(np.abs(default_art.etas - r.eta_hat))])
    agree = np.mean([abs(u_of(a) - u_of(b)) <= lam for a, b in zip(etc, elim)])
    assert agree >= 1.0 - 2.0 * delta


def test_supplementary_known_utility_benchmark_dominates(default_art, default_results):
    # the complete-information solve on the same grid is never worse than a
    # learner's choice beyond lambda, in at least 1 - delta of trials
    from goc.oracle import solve_complete_info

    _, value = solve_complete_info(default_art.tables, default_art.spec)
    etc, _ = default_results
    lam = default_art.config["learner.lambda"]
    delta = default_art.config["learner.delta"]
    u_of = lambda r: float(default_art.u_grid[np.argmin(np.abs(default_art.etas - r.eta_hat))])
    frac = np.mean([value >= u_of(r) - lam for r in etc])
    assert frac >= 1.0 - delta
