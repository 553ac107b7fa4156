import dataclasses

import numpy as np
import pytest

from goc.config import default_config
from goc.experiments import (
    ELIMINATION,
    ETC,
    prepare_instance,
    run_experiment,
    run_trial,
    summarize,
    write_csv,
)


@pytest.fixture(scope="module")
def smoke_cfg():
    return default_config().with_overrides(**{
        "learner.b": 3.0,
        "learner.lambda": 0.5,
        "lipschitz.ell": 2.0,
        "lipschitz.L": 0.3,
        "lipschitz.d": 1.0,
        "envelope.grid": 401,
        "experiment.trials": 3,
        "experiment.budget_scale": 0.02,
    })


@pytest.fixture(scope="module")
def smoke_art(smoke_cfg):
    return prepare_instance(smoke_cfg)


def test_prepare_instance_shapes(smoke_art):
    assert len(smoke_art.tables) == smoke_art.learner.n + 1
    assert smoke_art.reference_etas.size == 10 * (smoke_art.learner.n + 1)
    assert smoke_art.u_star >= smoke_art.u_grid.max() - 1e-12
    assert 1 <= smoke_art.best_arm_index <= smoke_art.learner.n + 1


def test_trials_deterministic(smoke_art):
    a = run_trial(smoke_art, 1, ETC)
    b = run_trial(smoke_art, 1, ETC)
    assert a == b
    c = run_trial(smoke_art, 1, ELIMINATION)
    assert c.rounds_used <= a.rounds_used


def test_regret_caps_and_reports_raw(smoke_art):
    from goc.oracle import realized_u

    res = run_trial(smoke_art, 0, ETC)
    cfg = smoke_art.config
    u_chosen = realized_u(smoke_art.scenario, smoke_art.spec, res.eta_hat,
                          grid_size=cfg["envelope.grid"], alpha_min=cfg["envelope.alpha_min"])
    assert smoke_art.u_star - res.regret_raw == pytest.approx(u_chosen, abs=1e-12)
    low = run_trial(dataclasses.replace(smoke_art, u_star=u_chosen - 1.0), 0, ETC)
    assert low.regret_raw == pytest.approx(-1.0, abs=1e-9)
    assert low.regret_capped == 0.0
    high = run_trial(dataclasses.replace(smoke_art, u_star=u_chosen + 0.25), 0, ETC)
    assert high.regret_raw == pytest.approx(0.25, abs=1e-9)
    assert high.regret_capped == pytest.approx(0.25, abs=1e-9)


def test_summary_counts_match_trials(smoke_art, smoke_cfg):
    results = [run_trial(smoke_art, t, algo) for algo in (ETC, ELIMINATION) for t in range(3)]
    report = summarize(results, lam=smoke_art.learner.lam)
    etc = report.for_algo(ETC)
    assert etc.trials == 3
    recount = float(np.mean([r.regret_raw > smoke_art.learner.lam for r in results if r.algo == ETC]))
    assert etc.failure_rate == recount


def test_run_experiment_writes_consistent_csvs(smoke_cfg, tmp_path):
    report, results = run_experiment(smoke_cfg, out_dir=tmp_path)
    trials = (tmp_path / "trials.csv").read_text().splitlines()
    assert trials[1].split(",") == list(
        ("trial", "algo", "eta_hat", "regret_raw", "rounds_used", "best_arm_eliminated")
    )
    # recount the failure rate straight from the CSV
    body = [line.split(",") for line in trials[2:]]
    etc_rows = [row for row in body if row[1] == ETC]
    recount = np.mean([float(row[3]) > smoke_cfg["learner.lambda"] for row in etc_rows])
    assert report.for_algo(ETC).failure_rate == recount
    # matched-seed structural bound visible in the csv
    elim_rows = {row[0]: int(row[4]) for row in body if row[1] == ELIMINATION}
    for row in etc_rows:
        assert elim_rows[row[0]] <= int(row[4])


def test_run_experiment_byte_identical(smoke_cfg, tmp_path):
    run_experiment(smoke_cfg, out_dir=tmp_path / "a")
    run_experiment(smoke_cfg, out_dir=tmp_path / "b")
    for name in ("trials.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_physical_mode_trials(smoke_cfg):
    cfg = smoke_cfg.with_overrides(**{"env.mode": "physical"})
    art = prepare_instance(cfg)
    a = run_trial(art, 0, ETC)
    b = run_trial(art, 0, ELIMINATION)
    assert b.rounds_used <= a.rounds_used
    assert a == run_trial(art, 0, ETC)  # deterministic
    # acceptance statistics stay in law with the Bernoulli mode
    bern = run_trial(prepare_instance(smoke_cfg), 0, ETC)
    assert abs(a.regret_raw - bern.regret_raw) < 1.0


def test_parallel_trials_match_sequential(smoke_cfg, smoke_art):
    from goc.experiments import run_trials

    seq = run_trials(smoke_art, (ETC, ELIMINATION), threads=1)
    par = run_trials(smoke_art, (ETC, ELIMINATION), threads=2)
    assert seq == par


def test_threads_env_var(monkeypatch):
    from goc.experiments import resolve_threads

    monkeypatch.setenv("GOC_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2
    monkeypatch.setenv("GOC_THREADS", "junk")
    assert resolve_threads() == 1


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [(1, 0.5, True), (2, 1e-9, False)], "deadbeef", 7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef seed=7"
    assert lines[2] == "1,0.5,true"
    assert lines[3] == "2,1e-09,false"
