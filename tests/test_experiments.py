import dataclasses
import math
import multiprocessing
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goc.environment
import goc.oracle
from goc import experiments
from goc.cli import main
from goc.config import load_config
from goc.experiments import (
    ELIMINATION,
    ETC,
    prepare_instance,
    resolve_threads,
    run_trial,
    run_trials,
    summarize,
    write_csv,
)

from reference import csv_text_per_cell


SMOKE = {
    "learner.b": 3.0,
    "learner.lambda": 0.5,
    "lipschitz.ell": 2.0,
    "lipschitz.L": 0.3,
    "lipschitz.d": 1.0,
    "envelope.grid": 401,
    "experiment.trials": 3,
    "experiment.budget_scale": 0.02,
}


@pytest.fixture(scope="module")
def smoke_cfg():
    return load_config(None).with_overrides(**SMOKE)


def _report(tmp_path, out):
    """``goc report`` on the smoke configuration, writing into ``out``."""
    cfg = tmp_path / "smoke.txt"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in SMOKE.items()))
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def smoke_art(smoke_cfg):
    return prepare_instance(smoke_cfg)


def test_prepare_instance_shapes(smoke_art):
    n_arms = smoke_art.learner.n + 1
    assert len(smoke_art.tables) == n_arms
    assert smoke_art.alphas.shape == smoke_art.u_grid.shape == (n_arms,)
    assert smoke_art.u_star >= smoke_art.u_grid.max() - 1e-12


def test_trials_compute_no_best_response(smoke_cfg, monkeypatch):
    # every arm's best response is a fact of the instance, resolved once by prepare_instance
    arts = {mode: prepare_instance(smoke_cfg.with_overrides(**{"env.mode": mode}))
            for mode in ("bernoulli", "physical")}
    expected = {(mode, algo): run_trial(art, 1, algo)
                for mode, art in arts.items() for algo in (ETC, ELIMINATION)}

    def refuse(*args, **kwargs):
        raise AssertionError("a trial computed a best response")

    assert not hasattr(goc.environment, "best_response")
    for module in (goc.oracle, experiments):
        monkeypatch.setattr(module, "best_response", refuse)
    for (mode, algo), result in expected.items():
        assert run_trial(arts[mode], 1, algo) == result


def test_trials_deterministic(smoke_art):
    a = run_trial(smoke_art, 1, ETC)
    b = run_trial(smoke_art, 1, ETC)
    assert a == b
    c = run_trial(smoke_art, 1, ELIMINATION)
    assert c.rounds_used <= a.rounds_used


def test_regret_caps_and_reports_raw(smoke_art):
    from goc.envelope import build_envelope_table
    from goc.oracle import realized_u

    res = run_trial(smoke_art, 0, ETC)
    cfg = smoke_art.config
    table = build_envelope_table(cfg.scenario, res.eta_hat, cfg["envelope.grid"],
                                 cfg["envelope.alpha_min"])
    u_chosen = realized_u(table, cfg.utility_spec)
    assert smoke_art.u_star - res.regret_raw == pytest.approx(u_chosen, abs=1e-12)
    low = run_trial(dataclasses.replace(smoke_art, u_star=u_chosen - 1.0), 0, ETC)
    assert low.regret_raw == pytest.approx(-1.0, abs=1e-9)
    assert summarize([low], lam=1.0)[0].mean_regret == 0.0
    high = run_trial(dataclasses.replace(smoke_art, u_star=u_chosen + 0.25), 0, ETC)
    assert high.regret_raw == pytest.approx(0.25, abs=1e-9)
    assert summarize([high], lam=1.0)[0].mean_regret == pytest.approx(0.25, abs=1e-9)


def test_summary_counts_match_trials(smoke_art, smoke_cfg):
    results = [run_trial(smoke_art, t, algo) for algo in (ETC, ELIMINATION) for t in range(3)]
    summaries = summarize(results, lam=smoke_art.learner.lam)
    assert type(summaries) is tuple
    etc = {s.algo: s for s in summaries}[ETC]
    assert etc.trials == 3
    recount = float(np.mean([r.regret_raw > smoke_art.learner.lam for r in results if r.algo == ETC]))
    assert etc.failure_rate == recount


def test_run_experiment_writes_consistent_csvs(smoke_cfg, tmp_path):
    _report(tmp_path, tmp_path)
    trials = (tmp_path / "trials.csv").read_text().splitlines()
    assert trials[1].split(",") == list(
        ("trial", "algo", "eta_hat", "regret_raw", "rounds_used", "best_arm_eliminated")
    )
    # recount the failure rate straight from the CSV
    body = [line.split(",") for line in trials[2:]]
    etc_rows = [row for row in body if row[1] == ETC]
    recount = np.mean([float(row[3]) > smoke_cfg["learner.lambda"] for row in etc_rows])
    summary = [line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines()]
    rate = summary[1].index("failure_rate")
    assert {row[0]: float(row[rate]) for row in summary[2:]}[ETC] == recount
    # matched-seed structural bound visible in the csv
    elim_rows = {row[0]: int(row[4]) for row in body if row[1] == ELIMINATION}
    for row in etc_rows:
        assert elim_rows[row[0]] <= int(row[4])


def test_run_experiment_byte_identical(tmp_path):
    _report(tmp_path, tmp_path / "a")
    _report(tmp_path, tmp_path / "b")
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
    seq = run_trials(smoke_art, (ETC, ELIMINATION), threads=1)
    par = run_trials(smoke_art, (ETC, ELIMINATION), threads=2)
    assert seq == par


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit the patched module")
def test_workers_run_the_parents_instance(smoke_art, monkeypatch):
    seq = run_trials(smoke_art, (ETC, ELIMINATION), threads=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_rederivation(config):
        raise AssertionError("a pool worker derived the instance again")

    monkeypatch.setattr(experiments, "prepare_instance", no_rederivation)
    assert run_trials(smoke_art, (ETC, ELIMINATION), threads=2) == seq


def test_pickled_instance_runs_the_same_trials(smoke_art):
    # the copy a spawned worker receives
    copy = pickle.loads(pickle.dumps(smoke_art))
    assert all(not t.alpha_grid.flags.writeable for t in copy.tables)
    for algo in (ETC, ELIMINATION):
        assert run_trial(copy, 1, algo) == run_trial(smoke_art, 1, algo)


def test_threads_capped_at_cpu_count(smoke_art, monkeypatch):
    # the cap is the CPUs this process may run on, not the machine's count
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert resolve_threads(64) == 2
    # without an affinity call the machine's count caps it
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert resolve_threads(64) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_threads() == 1
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"--threads: must be >= 1, got {bad}"):
            resolve_threads(bad)
    # one CPU: a huge request runs serially and starts no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    seq = run_trials(smoke_art, (ETC,), threads=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    assert run_trials(smoke_art, (ETC,), threads=10**6) == seq


def test_write_csv_formats(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [([1, 2], [0.5, 1e-9], [True, False])], "deadbeef", 7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef seed=7"
    assert lines[2] == "1,0.5,true"
    assert lines[3] == "2,1e-09,false"


def test_write_csv_failure_keeps_the_old_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")

    def blocks():
        yield ([1], [0.5])
        raise ValueError("draw failed")

    with pytest.raises(ValueError, match="draw failed"):
        write_csv(path, ("a", "b"), blocks(), "deadbeef", 7)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5])
_CELLS = {
    "float": _FLOATS,
    "int": st.integers(),
    "bool": st.booleans(),
    "str": st.just("") | st.text(st.characters(max_codepoint=127), max_size=4),
    "np.float64": _FLOATS.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "np.bool_": st.booleans().map(np.bool_),
}


@st.composite
def _csv_tables(draw):
    """A header and rows whose columns hold one cell kind each, or a mix of up to three."""
    width = draw(st.integers(1, 5))
    kinds = st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3, unique=True)
    columns = [st.one_of(*(_CELLS[k] for k in draw(kinds))) for _ in range(width)]
    rows = draw(st.lists(st.tuples(*columns), max_size=25))
    return tuple(f"c{j}" for j in range(width)), rows


_SPECIAL_BITS = [int(np.float64(x).view(np.uint64))
                 for x in (-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5)]
_INT64_ENDS = [-(2**63), 2**63 - 1]
_ARRAYS = {  # array kind -> strategy for an array of that kind and a given length
    "float64": lambda n: st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_SPECIAL_BITS),
                                  min_size=n, max_size=n)
    .map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64)),
    "float32": lambda n: st.lists(st.floats(width=32), min_size=n, max_size=n)
    .map(lambda v: np.array(v, dtype=np.float32)),
    "int64": lambda n: st.lists(st.integers(*_INT64_ENDS) | st.sampled_from(_INT64_ENDS),
                                min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    "bool": lambda n: st.lists(st.booleans(), min_size=n, max_size=n)
    .map(lambda v: np.array(v, dtype=bool)),
}


@st.composite
def _column_block(draw, width):
    """A block of ``width`` columns: arrays and cell lists of one length, and scalar cells."""
    n = draw(st.integers(0, 20))
    sized = draw(st.integers(0, width - 1))  # an array or a list, so the block has a length
    columns = []
    for j in range(width):
        kind = draw(st.sampled_from(["list", *_ARRAYS] + (["scalar"] if j != sized else [])))
        if kind == "scalar":
            columns.append(draw(st.one_of(*_CELLS.values())))
        elif kind == "list":
            kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3,
                                  unique=True))
            cells = st.one_of(*(_CELLS[k] for k in kinds))
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
        else:
            columns.append(draw(_ARRAYS[kind](n)))
    return tuple(columns)


def _block_rows(block) -> list[tuple]:
    """The rows a column block stands for, each cell as the block holds it."""
    n = next(len(c) for c in block if isinstance(c, (list, np.ndarray)))
    return list(zip(*(c if isinstance(c, (list, np.ndarray)) else [c] * n for c in block)))


@settings(max_examples=300, deadline=None)
@given(table=_csv_tables(), chunk=st.integers(1, 8), data=st.data())
def test_write_csv_matches_the_per_cell_writer(table, chunk, data):
    header, rows = table
    width = len(header)
    # the rows as one block of cell lists, then drawn blocks of arrays, lists and scalars
    blocks = [tuple([row[j] for row in rows] for j in range(width)),
              *data.draw(st.lists(_column_block(width), max_size=3))]
    saved = experiments.CSV_CHUNK
    experiments.CSV_CHUNK = chunk  # small chunks: most tables and blocks cross a chunk boundary
    try:
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.csv"
            write_csv(path, header, iter(blocks), "deadbeef", 7)
            expected = [row for block in blocks for row in _block_rows(block)]
            assert path.read_bytes() == csv_text_per_cell(header, expected, "deadbeef", 7).encode()
    finally:
        experiments.CSV_CHUNK = saved


@pytest.mark.parametrize("bad_row", [(4,), (4, 1.0, 2.0)])
def test_write_csv_rejects_a_ragged_row(tmp_path, monkeypatch, bad_row):
    # as columns, a row short of a cell leaves its column short, and a row with a cell too
    # many adds a column
    message = (r"has array and list columns of lengths \[4, 5\]" if len(bad_row) == 1
               else "has 3 columns, header has 2")
    monkeypatch.setattr(experiments, "CSV_CHUNK", 2)
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    rows = [(1, 0.5), (2, 1.5), (3, 2.5), bad_row, (5, 3.5)]
    block = tuple([row[j] for row in rows if j < len(row)] for j in range(max(map(len, rows))))
    with pytest.raises(ValueError, match=rf"t\.csv: block 1 {message}"):
        write_csv(path, ("a", "b"), [([0], [0.0]), block], "deadbeef", 7)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("bad_block, message", [
    ((np.arange(3.0),), "has 1 columns, header has 2"),
    ((np.arange(3.0), 0.5, "x"), "has 3 columns, header has 2"),
    ((np.arange(3.0), [1.0, 2.0]), r"has array and list columns of lengths \[2, 3\]"),
    ((1, "x"), r"has array and list columns of lengths \[\]"),
], ids=["narrow", "wide", "unequal", "no-length"])
def test_write_csv_rejects_a_ragged_block(tmp_path, monkeypatch, bad_block, message):
    monkeypatch.setattr(experiments, "CSV_CHUNK", 2)
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    blocks = [(np.arange(5), 0.5), bad_block, (np.arange(2), 1.5)]
    with pytest.raises(ValueError, match=rf"t\.csv: block 1 {message}"):
        write_csv(path, ("a", "b"), blocks, "deadbeef", 7)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_csv_rejects_an_empty_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("old\n")
    with pytest.raises(ValueError, match=r"t\.csv: the header has no columns"):
        write_csv(path, (), [()], "deadbeef", 7)
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
