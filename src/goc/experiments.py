"""Seeded experiment orchestration, trial aggregation, and CSV emission.

Every output is a pure function of (configuration, base seed): trials use
per-(trial, arm) streams, aggregation order is fixed, and floats are
written with shortest-roundtrip formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from goc.config import ExperimentConfig
from goc.envelope import EnvelopeTable, build_envelope_tables
from goc.environment import BernoulliArmEnv, PhysicalArmEnv
from goc.learners import LearnerConfig, LearnerOutcome, run_elimination, run_etc
from goc.oracle import best_response, best_response_curve
from goc.utility import estimate_lipschitz

ETC = "etc"
ELIMINATION = "elim"

REFERENCE_DENSITY = 10  # reference grid points per learner grid point


@dataclass(frozen=True)
class InstanceArtifacts:
    """Everything a trial reads, derived from the configuration alone (no randomness)."""

    config: ExperimentConfig
    learner: LearnerConfig
    tables: tuple[EnvelopeTable, ...]
    alphas: np.ndarray  # best-response acceptance rate at the learner grid points
    u_grid: np.ndarray  # realized utility at the learner grid points
    u_star: float  # max realized utility on the reference grid


def prepare_instance(config: ExperimentConfig) -> InstanceArtifacts:
    """Resolve smoothness constants, budgets, tables, best responses, and the reference optimum."""
    scenario, spec = config.scenario, config.utility_spec
    a, b = config["learner.a"], config["learner.b"]
    grid_size = config["envelope.grid"]
    alpha_min = config["envelope.alpha_min"]
    lip = config.lipschitz_override or estimate_lipschitz(
        scenario, spec, (a, b), config["estimator.resolution"], grid_size, alpha_min).profile
    learner = LearnerConfig.derive(
        a, b, config["learner.delta"], config["learner.lambda"], lip,
        budget_scale=config["experiment.budget_scale"],
    )
    tables = tuple(build_envelope_tables(scenario, learner.etas(), grid_size, alpha_min))
    responses = [best_response(t, spec) for t in tables]
    ref_etas = np.linspace(a, b, REFERENCE_DENSITY * (learner.n + 1))
    reference = best_response_curve(scenario, spec, ref_etas, grid_size, alpha_min)
    return InstanceArtifacts(
        config=config,
        learner=learner,
        tables=tables,
        alphas=np.array([br.alpha_star for br in responses]),
        u_grid=np.array([br.dc_value for br in responses]),
        u_star=float(np.max([br.dc_value for br in reference])),
    )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    algo: str
    regret_raw: float
    best_arm_eliminated: bool
    outcome: LearnerOutcome

    @property
    def eta_hat(self) -> float:
        return self.outcome.eta_hat

    @property
    def rounds_used(self) -> int:
        return self.outcome.total_game_rounds


def run_trial(art: InstanceArtifacts, trial: int, algo: str) -> TrialResult:
    """One seeded learning trial; matched algorithms share the same streams."""
    base_seed = art.config["experiment.base_seed"]
    env_cls = BernoulliArmEnv if art.config["env.mode"] == "bernoulli" else PhysicalArmEnv
    env = env_cls(art.config.scenario, art.tables, art.alphas, base_seed, trial)
    if algo == ETC:
        outcome = run_etc(art.learner, env, art.config.utility_spec)
    elif algo == ELIMINATION:
        outcome = run_elimination(art.learner, env, art.config.utility_spec)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return TrialResult(
        trial=trial,
        algo=algo,
        regret_raw=art.u_star - float(art.u_grid[outcome.eta_hat_index - 1]),
        best_arm_eliminated=outcome.eliminated[int(np.argmax(art.u_grid))],
        outcome=outcome,
    )


_WORKER_ART: InstanceArtifacts | None = None


def _worker_init(art: InstanceArtifacts) -> None:
    global _WORKER_ART
    _WORKER_ART = art


def _worker_run(task: tuple[int, str]) -> TrialResult:
    assert _WORKER_ART is not None
    return run_trial(_WORKER_ART, *task)


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: ``explicit`` (at least 1), else 1; capped at the CPUs this process may use."""
    if explicit is None:
        explicit = 1
    elif explicit < 1:
        raise ValueError(f"--threads: must be >= 1, got {explicit!r}")
    if hasattr(os, "sched_getaffinity"):
        return min(explicit, len(os.sched_getaffinity(0)))
    return min(explicit, os.cpu_count() or 1)


def run_trials(
    art: InstanceArtifacts, algos: Sequence[str], threads: int | None = None
) -> list[TrialResult]:
    """All ``experiment.trials`` (trial, algo) runs, in deterministic (algo, trial) order."""
    trials = art.config["experiment.trials"]
    tasks = [(t, algo) for algo in algos for t in range(trials)]
    n_threads = resolve_threads(threads)
    if n_threads == 1 or len(tasks) < 4:
        return [run_trial(art, *task) for task in tasks]
    # workers run art itself: forked ones inherit it, spawned ones unpickle it once each
    with ProcessPoolExecutor(
        max_workers=n_threads, initializer=_worker_init, initargs=(art,)
    ) as pool:
        return list(pool.map(_worker_run, tasks, chunksize=max(1, len(tasks) // (4 * n_threads))))


@dataclass(frozen=True)
class AlgoSummary:
    algo: str
    trials: int
    mean_regret: float
    median_regret: float
    failure_rate: float
    mean_rounds_used: float
    mean_eliminated: float
    best_arm_eliminated_rate: float


def summarize(results: Iterable[TrialResult], lam: float) -> tuple[AlgoSummary, ...]:
    """Per-algorithm statistics, checked against the matched-seed round bound."""
    by_algo: dict[str, list[TrialResult]] = {}
    for r in results:
        by_algo.setdefault(r.algo, []).append(r)
    summaries = []
    for algo in sorted(by_algo):
        rs = sorted(by_algo[algo], key=lambda r: r.trial)
        regrets = np.array([max(0.0, r.regret_raw) for r in rs])
        summaries.append(
            AlgoSummary(
                algo=algo,
                trials=len(rs),
                mean_regret=float(regrets.mean()),
                median_regret=float(np.median(regrets)),
                failure_rate=float(np.mean([r.regret_raw > lam for r in rs])),
                mean_rounds_used=float(np.mean([r.rounds_used for r in rs])),
                mean_eliminated=float(np.mean([sum(r.outcome.eliminated) for r in rs])),
                best_arm_eliminated_rate=float(np.mean([r.best_arm_eliminated for r in rs])),
            )
        )
    # matched-seed structural bound: elimination never plays more than fixed budget
    if ETC in by_algo and ELIMINATION in by_algo:
        etc_rounds = {r.trial: r.rounds_used for r in by_algo[ETC]}
        for r in by_algo[ELIMINATION]:
            if r.trial in etc_rounds and r.rounds_used > etc_rounds[r.trial]:
                raise ValueError(
                    f"trial {r.trial}: elimination used more rounds than the fixed budget"
                )
    return tuple(summaries)


# -- CSV emission -----------------------------------------------------------


def _fmt(x) -> str:
    """The text of one CSV cell."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


# _fmt for one exact type, with the isinstance chain resolved once per column slice
_CELL_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: ("false", "true").__getitem__,
}

# _fmt for the ``.tolist()`` cells of an array, by dtype kind (longdouble excepted)
_KIND_TEXT = {"f": float.__repr__, "i": int.__repr__, "u": int.__repr__, "b": _CELL_TEXT[bool]}

CSV_CHUNK = 1024  # rows write_csv formats per column pass


def _column_cells(column) -> tuple[int | None, Callable[[int, int], Iterable[str]]]:
    """``(length, cells)`` of one block column; ``cells(start, stop)`` is the text of those rows.

    An array picks its formatter by dtype, a list or tuple by cell type (each
    slice of one type at once, a mixed slice cell by cell), and anything else
    is a scalar: formatted once, repeated on every row, no length.
    """
    if isinstance(column, np.ndarray) and column.ndim:
        text = _KIND_TEXT.get(column.dtype.kind) if column.dtype.itemsize <= 8 else None
        if text is not None:
            return len(column), lambda start, stop: map(text, column[start:stop].tolist())
        column = list(column)
    if isinstance(column, (list, tuple)):
        def cells(start: int, stop: int) -> Iterable[str]:
            part = column[start:stop]
            types = set(map(type, part))
            if len(types) == 1:
                return map(_CELL_TEXT.get(types.pop(), _fmt), part)
            return [_CELL_TEXT.get(type(x), _fmt)(x) for x in part]
        return len(column), cells
    cell = _fmt(column)
    return None, lambda start, stop: repeat(cell, stop - start)


def write_csv(
    path: str | Path, header: Sequence[str], blocks: Iterable[Sequence], config_hash: str, seed: int
) -> None:
    """CSV led by a ``# config_hash=... seed=...`` line; ``blocks`` stream to a temp file
    renamed to ``path``.

    Each block holds one column per header column: a numpy array, a list or
    tuple of cells, or a scalar cell that repeats on every row; its array and
    list columns share one length. Cells are written as ``_fmt`` writes them,
    column by column, at most ``CSV_CHUNK`` rows at a time.
    """
    path = Path(path)
    width = len(header)
    if not width:
        raise ValueError(f"{path}: the header has no columns")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# config_hash={config_hash} seed={seed}\n{','.join(header)}\n")
            for b, block in enumerate(blocks):
                if len(block) != width:
                    raise ValueError(
                        f"{path}: block {b} has {len(block)} columns, header has {width}")
                lengths, cells = zip(*map(_column_cells, block))
                sizes = set(lengths) - {None}
                if len(sizes) != 1:
                    raise ValueError(f"{path}: block {b} has array and list columns of lengths "
                                     f"{sorted(sizes)}; it needs one length")
                n = sizes.pop()
                for start in range(0, n, CSV_CHUNK):
                    lines = zip(*(c(start, min(start + CSV_CHUNK, n)) for c in cells))
                    fh.write("\n".join(map(",".join, lines)) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


TRIAL_HEADER = ("trial", "algo", "eta_hat", "regret_raw", "rounds_used", "best_arm_eliminated")


def trial_rows(results: Iterable[TrialResult]) -> list[tuple]:
    """One column block of ``TRIAL_HEADER`` columns, in (algo, trial) order."""
    rs = sorted(results, key=attrgetter("algo", "trial"))
    return [tuple([getattr(r, name) for r in rs] for name in TRIAL_HEADER)]


SUMMARY_HEADER = (*(f.name for f in fields(AlgoSummary)), "envelope_max_gap")


def summary_rows(
    summaries: Iterable[AlgoSummary], envelope_max_gap: float | None = None
) -> list[tuple]:
    """One column block of ``SUMMARY_HEADER`` columns; the gap is a scalar column."""
    ss = list(summaries)
    gap = "" if envelope_max_gap is None else envelope_max_gap
    return [(*([getattr(s, f.name) for s in ss] for f in fields(AlgoSummary)), gap)]
