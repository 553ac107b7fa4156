"""Seeded experiment orchestration, trial aggregation, and CSV emission.

Every output is a pure function of (configuration, base seed): trials use
per-(trial, arm) streams, aggregation order is fixed, and floats are
written with shortest-roundtrip formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from goc.config import ExperimentConfig
from goc.envelope import EnvelopeTable, build_envelope_tables
from goc.environment import BernoulliArmEnv, PhysicalArmEnv, physical_gates
from goc.learners import LearnerConfig, LearnerOutcome, run_elimination, run_etc
from goc.oracle import best_response
from goc.utility import dc_slope, estimate_lipschitz

ETC = "etc"
ELIMINATION = "elim"
ELL_ETA_POINTS = 17  # prepare_instance: evenly spread sweep tables whose slopes give ell


@dataclass(frozen=True)
class InstanceArtifacts:
    """Everything a trial reads, derived from the configuration alone (no randomness)."""

    config: ExperimentConfig
    learner: LearnerConfig
    tables: tuple[EnvelopeTable, ...]
    env_cls: type  # the arm environment of env.mode: BernoulliArmEnv or PhysicalArmEnv
    arms: Sequence  # what env_cls draws each learner arm from: its best-response rate, or its _Gate
    u_grid: np.ndarray  # realized utility at the learner grid points
    u_star: float  # max realized utility over the estimator sweep and the learner grid


def prepare_instance(config: ExperimentConfig) -> InstanceArtifacts:
    """Resolve smoothness constants, the budget, the arms and the optimum; the one reader of
    ``env.mode`` beside ``load_config``, it picks ``env_cls`` and builds physical arms' gates."""
    scenario, spec = config.scenario, config.utility_spec
    a, b = config["learner.a"], config["learner.b"]
    grid_size = config["envelope.grid"]
    alpha_min = config["envelope.alpha_min"]
    etas = np.linspace(a, b, config["estimator.resolution"])  # one sweep: ell, L, d and u_star
    ell_rows = set(np.round(np.linspace(0, etas.size - 1, ELL_ETA_POINTS)).astype(int).tolist())
    u, slopes = np.empty(etas.size), []
    for i, table in enumerate(build_envelope_tables(scenario, etas, grid_size, alpha_min)):
        u[i] = best_response(table, spec).dc_value
        if i in ell_rows:
            slopes.append(dc_slope(spec, table))
    lip = config.lipschitz_override or estimate_lipschitz(etas, u, slopes).profile
    learner = LearnerConfig.derive(
        a, b, config["learner.delta"], config["learner.lambda"], lip,
        budget_scale=config["experiment.budget_scale"],
    )
    tables = tuple(build_envelope_tables(scenario, learner.etas(), grid_size, alpha_min))
    responses = [best_response(t, spec) for t in tables]
    u_grid = np.array([br.dc_value for br in responses])
    alphas = np.array([br.alpha_star for br in responses])
    if config["env.mode"] == "bernoulli":
        env_cls, arms = BernoulliArmEnv, alphas
    else:
        env_cls, arms = PhysicalArmEnv, physical_gates(scenario, tables, alphas)
    return InstanceArtifacts(
        config=config,
        learner=learner,
        tables=tables,
        env_cls=env_cls,
        arms=arms,
        u_grid=u_grid,
        # the learner grid is not nested in the sweep: its maximum keeps every regret >= 0
        u_star=max(float(u.max()), float(u_grid.max())),
    )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    algo: str
    eta_hat: float
    regret_raw: float
    best_arm_eliminated: bool
    outcome: LearnerOutcome

    @property
    def rounds_used(self) -> int:
        return self.outcome.total_game_rounds


def _trial_env(art: InstanceArtifacts, trial: int):
    """A fresh environment of the instance's arms on ``trial``'s streams."""
    return art.env_cls(art.tables, art.arms, art.config["experiment.base_seed"], trial)


def run_trial(art: InstanceArtifacts, trial: int, algo: str, *, env=None) -> TrialResult:
    """One seeded learning trial; matched algorithms share the same streams.

    ``env`` is an environment of this trial that an earlier learner used (see
    ``_trial_runs``); without it the trial draws on a fresh one.
    """
    if env is None:
        env = _trial_env(art, trial)
    if algo == ETC:
        outcome = run_etc(art.learner, env, art.config.utility_spec)
    elif algo == ELIMINATION:
        outcome = run_elimination(art.learner, env, art.config.utility_spec)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    return TrialResult(
        trial=trial,
        algo=algo,
        eta_hat=float(art.learner.etas()[outcome.eta_hat_index - 1]),
        regret_raw=art.u_star - float(art.u_grid[outcome.eta_hat_index - 1]),
        best_arm_eliminated=outcome.eliminated[int(np.argmax(art.u_grid))],
        outcome=outcome,
    )


_WORKER_ART: InstanceArtifacts | None = None


def _worker_init(art: InstanceArtifacts) -> None:
    global _WORKER_ART
    _WORKER_ART = art


def _trial_runs(
    art: InstanceArtifacts, trial: int, algos: Sequence[str]
) -> dict[str, TrialResult]:
    """Each of ``algos`` on one environment of ``trial``, elimination first.

    Elimination reads each stream from round 0 and never past ``k``, and ETC
    then counts each stream's rest, so each stream is drawn once and both
    results equal those of a fresh environment each.
    """
    env = _trial_env(art, trial)
    order = sorted(algos, key=lambda algo: algo != ELIMINATION)
    return {algo: run_trial(art, trial, algo, env=env) for algo in order}


def _worker_run(task: tuple[int, Sequence[str]]) -> dict[str, TrialResult]:
    assert _WORKER_ART is not None
    return _trial_runs(_WORKER_ART, *task)


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
    """All ``experiment.trials`` (trial, algo) runs, in deterministic (algo, trial) order.

    One task per trial runs its learners on one environment (``_trial_runs``);
    a pool starts for more than one thread and at least four runs.
    """
    trials = art.config["experiment.trials"]
    tasks = [(t, algos) for t in range(trials)]
    n_threads = resolve_threads(threads)
    if n_threads == 1 or trials * len(algos) < 4:
        runs = [_trial_runs(art, *task) for task in tasks]
    else:
        # imported only by a run that starts a pool
        from concurrent.futures import ProcessPoolExecutor

        # workers run art itself: forked ones inherit it, spawned ones unpickle it once each
        with ProcessPoolExecutor(
            max_workers=n_threads, initializer=_worker_init, initargs=(art,)
        ) as pool:
            runs = list(pool.map(_worker_run, tasks,
                                 chunksize=max(1, trials // (4 * n_threads))))
    return [runs[t][algo] for algo in algos for t in range(trials)]


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


# _fmt for the ``.tolist()`` cells of an array, by dtype kind (longdouble excepted)
_KIND_TEXT = {"f": float.__repr__, "i": int.__repr__, "u": int.__repr__,
              "b": ("false", "true").__getitem__}

CSV_CHUNK = 1024  # rows write_csv formats per column pass


def _array_text(values: np.ndarray) -> Iterable[str]:
    """The text of each cell of a 1-d array: by dtype kind where it has one, else by ``_fmt``."""
    text = _KIND_TEXT.get(values.dtype.kind) if values.dtype.itemsize <= 8 else None
    return map(text, values.tolist()) if text is not None else map(_fmt, values)


def _column_cells(column) -> tuple[int | None, Callable[[int, int], Iterable[str]]]:
    """``(length, cells)`` of one block column; ``cells(start, stop)`` is the text of those rows.

    An array is formatted by dtype; a masked array likewise on its shown cells,
    with ``""`` at its masked ones. A list or tuple is formatted cell by cell,
    and anything else is a scalar: formatted once, repeated on every row, no
    length.
    """
    if isinstance(column, np.ndarray) and column.ndim:
        ma = sys.modules.get("numpy.ma")  # loaded wherever a masked array exists
        if ma is not None and isinstance(column, ma.MaskedArray):
            data, shown = column.data, ~ma.getmaskarray(column)

            def masked_cells(start: int, stop: int) -> list[str]:
                show = shown[start:stop]
                text = _array_text(data[start:stop][show])
                return [next(text) if s else "" for s in show.tolist()]
            return len(column), masked_cells
        return len(column), lambda start, stop: _array_text(column[start:stop])
    if isinstance(column, (list, tuple)):
        return len(column), lambda start, stop: map(_fmt, column[start:stop])
    cell = _fmt(column)
    return None, lambda start, stop: repeat(cell, stop - start)


def write_csv(
    path: str | Path, header: Sequence[str], blocks: Iterable[Sequence], config_hash: str, seed: int
) -> None:
    """CSV led by a ``# config_hash=... seed=...`` line; ``blocks`` stream to a temp file
    renamed to ``path``.

    Each block holds one column per header column: a numpy array, a masked
    array (a masked cell is written blank), a list or tuple of cells, or a
    scalar cell that repeats on every row; its array and list columns share one
    length. Cells are written as ``_fmt`` writes them, column by column, at
    most ``CSV_CHUNK`` rows at a time.
    """
    path = Path(path)
    width = len(header)
    if not width:
        raise ValueError(f"{path}: the header has no columns")
    blocks = iter(blocks)
    # the first block is drawn before any directory is made, so a run that fails there
    # (a rejected input) leaves nothing behind
    block, b = next(blocks, None), 0
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# config_hash={config_hash} seed={seed}\n{','.join(header)}\n")
            while block is not None:
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
                block = cells = lines = None  # hold nothing of this block while the next is drawn
                block, b = next(blocks, None), b + 1
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
