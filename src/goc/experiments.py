"""Seeded experiment orchestration, trial aggregation, and CSV emission.

Every output is a pure function of (configuration, base seed): trials use
per-(trial, arm) streams, aggregation order is fixed, and floats are
written with shortest-roundtrip formatting, so reruns are byte-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from goc.config import ExperimentConfig
from goc.envelope import EnvelopeTable, build_envelope_table
from goc.environment import BernoulliArmEnv, PhysicalArmEnv
from goc.learners import LearnerConfig, LearnerOutcome, run_elimination, run_etc
from goc.noise import Scenario
from goc.oracle import best_response, best_response_curve
from goc.utility import LipschitzProfile, UtilitySpec, estimate_lipschitz

ETC = "etc"
ELIMINATION = "elim"

REFERENCE_DENSITY = 10  # reference grid points per learner grid point


@dataclass(frozen=True)
class InstanceArtifacts:
    """Everything derivable from the configuration alone (no randomness)."""

    config: ExperimentConfig
    scenario: Scenario
    spec: UtilitySpec
    lip: LipschitzProfile
    learner: LearnerConfig
    etas: np.ndarray
    tables: tuple[EnvelopeTable, ...]
    u_grid: np.ndarray  # realized utility at the learner grid points
    u_star: float  # max realized utility on the reference grid
    best_arm_index: int  # 1-based best learner-grid arm
    reference_etas: np.ndarray
    reference_u: np.ndarray


def prepare_instance(config: ExperimentConfig) -> InstanceArtifacts:
    """Resolve smoothness constants, budgets, tables, and the reference optimum."""
    scenario = config.scenario()
    spec = config.utility_spec()
    a, b = config["learner.a"], config["learner.b"]
    grid_size = config["envelope.grid"]
    alpha_min = config["envelope.alpha_min"]
    lip = config.lipschitz_override()
    if lip is None:
        lip = estimate_lipschitz(
            scenario,
            spec,
            (a, b),
            resolution=config["estimator.resolution"],
            grid_size=grid_size,
            alpha_min=alpha_min,
        ).profile
    learner = LearnerConfig.derive(
        a, b, config["learner.delta"], config["learner.lambda"], lip,
        budget_scale=config["experiment.budget_scale"],
    )
    etas = learner.etas()
    tables = tuple(build_envelope_table(scenario, e, grid_size, alpha_min) for e in etas)
    u_grid = np.array([best_response(t, spec).dc_value for t in tables])
    ref_etas = np.linspace(a, b, REFERENCE_DENSITY * (learner.n + 1))
    ref_u = np.array(
        [br.dc_value for br in best_response_curve(scenario, spec, ref_etas, grid_size, alpha_min)]
    )
    return InstanceArtifacts(
        config=config,
        scenario=scenario,
        spec=spec,
        lip=lip,
        learner=learner,
        etas=etas,
        tables=tables,
        u_grid=u_grid,
        u_star=float(ref_u.max()),
        best_arm_index=int(np.argmax(u_grid)) + 1,
        reference_etas=ref_etas,
        reference_u=ref_u,
    )


@dataclass(frozen=True)
class TrialResult:
    trial: int
    algo: str
    eta_hat: float
    regret_raw: float
    regret_capped: float
    rounds_used: int
    best_arm_eliminated: bool
    n_eliminated: int
    outcome: LearnerOutcome | None = None


def run_trial(
    art: InstanceArtifacts, trial: int, algo: str, keep_outcome: bool = False
) -> TrialResult:
    """One seeded learning trial; matched algorithms share the same streams."""
    base_seed = art.config["experiment.base_seed"]
    env_cls = BernoulliArmEnv if art.config["env.mode"] == "bernoulli" else PhysicalArmEnv
    env = env_cls(art.scenario, art.spec, art.etas, art.tables, base_seed, trial)
    if algo == ETC:
        outcome = run_etc(art.learner, env, art.spec)
    elif algo == ELIMINATION:
        outcome = run_elimination(art.learner, env, art.spec)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    raw = art.u_star - float(art.u_grid[outcome.eta_hat_index - 1])
    best_state = outcome.arm_trace[art.best_arm_index - 1]
    return TrialResult(
        trial=trial,
        algo=algo,
        eta_hat=outcome.eta_hat,
        regret_raw=raw,
        regret_capped=max(0.0, raw),
        rounds_used=outcome.total_game_rounds,
        best_arm_eliminated=best_state.eliminated,
        n_eliminated=sum(1 for s in outcome.arm_trace if s.eliminated),
        outcome=outcome if keep_outcome else None,
    )


_WORKER_ART: InstanceArtifacts | None = None


def _worker_init(art: InstanceArtifacts) -> None:
    global _WORKER_ART
    _WORKER_ART = art


def _worker_run(task: tuple[int, str, bool]) -> TrialResult:
    assert _WORKER_ART is not None
    return run_trial(_WORKER_ART, *task)


def resolve_threads(explicit: int | None = None) -> int:
    """Worker count: ``explicit``, else ``GOC_THREADS``, else 1; capped at the CPU count."""
    if explicit is None:
        try:
            explicit = int(os.environ.get("GOC_THREADS", "1"))
        except ValueError:
            explicit = 1
    return max(1, min(explicit, os.cpu_count() or 1))


def run_trials(
    art: InstanceArtifacts,
    algos: Sequence[str],
    threads: int | None = None,
    keep_outcome: bool = False,
) -> list[TrialResult]:
    """All ``experiment.trials`` (trial, algo) runs, in deterministic (algo, trial) order."""
    trials = art.config["experiment.trials"]
    tasks = [(t, algo, keep_outcome) for algo in algos for t in range(trials)]
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


@dataclass(frozen=True)
class SummaryReport:
    """Aggregate statistics, validated against the matched-seed round bound."""

    per_algo: tuple[AlgoSummary, ...]
    envelope_max_gap: float | None = None

    def __post_init__(self) -> None:
        for s in self.per_algo:
            if not 0.0 <= s.failure_rate <= 1.0:
                raise ValueError("failure rate outside [0, 1]")

    def for_algo(self, algo: str) -> AlgoSummary:
        for s in self.per_algo:
            if s.algo == algo:
                return s
        raise KeyError(algo)


def summarize(
    results: Iterable[TrialResult], lam: float, envelope_max_gap: float | None = None
) -> SummaryReport:
    by_algo: dict[str, list[TrialResult]] = {}
    for r in results:
        by_algo.setdefault(r.algo, []).append(r)
    summaries = []
    for algo in sorted(by_algo):
        rs = sorted(by_algo[algo], key=lambda r: r.trial)
        regrets = np.array([r.regret_capped for r in rs])
        summaries.append(
            AlgoSummary(
                algo=algo,
                trials=len(rs),
                mean_regret=float(regrets.mean()),
                median_regret=float(np.median(regrets)),
                failure_rate=float(np.mean([r.regret_raw > lam for r in rs])),
                mean_rounds_used=float(np.mean([r.rounds_used for r in rs])),
                mean_eliminated=float(np.mean([r.n_eliminated for r in rs])),
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
    return SummaryReport(per_algo=tuple(summaries), envelope_max_gap=envelope_max_gap)


# -- CSV emission -----------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence],
    config_hash: str,
    seed: int,
) -> None:
    """CSV led by a ``# config_hash=... seed=...`` line; rows stream to a temp file renamed to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(f"# config_hash={config_hash} seed={seed}\n{','.join(header)}\n")
            fh.writelines(",".join(_fmt(x) for x in row) + "\n" for row in rows)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def trial_rows(results: Iterable[TrialResult]) -> list[tuple]:
    return [
        (r.trial, r.algo, r.eta_hat, r.regret_raw, r.rounds_used, r.best_arm_eliminated)
        for r in sorted(results, key=lambda r: (r.algo, r.trial))
    ]


TRIAL_HEADER = ("trial", "algo", "eta_hat", "regret_raw", "rounds_used", "best_arm_eliminated")

SUMMARY_HEADER = (
    "algo",
    "trials",
    "mean_regret",
    "median_regret",
    "failure_rate",
    "mean_rounds_used",
    "mean_eliminated",
    "best_arm_eliminated_rate",
    "envelope_max_gap",
)


def summary_rows(report: SummaryReport) -> list[tuple]:
    gap = "" if report.envelope_max_gap is None else report.envelope_max_gap
    return [
        (
            s.algo,
            s.trials,
            s.mean_regret,
            s.median_regret,
            s.failure_rate,
            s.mean_rounds_used,
            s.mean_eliminated,
            s.best_arm_eliminated_rate,
            gap,
        )
        for s in report.per_algo
    ]


def curve_rows(
    config: ExperimentConfig, points: int = 201
) -> list[tuple[float, float, float, float]]:
    """Realized-utility curve samples: (eta, acceptance, conditional MSE, utility)."""
    etas = np.linspace(config["learner.a"], config["learner.b"], points)
    curve = best_response_curve(config.scenario(), config.utility_spec(), etas,
                                config["envelope.grid"], config["envelope.alpha_min"])
    return [(br.eta, br.alpha_star, br.mmse, br.dc_value) for br in curve]


CURVE_HEADER = ("eta", "alpha", "mmse", "u")


def run_experiment(
    config: ExperimentConfig,
    algos: Sequence[str] = (ETC, ELIMINATION),
    out_dir: str | Path = ".",
    threads: int | None = None,
    envelope_max_gap: float | None = None,
) -> tuple[SummaryReport, list[TrialResult]]:
    """Run the seeded trial matrix and write ``trials.csv`` and ``summary.csv``.

    ``out_dir`` is created first, so a path that cannot be a directory fails before any work.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    art = prepare_instance(config)
    results = run_trials(art, algos, threads=threads)
    report = summarize(results, lam=art.learner.lam, envelope_max_gap=envelope_max_gap)
    h = config.hash()
    seed = config["experiment.base_seed"]
    write_csv(out_dir / "trials.csv", TRIAL_HEADER, trial_rows(results), h, seed)
    write_csv(out_dir / "summary.csv", SUMMARY_HEADER, summary_rows(report), h, seed)
    return report, results
