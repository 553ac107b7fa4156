"""One execution of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per sample. It loads the generated
config, sets up (imports, config validation, ``prepare_instance`` where
the workload has it), runs the workload's job once as a closed loop with
one client, hashes the CSV bodies it wrote and writes a JSON record. With
``--trace 1`` it first wraps the library's public functions (see
``spans.py``) and adds the per-layer metrics and a span file.

Usage (normally only through run.py):
    python3 bench/workloads.py --workload NAME --dir RUN_DIR --launch-ns NS
                               [--threads N] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Workloads: the config keys that differ from the defaults, and the job size.
# Sizes keep one execution between 5 and 15 s on a 2-core machine.
REPORT_BERNOULLI_TRIALS = 12
REPORT_PHYSICAL_TRIALS = 2  # run_trials only starts the pool for >= 4 tasks
WORKLOADS = {
    "report-bernoulli": {"experiment.trials": REPORT_BERNOULLI_TRIALS},
    "report-physical-2w": {
        "noise.kind": "truncated_gaussian",
        "noise.sigma": 0.5,
        "env.mode": "physical",
        "experiment.budget_scale": 0.1,
        "experiment.trials": REPORT_PHYSICAL_TRIALS,
    },
    "analysis-tg3": {"noise.kind": "truncated_gaussian", "noise.sigma": 3.0},
}
PHYSICAL_THREADS = 2
SIM_BERNOULLI_ROUNDS = 100_000
SIM_PHYSICAL_ROUNDS = 200_000


def config_text(workload: str, seed: int) -> str:
    pairs = dict(WORKLOADS[workload])
    pairs["experiment.base_seed"] = seed
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def analysis_argvs(cfg: str, out: Path) -> list[list[str]]:
    """The non-learning subcommands, sized so that none takes most of the wall time."""
    c = ["--config", cfg]
    return [
        ["curves", *c, "--points", "201", "--out", str(out / "curves.csv")],
        ["solve", *c, "--out", str(out / "solve.csv")],
        ["envelope", *c, "--eta-list", "2,2.5,3,4,6", "--out", str(out / "envelope.csv")],
        ["verify", *c, "--eta-list", "2,3", "--alpha-list", "0.5",
         "--out", str(out / "verify.csv")],
        ["simulate", *c, "--mode", "bernoulli", "--eta", "3",
         "--rounds", str(SIM_BERNOULLI_ROUNDS), "--out", str(out / "sim_bernoulli.csv")],
        ["simulate", *c, "--mode", "physical", "--eta", "3",
         "--rounds", str(SIM_PHYSICAL_ROUNDS), "--adv", "z=2.5:0.6,z=3.5:0.4",
         "--out", str(out / "sim_physical.csv")],
    ]


def body_digest(path: Path) -> str:
    """SHA-256 of a CSV without its leading ``# config_hash=... seed=...`` line."""
    data = path.read_bytes()
    if data.startswith(b"#"):
        data = data.split(b"\n", 1)[1]
    return hashlib.sha256(data).hexdigest()


class Job:
    """Counts attempted and failed operations; stops at the first that raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            raise


def run_report(job: Job, rec: dict, cfg_path: Path, out: Path, threads: int) -> None:
    from goc.config import load_config
    from goc import experiments as ex

    cfg = job.op("load_config", load_config, cfg_path)
    art = job.op("prepare_instance", ex.prepare_instance, cfg)
    rec["setup_end_ns"] = time.monotonic_ns()
    algos = (ex.ETC, ex.ELIMINATION)
    t0 = time.perf_counter()
    if threads == 1 and cfg["env.mode"] == "bernoulli":
        results, lat = [], {algo: [] for algo in algos}
        for algo in algos:
            for t in range(cfg["experiment.trials"]):
                s = time.perf_counter()
                results.append(job.op("run_trial", ex.run_trial, art, t, algo))
                lat[algo].append(time.perf_counter() - s)
        rec["trial_s"] = lat
    else:
        results = job.op("run_trials", ex.run_trials, art, algos, threads=threads)
    rec["trial_phase_s"] = time.perf_counter() - t0
    rec["trials_run"] = len(results)
    rec["rounds"] = sum(r.rounds_used for r in results)
    report = job.op("summarize", ex.summarize, results, lam=art.learner.lam)
    h, seed = cfg.hash(), cfg["experiment.base_seed"]
    job.op("write_csv", ex.write_csv, out / "trials.csv", ex.TRIAL_HEADER,
           ex.trial_rows(results), h, seed)
    job.op("write_csv", ex.write_csv, out / "summary.csv", ex.SUMMARY_HEADER,
           ex.summary_rows(report), h, seed)


def run_analysis(job: Job, rec: dict, cfg_path: Path, out: Path) -> None:
    from goc.config import load_config
    import goc.cli

    job.op("load_config", load_config, cfg_path)
    rec["setup_end_ns"] = time.monotonic_ns()
    rec["subcommand_s"] = {}
    sim_s = 0.0
    for argv in analysis_argvs(str(cfg_path), out):
        label = argv[0] if argv[0] != "simulate" else f"simulate-{argv[argv.index('--mode') + 1]}"
        s = time.perf_counter()
        rc = job.op(label, goc.cli.main, argv)
        took = time.perf_counter() - s
        rec["subcommand_s"][label] = took
        if rc != 0:
            job.failed += 1
            job.errors.append(f"{label}: exit code {rc}")
        if argv[0] == "simulate":
            sim_s += took
    rec["trial_phase_s"] = sim_s
    rec["rounds"] = SIM_BERNOULLI_ROUNDS + SIM_PHYSICAL_ROUNDS


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--launch-ns", required=True, type=int)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    import goc  # the package under test, from this checkout's src/

    if Path(goc.__file__).resolve().parent != ROOT / "src" / "goc":
        print(f"error: goc imported from {goc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import numpy
    import scipy

    out = args.dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    report = args.workload.startswith("report-")
    threads = args.threads
    if threads is None:
        threads = PHYSICAL_THREADS if args.workload == "report-physical-2w" else 1

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer(run_id=args.dir.name, span_dir=args.dir)
        install(tracer)

    rec: dict = {"pid": os.getpid(), "threads": threads, "traced": bool(args.trace),
                 "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "scipy": scipy.__version__}}
    job = Job()
    try:
        if report:
            run_report(job, rec, args.dir / "config.txt", out, threads)
        else:
            run_analysis(job, rec, args.dir / "config.txt", out)
    except Exception:
        pass  # recorded by Job.op; the outputs of this job are then missing
    end_ns = time.monotonic_ns()
    rec["setup_s"] = (rec.get("setup_end_ns", end_ns) - args.launch_ns) / 1e9
    rec["wall_s"] = (end_ns - rec.get("setup_end_ns", args.launch_ns)) / 1e9
    rec["peak_rss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rec["digests"] = {f.name: body_digest(f) for f in sorted(out.glob("*.csv"))}
    for f in out.glob("*.csv"):
        f.unlink()
    out.rmdir()

    if tracer is not None:
        from spans import layer_metrics, read_spans, write_spans

        write_spans(args.dir / "spans-main.jsonl", tracer.spans, tracer.run_id)
        spans = []
        for f in sorted(args.dir.glob("spans-*.jsonl")):
            spans.extend(read_spans(f))
        with open(args.dir / "spans.jsonl", "w") as fh:
            for s in sorted(spans, key=lambda s: s["start_ns"]):
                fh.write(json.dumps(s) + "\n")
        for f in args.dir.glob("spans-*.jsonl"):
            f.unlink()
        rec["layers"] = layer_metrics(spans, tracer.main_pid)
        rec["trial_spans"] = sum(1 for s in spans if s["name"] == "experiments.run_trial")

    rec.update(attempted=job.attempted, failed=job.failed, errors=job.errors)
    (args.dir / "record.json").write_text(json.dumps(rec, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
