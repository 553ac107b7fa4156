"""Benchmark for goc: three workloads, end-to-end metrics, and a traced run per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists):
    report-bernoulli     defaults, both learners, full budget, one process
    report-physical-2w   truncated Gaussian sigma 0.5, physical mode,
                         budget_scale 0.1, run_trials with two workers
    analysis-tg3         truncated Gaussian sigma 3.0, the non-learning
                         subcommands through goc.cli.main

Each sample is one execution of the workload in a fresh interpreter
(set-up, then one job, outputs written), run as a closed loop with one
client. Samples repeat until ``--seconds`` have passed, at least two of
them. With ``--trace 1`` one traced execution follows, which gives the
per-layer metrics and a span file; for report-physical-2w a single-process
execution follows as well, whose CSVs must equal the two-worker ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json without tracing, its per-layer metrics with.
Everything measured, including the span file, is kept under
``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTERS, unit_of
from workloads import WORKLOADS, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 42  # experiment.base_seed default; its CSV digests are recorded
MIN_SAMPLES = 2  # the pool workload's samples take 15-25 s
DEADLINE_S = 170.0  # every run, traced or not, must end within 180 s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GOC_THREADS", None)
    # two workers on two cores must not also start BLAS threads
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


class Runner:
    """Starts workload executions one after another, each in a fresh interpreter."""

    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float) -> None:
        self.workload = workload
        self.config = config_text(workload, seed)
        self.run_dir = run_dir
        self.deadline = deadline
        self.longest = 0.0

    def has_time(self) -> bool:
        return time.monotonic() + 1.5 * self.longest < self.deadline

    def sample(self, name: str, trace: int = 0, threads: int | None = None) -> dict | None:
        """Run one execution; ``None`` when it crashed or ran out of time."""
        d = self.run_dir / name
        d.mkdir()
        (d / "config.txt").write_text(self.config)
        cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", self.workload,
               "--dir", str(d), "--trace", str(trace)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        started = time.monotonic()
        with open(d / "child.log", "w") as log:
            launch_ns = time.monotonic_ns()
            proc = subprocess.Popen(cmd + ["--launch-ns", str(launch_ns)], cwd=ROOT,
                                    env=child_env(), stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # the session holds the pool workers too
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        self.longest = max(self.longest, time.monotonic() - started)
        record = d / "record.json"
        if proc.returncode != 0 or not record.exists():
            return None
        return json.loads(record.read_text())


def median(values) -> float:
    return float(statistics.median(values))


def latency_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"samples": n, "p50_ms": median(xs) * 1e3}
    if n >= 11:
        out["tail_ms"] = xs[n - 11] * 1e3
        out["tail_percentile"] = round(100.0 * (n - 10) / n, 1)
    return out


def src_digest() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min": os.getloadavg()[0],
    }


def check_outputs(records: list[dict], ref: dict[str, str]) -> tuple[int, list[str]]:
    """Failed output checks: each CSV whose body digest differs from the reference."""
    bad, notes = 0, []
    for rec in records:
        if rec["failed"]:
            continue  # its missing outputs are already counted as the failed operation
        for name in sorted(set(ref) | set(rec["digests"])):
            if rec["digests"].get(name) != ref.get(name):
                bad += 1
                notes.append(f"{rec['label']}: {name} differs from the reference")
    return bad, notes


def main() -> int:
    p = argparse.ArgumentParser(description="goc benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "goc" / "__init__.py").is_file():
        print(f"error: no goc package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # on SIGTERM, unwind so that the running sample's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    start = time.monotonic()
    fp = fingerprint()
    run_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, run_dir, start + DEADLINE_S)

    records: list[dict] = []
    lost = 0  # executions that crashed or timed out

    def take(label, **kw):
        nonlocal lost
        rec = runner.sample(label, **kw)
        if rec is None:
            lost += 1
        else:
            rec["label"] = label
            records.append(rec)
        return rec

    i = 0
    while i < MIN_SAMPLES or time.monotonic() - start < args.seconds:
        if i and not runner.has_time():
            break
        take(f"sample{i}")
        i += 1
    untraced = [r for r in records if not r["traced"]]
    traced = single = None
    if args.trace and runner.has_time():
        traced = take("traced", trace=1)
    if args.trace and args.workload == "report-physical-2w" and runner.has_time():
        single = take("single-process", threads=1)
    if not untraced:
        print("error: no execution of the workload completed; see " + str(run_dir),
              file=sys.stderr)
        return 1

    # -- output checks: CSV bodies against the recorded, previous or first digests
    expected = json.loads((BENCH / "expected.json").read_text())
    state_path = OUT / "state" / f"{args.workload}-seed{args.seed}.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    if args.seed == DEFAULT_SEED and args.workload in expected:
        ref, ref_from = expected[args.workload], "recorded for the default seed"
    elif state:
        ref, ref_from = state, "an earlier run at this seed"
    else:
        ref, ref_from = {"digests": untraced[0]["digests"]}, "the first execution of this run"
    bad, notes = check_outputs(records, ref["digests"])

    attempted = sum(r["attempted"] for r in records) + lost
    failed = sum(r["failed"] for r in records) + lost + bad

    counters = counter_note = None
    if traced is not None:
        counters = {k: traced["layers"][k] for k in EXACT_COUNTERS}
        if "counters" in ref:
            diff = [k for k in EXACT_COUNTERS if ref["counters"][k] != counters[k]]
            counter_note = ("repeat exactly (against " + ref_from + ")" if not diff
                            else "DIFFER from " + ref_from + ": " + ", ".join(diff))
        else:
            counter_note = "first traced run at this seed; stored for the next"
    if not failed and not lost:
        if not state:
            state = {"digests": untraced[0]["digests"]}
        if counters is not None and "counters" not in state:
            state["counters"] = counters
        state_path.parent.mkdir(exist_ok=True)
        state_path.write_text(json.dumps(state, indent=1, sort_keys=True))

    # -- end-to-end metrics, from the untraced executions only
    e2e = {
        "setup_s": median(r["setup_s"] for r in untraced),
        "wall_s": median(r["wall_s"] for r in untraced),
        "rounds_per_s": median(r["rounds"] / r["trial_phase_s"] for r in untraced),
        "peak_rss_mb": median(r["peak_rss_kb"] / 1024.0 for r in untraced),
    }
    latencies = {}
    if all("trial_s" in r for r in untraced):
        for algo in ("etc", "elim"):
            latencies[algo] = latency_summary([x for r in untraced for x in r["trial_s"][algo]])

    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        untraced_total = median(r["setup_s"] + r["wall_s"] for r in untraced)
        layers["trace_overhead_frac"] = (traced["setup_s"] + traced["wall_s"]) / untraced_total - 1.0

    fp["versions"] = untraced[0]["versions"]
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fp, "end_to_end": e2e, "trial_latency": latencies,
        "per_layer": layers, "exact_counters": counter_note, "output_check": notes,
        "reference": ref_from, "attempted": attempted, "failed": failed, "lost": lost,
        "executions": records,
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))

    report(result, untraced, traced, single, run_dir)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    if values is None:  # the traced execution crashed or had no time left
        print("error: the traced execution did not complete; see " + str(run_dir),
              file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0 and lost == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    print(json.dumps(line))
    return 0


def report(result: dict, untraced: list[dict], traced, single, run_dir: Path) -> None:
    """Human-readable summary; the JSON line that follows is what tools read."""
    n = len(untraced)
    fp = result["fingerprint"]
    v = fp["versions"]
    failed, attempted = result["failed"], result["attempted"]
    notes, layers = result["output_check"], result["per_layer"]
    print(f"goc benchmark  workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"  fingerprint  git={fp['git_sha']} src={fp['src_sha256']} python={fp['python']} "
          f"numpy={v['numpy']} scipy={v['scipy']} nproc={fp['nproc']} "
          f"load1={fp['load_1min']:.2f}")
    print(f"  end to end, untraced: {n} fresh processes, closed loop, one client")
    units = {"setup_s": "s", "wall_s": "s", "rounds_per_s": "1/s", "peak_rss_mb": "MB"}
    for name, value in result["end_to_end"].items():
        print(f"    {name:<20} {value:>14.4f} {units[name]:<4} median of {n}")
    print(f"    {'failed_frac':<20} {failed / attempted:>14.4f} frac "
          f"{failed} of {attempted} operations")
    for algo, s in result["trial_latency"].items():
        print(f"    {algo + '_trial_p50_ms':<20} {s['p50_ms']:>14.4f} ms   {s['samples']} trials")
        if "tail_ms" in s:
            print(f"    {algo + '_trial_tail_ms':<20} {s['tail_ms']:>14.4f} ms   "
                  f"p{s['tail_percentile']} of {s['samples']} trials, 10 beyond")
    print(f"  output check against {result['reference']}: "
          + ("ok" if not notes else "; ".join(notes)))
    if single is not None:
        print("  single-process CSVs equal the two-worker ones: "
              + ("yes" if single["digests"] == untraced[0]["digests"] else "NO"))
    if layers is not None:
        print(f"  per layer, one traced execution (spans: {run_dir / 'traced' / 'spans.jsonl'})")
        for name in sorted(layers):
            print(f"    {name:<44} {layers[name]:>16.6g} {unit_of(name)}")
        print(f"  exact counters: {result['exact_counters']}")
        if traced["threads"] > 1:
            print(f"  worker spans: {traced['trial_spans']} of {traced['trials_run']} trial spans "
                  "written back")
    print(f"  results: {run_dir / 'result.json'}")


if __name__ == "__main__":
    sys.exit(main())
