"""Span tracing installed from outside the library, and the per-layer metrics.

``install`` wraps the public functions of each ``goc`` layer. Because
``from goc.x import f`` binds a separate name in every importing module,
each wrapper replaces the function under every module attribute that
holds it; methods are wrapped on their class. A span records its name,
start, end, parent span, process and run id, plus a few counts read at
the same boundary (points, grid size, rounds, ties, bytes).

Spans stay in memory. A pool worker forked from a traced process inherits
the wrappers; an after-fork hook empties its copy of the span list,
parents its spans to the span that was open at the fork, and registers a
multiprocessing finalizer that writes them out when the worker exits,
which happens before the pool's shutdown returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute, span name); "Class.method" attributes are wrapped on the class
TRACED = (
    ("goc.noise", "HonestNoiseModel.partial_moments", "noise.partial_moments"),
    ("goc.noise", "HonestNoiseModel.ppf", "noise.ppf"),
    ("goc.envelope", "build_envelope_table", "envelope.build_envelope_table"),
    ("goc.utility", "estimate_lipschitz", "utility.estimate_lipschitz"),
    ("goc.oracle", "best_response", "oracle.best_response"),
    ("goc.oracle", "realized_u", "oracle.realized_u"),
    ("goc.environment", "BernoulliArmEnv.acceptance_block", "environment.acceptance_block"),
    ("goc.environment", "PhysicalArmEnv.acceptance_block", "environment.acceptance_block"),
    ("goc.environment", "physical_rounds", "environment.physical_rounds"),
    ("goc.environment", "step_bernoulli", "environment.step_bernoulli"),
    ("goc.learners", "run_etc", "learners.run_etc"),
    ("goc.learners", "run_elimination", "learners.run_elimination"),
    ("goc.experiments", "prepare_instance", "experiments.prepare_instance"),
    ("goc.experiments", "run_trial", "experiments.run_trial"),
    ("goc.experiments", "run_trials", "experiments.run_trials"),
    ("goc.experiments", "summarize", "experiments.summarize"),
    ("goc.experiments", "write_csv", "experiments.write_csv"),
    ("goc.verify", "two_point_oracle", "verify.two_point_oracle"),
    ("goc.cli", "cmd_envelope", "cli.envelope"),
    ("goc.cli", "cmd_solve", "cli.solve"),
    ("goc.cli", "cmd_curves", "cli.curves"),
    ("goc.cli", "cmd_verify", "cli.verify"),
    ("goc.cli", "cmd_simulate", "cli.simulate"),
)

# the counters that must repeat exactly at a fixed seed
EXACT_COUNTERS = (
    "envelope.build_envelope_table.calls",
    "envelope.unique_table_frac",
    "environment.uniforms_drawn",
    "learners.elim_useful_round_frac",
    "learners.clamped_estimates",
    "oracle.tie_frac",
    "verify.cells",
)


class Tracer:
    """In-memory span recorder for one traced run (one process tree)."""

    def __init__(self, run_id: str, span_dir: Path) -> None:
        self.run_id = run_id
        self.span_dir = span_dir
        self.main_pid = os.getpid()
        self.spans: list[tuple] = []
        self._reset(parent=None)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self, parent) -> None:
        self._pid = os.getpid()
        self._stack: list[int] = []
        self._count = 0
        self._fork_parent = parent

    def _after_fork(self) -> None:
        parent = self._stack[-1] if self._stack else self._fork_parent
        self.spans = []
        self._reset(parent)
        multiprocessing.util.Finalize(None, self._write_worker_spans, exitpriority=10)

    def _write_worker_spans(self) -> None:
        write_spans(self.span_dir / f"spans-worker-{self._pid}.jsonl", self.spans, self.run_id)

    def wrap(self, name: str, fn, attrs=None):
        """Span-recording wrapper; ``attrs`` is a fixed dict or ``f(arguments, result)``."""
        sig = inspect.signature(fn) if callable(attrs) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = (self._pid << 32) | self._count
            parent = self._stack[-1] if self._stack else self._fork_parent
            self._stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
            extra = attrs
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound.arguments, out)
            self.spans.append((sid, parent, name, t0, t1, self._pid, extra))
            return out

        return traced


def _table_attrs(a, table):
    s = a["scenario"]
    key = repr((s.noise.kind, s.noise.sigma, s.delta, s.big_m,
                float(a["eta"]), int(a["grid_size"]), float(a["alpha_min"])))
    return {"key": key, "grid": int(a["grid_size"]),
            "concave": int(table.hull_q.size == int(a["grid_size"]))}


def _learner_attrs(a, outcome):
    cfg = a["config"]
    return {"rounds": outcome.total_game_rounds, "budget": (cfg.n + 1) * cfg.k,
            "clamps": outcome.clamp_count}


def _attr_functions() -> dict[str, object]:
    from goc.environment import _PHYS_DRAWS

    def block(per_round):
        def attrs(a, _):
            arm_rounds = a["self"].n_arms * (a["r1"] - a["r0"])
            return {"arm_rounds": arm_rounds, "uniforms": arm_rounds * per_round}
        return attrs

    return {
        "HonestNoiseModel.partial_moments": lambda a, _: {"points": int(np.size(a["t"]))},
        "HonestNoiseModel.ppf": lambda a, _: {"points": int(np.size(a["u"]))},
        "build_envelope_table": _table_attrs,
        "best_response": lambda a, br: {"ties": br.tie_count},
        "BernoulliArmEnv.acceptance_block": block(1),
        "PhysicalArmEnv.acceptance_block": block(_PHYS_DRAWS),
        "physical_rounds": lambda a, _: {"uniforms": a["n_rounds"] * _PHYS_DRAWS},
        "step_bernoulli": {"uniforms": 1},
        "run_etc": _learner_attrs,
        "run_elimination": _learner_attrs,
        "run_trial": lambda a, r: {"trial": r.trial, "algo": r.algo, "rounds": r.rounds_used},
        "write_csv": lambda a, _: {"bytes": os.path.getsize(a["path"])},
        "two_point_oracle": lambda a, _: {
            "cells": a["z_grid_size"] ** 2 * (a["w_grid_size"] + 1)},
    }


def install(tracer: Tracer) -> None:
    """Wrap every traced function under each ``goc`` module name that holds it."""
    import importlib

    attr_fns = _attr_functions()
    for module_name, attr, span_name in TRACED:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span_name, getattr(cls, meth), attr_fns.get(attr)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, attr_fns.get(attr))
        for name, mod in list(sys.modules.items()):
            if (name == "goc" or name.startswith("goc.")) and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def write_spans(path: Path, spans, run_id: str) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, t0, t1, pid, extra in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_ns": t0,
                                 "end_ns": t1, "pid": pid, "run": run_id, "attrs": extra}) + "\n")


def read_spans(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


# -- per-layer metrics --------------------------------------------------------


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of intervals (worker children of one span overlap)."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], main_pid: int) -> dict[str, float]:
    """Every per-layer metric the benchmark defines, from one traced run's spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        s["dur"] = s["end_ns"] - s["start_ns"]
        s["self"] = s["dur"] - _covered_ns(children.get(s["id"], []))
        by_name.setdefault(s["name"], []).append(s)

    def group(name, main_only=False, workers_only=False):
        out = by_name.get(name, [])
        if main_only:
            out = [s for s in out if s["pid"] == main_pid]
        if workers_only:
            out = [s for s in out if s["pid"] != main_pid]
        return out

    def calls(name):
        return len(group(name))

    def busy(name, **kw):
        return sum(s["dur"] for s in group(name, **kw)) / 1e9

    def self_s(name, **kw):
        return sum(s["self"] for s in group(name, **kw)) / 1e9

    def p50_ms(name):
        durs = [s["dur"] for s in group(name)]
        return statistics.median(durs) / 1e6 if durs else 0.0

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in group(name))

    m: dict[str, float] = {}
    for layer in ("noise.partial_moments", "noise.ppf"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.points"] = attr_sum(layer, "points")

    tables = group("envelope.build_envelope_table")
    layer = "envelope.build_envelope_table"
    m[f"{layer}.calls"] = len(tables)
    m[f"{layer}.busy_s"] = busy(layer)
    m[f"{layer}.self_s"] = self_s(layer)
    m[f"{layer}.p50_ms"] = p50_ms(layer)
    m["envelope.grid_points"] = attr_sum(layer, "grid")
    m["envelope.unique_table_frac"] = _frac(len({s["attrs"]["key"] for s in tables}), len(tables))
    m["envelope.concave_table_frac"] = _frac(attr_sum(layer, "concave"), len(tables))

    m["utility.estimate_lipschitz.busy_s"] = busy("utility.estimate_lipschitz")
    m["utility.estimate_lipschitz.self_s"] = self_s("utility.estimate_lipschitz")

    m["oracle.best_response.calls"] = calls("oracle.best_response")
    m["oracle.best_response.busy_s"] = busy("oracle.best_response")
    m["oracle.realized_u.calls"] = calls("oracle.realized_u")
    m["oracle.realized_u.busy_s"] = busy("oracle.realized_u")
    m["oracle.realized_u.self_s"] = self_s("oracle.realized_u")
    ties = [s["attrs"]["ties"] for s in group("oracle.best_response")]
    m["oracle.tie_frac"] = _frac(sum(1 for t in ties if t > 1), len(ties))

    layer = "environment.acceptance_block"
    m[f"{layer}.calls"] = calls(layer)
    m[f"{layer}.busy_s"] = busy(layer)
    m[f"{layer}.arm_rounds"] = attr_sum(layer, "arm_rounds")
    m[f"{layer}.ns_per_arm_round"] = _frac(busy(layer) * 1e9, m[f"{layer}.arm_rounds"])
    m["environment.uniforms_drawn"] = sum(
        attr_sum(name, "uniforms")
        for name in (layer, "environment.physical_rounds", "environment.step_bernoulli")
    )
    m["environment.physical_rounds.busy_s"] = busy("environment.physical_rounds")
    m["environment.step_bernoulli.calls"] = calls("environment.step_bernoulli")
    m["environment.step_bernoulli.busy_s"] = busy("environment.step_bernoulli")

    for layer in ("learners.run_etc", "learners.run_elimination"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.self_s"] = self_s(layer)
        m[f"{layer}.p50_ms"] = p50_ms(layer)
    elim = group("learners.run_elimination")
    m["learners.elim_useful_round_frac"] = _frac(
        sum(s["attrs"]["rounds"] for s in elim), sum(s["attrs"]["budget"] for s in elim))
    rounds = {(s["attrs"]["algo"], s["attrs"]["trial"]): s["attrs"]["rounds"]
              for s in group("experiments.run_trial")}
    matched = [t for (algo, t) in rounds if algo == "elim" and ("etc", t) in rounds]
    m["learners.elim_rounds_saved_frac"] = 1.0 - _frac(
        sum(rounds[("elim", t)] for t in matched), sum(rounds[("etc", t)] for t in matched)
    ) if matched else 0.0
    m["learners.clamped_estimates"] = sum(
        attr_sum(name, "clamps") for name in ("learners.run_etc", "learners.run_elimination"))

    m["experiments.prepare_instance.busy_s"] = busy("experiments.prepare_instance", main_only=True)
    m["experiments.prepare_instance.self_s"] = self_s("experiments.prepare_instance", main_only=True)
    m["experiments.run_trials.busy_s"] = busy("experiments.run_trials")
    worker_prep = group("experiments.prepare_instance", workers_only=True)
    m["experiments.worker_prepare_s"] = (
        statistics.mean(s["dur"] for s in worker_prep) / 1e9 if worker_prep else 0.0)
    m["experiments.summarize.busy_s"] = busy("experiments.summarize")
    m["experiments.write_csv.busy_s"] = busy("experiments.write_csv")
    m["experiments.write_csv.bytes"] = attr_sum("experiments.write_csv", "bytes")

    m["verify.two_point_oracle.calls"] = calls("verify.two_point_oracle")
    m["verify.two_point_oracle.busy_s"] = busy("verify.two_point_oracle")
    m["verify.cells"] = attr_sum("verify.two_point_oracle", "cells")
    m["verify.ns_per_cell"] = _frac(m["verify.two_point_oracle.busy_s"] * 1e9, m["verify.cells"])

    for cmd in ("envelope", "solve", "curves", "verify", "simulate"):
        m[f"cli.{cmd}.busy_s"] = busy(f"cli.{cmd}")
    return m


UNITS = {
    "calls": "count", "points": "count", "arm_rounds": "count", "bytes": "bytes",
    "grid_points": "count", "uniforms_drawn": "count", "cells": "count",
    "clamped_estimates": "count", "p50_ms": "ms", "ns_per_arm_round": "ns",
    "ns_per_cell": "ns",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "frac"
    raise KeyError(metric)
