"""The benchmark tracer in ``bench/spans.py`` must keep working against the library.

The tracer wraps library functions by name from outside the package, so
renaming or restructuring a traced function breaks it without any library
test failing. These checks install it in a fresh interpreter, which keeps
its wrappers out of this test process. The report workload in
``bench/workloads.py`` calls ``goc.experiments`` by name as well, so it is
run here too, untraced, on tiny instances.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from goc.cli import main
from goc.experiments import SUMMARY_HEADER, TRIAL_HEADER

ROOT = Path(__file__).resolve().parents[1]

PROBE = textwrap.dedent(
    """
    import importlib, json, sys
    from pathlib import Path

    import spans
    from goc.envelope import build_envelope_table
    from goc.noise import uniform_scenario
    from goc.oracle import best_response
    from goc.utility import UtilitySpec

    missing = []
    for module_name, attr, _ in spans.TRACED:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")

    tracer = spans.Tracer(run_id="probe", span_dir=Path(sys.argv[1]))
    spans.install(tracer)
    from goc.environment import BernoulliArmEnv, PhysicalArmEnv, physical_gates

    scenario = uniform_scenario()
    spec = UtilitySpec()
    etas = [2.0, 3.0]
    tables = [build_envelope_table(scenario, e, 201) for e in etas]
    rates = [best_response(t, spec).alpha_star for t in tables]
    arm_inputs = {BernoulliArmEnv: rates, PhysicalArmEnv: physical_gates(scenario, tables, rates)}
    blocks = {}
    live = {}
    for cls, arms in arm_inputs.items():
        env = cls(tables, arms, base_seed=1, trial=0)
        before = len(tracer.spans)
        env.acceptance_block(0, 10)
        new = [s for s in tracer.spans[before:] if s[2] == "environment.acceptance_block"]
        blocks[cls.__name__] = [s[6] for s in new]
        # a live-arm block, its arms passed positionally, must still bind in the tracer
        env = cls(tables, arms, base_seed=1, trial=0)
        before = len(tracer.spans)
        out = env.acceptance_block(0, 10, [1])
        new = [s for s in tracer.spans[before:] if s[2] == "environment.acceptance_block"]
        live[cls.__name__] = {"rows": int(out.shape[0]), "spans": len(new)}

    from goc.learners import LearnerConfig, run_elimination, run_etc
    from goc.utility import LipschitzProfile

    # tables whose lower edge is the first arm's best response, so elimination clamps
    lip = LipschitzProfile(ell=2.0, big_l=0.05, d=2.0)
    cfg = LearnerConfig(a=2.0, b=3.0, delta=0.1, lam=0.5, lip=lip, n=1, k=300)
    tables = [build_envelope_table(scenario, e, 801, 0.5) for e in etas]
    rates = [best_response(t, spec).alpha_star for t in tables]
    learners = {}
    for learner in (run_etc, run_elimination):
        env = BernoulliArmEnv(tables, rates, base_seed=1, trial=0)
        before = len(tracer.spans)
        out = learner(cfg, env, spec)
        new = [s for s in tracer.spans[before:] if s[2] == "learners." + learner.__name__]
        learners[learner.__name__] = {
            "spans": [s[6] for s in new],
            "outcome": {"rounds": out.total_game_rounds, "budget": (cfg.n + 1) * cfg.k,
                        "clamps": out.clamp_count},
        }

    # one call each, through the module attributes install replaced, so every attrs
    # function binds its arguments by name at least once
    import goc.envelope, goc.environment, goc.experiments, goc.oracle, goc.verify
    from goc.config import load_config_text
    from goc.environment import MixtureAdversary, make_rng

    def spans_of(name, call):
        before = len(tracer.spans)
        out = call()
        return out, [s[6] for s in tracer.spans[before:] if s[2] == name]

    attrs = {}
    table, attrs["build_envelope_table"] = spans_of(
        "envelope.build_envelope_table",
        lambda: goc.envelope.build_envelope_table(scenario, 2.5, 201, 0.01))
    _, attrs["physical_rounds"] = spans_of(
        "environment.physical_rounds",
        lambda: goc.environment.physical_rounds(
            scenario, 2.5, MixtureAdversary.point_mass(1.0), make_rng(0), 7))
    # no command calls these two, so this probe is all that checks the tracer still binds them
    _, attrs["realized_u"] = spans_of(
        "oracle.realized_u", lambda: goc.oracle.realized_u(table, spec))
    accepted, attrs["step_bernoulli"] = spans_of(
        "environment.step_bernoulli",
        lambda: goc.environment.step_bernoulli(make_rng(0), best_response(table, spec).alpha_star))
    _, attrs["two_point_oracle"] = spans_of(
        "verify.two_point_oracle", lambda: goc.verify.two_point_oracle(scenario, table, 0.5, 201, 101))
    cfg = load_config_text("learner.b = 3.0\\nenvelope.grid = 201\\nexperiment.budget_scale = 0.001\\n"
                           "lipschitz.ell = 2.0\\nlipschitz.L = 0.05\\nlipschitz.d = 2.0\\n")
    art = goc.experiments.prepare_instance(cfg)
    trial, attrs["run_trial"] = spans_of(
        "experiments.run_trial", lambda: goc.experiments.run_trial(art, 3, "etc"))
    csv = Path(sys.argv[1]) / "probe.csv"
    _, attrs["write_csv"] = spans_of(
        "experiments.write_csv",
        lambda: goc.experiments.write_csv(csv, ("x",), [([1],)], cfg.hash(), 42))
    assert type(accepted) is bool
    expected = {"run_trial": [{"trial": 3, "algo": "etc", "rounds": trial.rounds_used}],
                "write_csv": [{"bytes": csv.stat().st_size}]}
    print(json.dumps({"missing": missing, "blocks": blocks, "live": live, "learners": learners,
                      "attrs": attrs, "expected": expected}))
    """
)


def test_tracer_resolves_and_counts_one_span_per_block(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    res = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["missing"] == []
    # two arms x ten rounds; physical rounds draw five uniforms each
    assert out["blocks"] == {
        "BernoulliArmEnv": [{"arm_rounds": 20, "uniforms": 20}],
        "PhysicalArmEnv": [{"arm_rounds": 20, "uniforms": 100}],
    }
    assert out["live"] == {name: {"rows": 1, "spans": 1} for name in out["blocks"]}
    # each learner records one span whose counters are the outcome's own
    for name, got in out["learners"].items():
        assert got["spans"] == [got["outcome"]], name
    assert out["learners"]["run_elimination"]["outcome"]["clamps"] > 0
    # the table key binds scenario, eta, grid_size and alpha_min; eta 2.5 < 8/3 is not concave
    assert out["attrs"] == {
        "build_envelope_table": [{"key": "('uniform', None, 1.0, 10000.0, 2.5, 201, 0.01)",
                                  "grid": 201, "concave": 0}],
        "physical_rounds": [{"uniforms": 35}],
        "realized_u": [None],
        "step_bernoulli": [{"uniforms": 1}],
        "two_point_oracle": [{"cells": 201 ** 2 * 102}],
        **out["expected"],
    }
    assert out["expected"]["write_csv"][0]["bytes"] > 0


TINY_REPORT = """
learner.b = 3.0
envelope.grid = 201
lipschitz.ell = 2.0
lipschitz.L = 0.05
lipschitz.d = 2.0
experiment.budget_scale = 0.001
experiment.trials = 2
"""


def _load_workloads():
    """``bench/workloads.py``, loaded as it is."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("extra, threads", [
    ("", 1),
    ("noise.kind = truncated_gaussian\nnoise.sigma = 0.5\nenv.mode = physical\n", 2),
], ids=["bernoulli-1-thread", "physical-2-threads"])
def test_report_workload_runs_on_the_library(tmp_path, extra, threads):
    """``bench/workloads.py`` ``run_report``, loaded as it is, on a tiny instance of each mode."""
    workloads = _load_workloads()
    cfg = tmp_path / "config.txt"
    cfg.write_text(TINY_REPORT + extra)
    out = tmp_path / "out"
    out.mkdir()
    job, rec = workloads.Job(), {}
    workloads.run_report(job, rec, cfg, out, threads)
    assert job.failed == 0, job.errors
    trials = (out / "trials.csv").read_text().splitlines()
    summary = (out / "summary.csv").read_text().splitlines()
    assert trials[1] == ",".join(TRIAL_HEADER)
    assert summary[1] == ",".join(SUMMARY_HEADER)
    rounds = TRIAL_HEADER.index("rounds_used")
    assert rec["rounds"] == sum(int(row.split(",")[rounds]) for row in trials[2:])
    assert len(trials) - 2 == rec["trials_run"] == 4


def test_report_workload_and_goc_report_write_the_same_csvs(tmp_path):
    """The benchmark driver runs ``goc report``'s pipeline itself; the two must not drift apart."""
    workloads = _load_workloads()
    cfg = tmp_path / "config.txt"
    cfg.write_text(TINY_REPORT)
    bench_out, cli_out = tmp_path / "bench", tmp_path / "cli"
    bench_out.mkdir()
    job = workloads.Job()
    workloads.run_report(job, {}, cfg, bench_out, 1)
    assert job.failed == 0, job.errors
    assert main(["report", "--config", str(cfg), "--out", str(cli_out)]) == 0
    for name in ("trials.csv", "summary.csv"):
        assert (bench_out / name).read_bytes() == (cli_out / name).read_bytes()
