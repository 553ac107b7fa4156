import argparse
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

import goc.cli
import goc.experiments
from goc.cli import MAX_RANGE_VALUES, _parse_adversary, _parse_float_list, build_parser, main
from goc.oracle import best_response

SMOKE_CONFIG = """
utility.dc.gamma = 0.3
learner.a = 2.0
learner.b = 3.0
learner.lambda = 0.5
lipschitz.ell = 2.0
lipschitz.L = 0.3
lipschitz.d = 1.0
envelope.grid = 401
experiment.trials = 2
experiment.budget_scale = 0.02
"""


@pytest.fixture()
def smoke_cfg(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text(SMOKE_CONFIG)
    return p


def test_float_list_parsing():
    assert _parse_float_list("2,2.5,3") == [2.0, 2.5, 3.0]
    assert _parse_float_list("0.1:0.1:0.4") == pytest.approx([0.1, 0.2, 0.3, 0.4])
    # a range may expand to MAX_RANGE_VALUES values, and no more
    assert len(_parse_float_list(f"1:1:{MAX_RANGE_VALUES}")) == MAX_RANGE_VALUES
    with pytest.raises(argparse.ArgumentTypeError, match="expands to more than"):
        _parse_float_list(f"1:1:{MAX_RANGE_VALUES + 1}")


@pytest.mark.parametrize("eta_list, reason", [
    ("2:nan:3", "range needs a finite start, stop and step > 0: '2:nan:3'"),
    ("inf:1:2", "range needs a finite start, stop and step > 0: 'inf:1:2'"),
    ("0:1e-7:1", "range '0:1e-7:1' expands to more than 1000000 values"),
], ids=["nan-step", "inf-start", "over-the-cap"])
def test_bad_ranges_fail_at_their_flag(capsys, eta_list, reason):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["envelope", "--eta-list", eta_list, "--out", "never.csv"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --eta-list: {reason}\n" in err
    assert "_parse" not in err


def test_adversary_parsing():
    adv = _parse_adversary("z=1.5:0.6,z=3.0:0.4")
    assert adv.offsets == (1.5, 3.0)
    assert adv.weights == pytest.approx((0.6, 0.4))
    single = _parse_adversary("z=2.0:1.0")
    assert single.offsets == (2.0,)


def test_envelope_command(tmp_path):
    out = tmp_path / "env.csv"
    rc = main(["envelope", "--eta-list", "2,2.5", "--grid", "401", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "eta,alpha,h,h_star,c"
    assert len(lines) > 400


def test_envelope_names_a_threshold_too_large_for_its_offset_domain(tmp_path, capsys):
    # from about 2^54 on, (eta - 1) delta and (eta + 1) delta round to the same float
    out = tmp_path / "env.csv"
    assert main(["envelope", "--eta-list", "1e17", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eta must be ") and err.rstrip().endswith("got 1e+17")
    assert not out.exists()


def test_solve_command(tmp_path, smoke_cfg):
    out = tmp_path / "solve.csv"
    rc = main(["solve", "--config", str(smoke_cfg), "--eta-list", "2,2.5,3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "eta,alpha_star,mmse,u_dc,u_ad"
    assert len(rows) == 5


def test_simulate_command_physical(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--mode", "physical", "--eta", "2.5", "--rounds", "200",
        "--adv", "z=2.0:1.0", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "round,eta,accepted,estimate,u_true"
    assert len(lines) == 202


def test_simulate_command_bernoulli(tmp_path, smoke_cfg):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--config", str(smoke_cfg), "--mode", "bernoulli",
        "--eta", "2.5", "--rounds", "100", "--out", str(out),
    ])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 102


@pytest.mark.parametrize("mode_args", [["--mode", "bernoulli"], ["--mode", "physical", "--adv", "z=2.0"]])
def test_simulate_blocks_do_not_change_the_csv(tmp_path, monkeypatch, mode_args):
    argv = ["simulate", *mode_args, "--eta", "2.5", "--rounds", "50", "--seed", "3"]
    assert main(argv + ["--out", str(tmp_path / "one.csv")]) == 0
    monkeypatch.setattr(goc.cli, "SIMULATE_BLOCK", 7)
    assert main(argv + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "blocks.csv").read_bytes()


# SHA-256 of each CSV below its config-hash line, by output path, recorded at commit 1f79512
# (simulate, envelope), when the commands still built rows one tuple at a time, at
# 0098249 (learn, report), when the trial records still stored alpha_hat, eta_hat,
# rounds_used and the capped regret, and at ce88dd2 (solve, curves, verify, report with a
# verify gap), when write_csv still took rows and learners kept one record per arm; the
# writer and the records must keep them.
_TINY = ["--trials", "2", "--budget-scale", "0.001"]
_PINNED_BODIES = {
    "simulate-bernoulli": (
        ["simulate", "--mode", "bernoulli", "--eta", "3", "--rounds", "2500",
         "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "2b79aeb7551cf99d50ee80e996b8ff9f191b58a1efe81a16eaab783f45680453"}),
    "simulate-physical": (
        ["simulate", "--mode", "physical", "--eta", "3", "--rounds", "2500",
         "--adv", "z=2.5:0.6,z=3.5:0.4", "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "5027d3c4f1e80fc2586fd0b5f464544cd80985d4173b9a9ba5d4e840f6388f07"}),
    "simulate-physical-0": (
        ["simulate", "--mode", "physical", "--eta", "3", "--rounds", "0",
         "--adv", "z=2.5:0.6,z=3.5:0.4", "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "ce20e918c244ce393a9a56c669b095bf081c47f3bcffad9ad81376fc74a189a0"}),
    "envelope": (
        ["envelope", "--eta-list", "2,3,4.5", "--grid", "301", "--config", "tg3.txt",
         "--out", "out.csv"],
        {"out.csv": "f9fac1b77f8c0af7b5222addf4dbe1fec66b07a22a051b368a545af962bea7a0"}),
    "learn-trace-bernoulli": (
        ["learn", *_TINY, "--config", "tg3.txt", "--out", "trials.csv", "--trace", "trace.csv"],
        {"trials.csv": "2344dec5df9d22554bd0791f6474e9405f362da62b35738ae3452423f9d5cead",
         "trace.csv": "c6aab59b16bcc2a6e885978e601243223039ae372a844b216d9525e2326d03d7"}),
    "learn-trace-physical": (
        ["learn", *_TINY, "--config", "tg3-physical.txt", "--out", "trials.csv",
         "--trace", "trace.csv"],
        {"trials.csv": "fcc497459740deda358340c9aee906267c1214e25f79a3b9e9bf207b876475d1",
         "trace.csv": "6af2cd875afba63a0556614b22196ce2fc529474467a7c6c7ce5a03358bf4e34"}),
    "report": (
        ["report", *_TINY, "--config", "tg3.txt", "--out", "rep"],
        {"rep/trials.csv": "2344dec5df9d22554bd0791f6474e9405f362da62b35738ae3452423f9d5cead",
         "rep/summary.csv": "cfdf755fc53451187375f031a292a04416253fdc2caa02f225331496e71172cb"}),
    "report-verify": (
        ["report", *_TINY, "--verify-etas", "2", "--verify-alphas", "0.5", "--config", "tg3.txt",
         "--out", "rep"],
        {"rep/trials.csv": "2344dec5df9d22554bd0791f6474e9405f362da62b35738ae3452423f9d5cead",
         "rep/summary.csv": "4adee03fdee7e100ca2aa17bcaf7d5f5fd94fdc94111fd619c5b53e4634d0bf4"}),
    "solve": (
        ["solve", "--points", "7", "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "4d62fffd0aa5437a441926594287bcfea0eeee7847d5c46b93debf2902afcf34"}),
    "curves": (
        ["curves", "--points", "9", "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "5cdb13afdaa7732055c17cbfc6ea9cd2711a825cc32f825ba70b335e35d0685d"}),
    "verify": (
        ["verify", "--eta-list", "2,3", "--alpha-list", "0.5,1", "--z-grid", "201",
         "--w-grid", "101", "--config", "tg3.txt", "--out", "out.csv"],
        {"out.csv": "9cc677c07a454f4b3a5e2ed091f3347db8e51c35217d4629b1e04dd59c5ab1f7"}),
}


@pytest.mark.parametrize("name", sorted(_PINNED_BODIES))
@pytest.mark.parametrize("simulate_block, csv_chunk", [(None, None), (300, 7)],
                         ids=["defaults", "small-blocks"])
def test_csv_bodies_match_their_pinned_digests(tmp_path, monkeypatch, name,
                                                simulate_block, csv_chunk):
    if simulate_block is not None:  # 2,500 rounds then span nine draw blocks
        monkeypatch.setattr(goc.cli, "SIMULATE_BLOCK", simulate_block)
        monkeypatch.setattr(goc.experiments, "CSV_CHUNK", csv_chunk)
    monkeypatch.chdir(tmp_path)
    tg3 = "noise.kind = truncated_gaussian\nnoise.sigma = 3.0\n"
    (tmp_path / "tg3.txt").write_text(tg3)
    (tmp_path / "tg3-physical.txt").write_text(tg3 + "env.mode = physical\n")
    argv, digests = _PINNED_BODIES[name]
    assert main(argv) == 0
    bodies = {path: hashlib.sha256((tmp_path / path).read_bytes().split(b"\n", 1)[1]).hexdigest()
              for path in digests}
    assert bodies == digests


def test_envelope_memory_does_not_grow_with_the_sweep(tmp_path):
    # the sweep holds one block of table rows and CSV_CHUNK rows of text, whatever its length
    out = str(tmp_path / "env.csv")

    def peak(eta_list: str) -> int:
        tracemalloc.start()
        try:
            assert main(["envelope", "--eta-list", eta_list, "--grid", "201", "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    main(["envelope", "--eta-list", "2", "--out", out])  # imports and caches off the books
    five, two_hundred = peak("2:1:6"), peak("2:0.02:5.99")
    assert two_hundred < five + 2 * 2**20, (five, two_hundred)


def test_simulate_memory_does_not_grow_with_rounds(tmp_path):
    # a physical run holds one SIMULATE_BLOCK of rounds and CSV_CHUNK rows of text
    out = str(tmp_path / "sim.csv")

    def peak(rounds: int) -> int:
        tracemalloc.start()
        try:
            assert main(["simulate", "--mode", "physical", "--eta", "3", "--rounds", str(rounds),
                         "--adv", "z=2.5:0.6,z=3.5:0.4", "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # imports and caches off the books
    small, large = peak(2**15), peak(2**17)
    assert large < small + 2**19, (small, large)


def test_simulate_rejects_negative_rounds(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--mode", "bernoulli", "--eta", "2.5", "--out", str(out)]
    assert main(argv + ["--rounds", "-3"]) == 2
    assert "--rounds" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--rounds", "0"]) == 0
    assert out.read_text().splitlines()[1:] == ["round,eta,accepted,estimate,u_true"]


def test_failed_simulate_leaves_no_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main([
        "simulate", "--mode", "physical", "--eta", "2.5", "--rounds", "100",
        "--adv", "z=1e5", "--out", str(out),
    ])
    assert rc == 2
    assert "span" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_offset_beyond_big_m_names_offset_and_key(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--mode", "physical", "--eta", "3", "--rounds", "5",
               "--adv", "z=2e4", "--out", str(out)])
    assert rc == 2
    assert "error: offset 20000.0 exceeds scenario.big_m = 10000.0" in capsys.readouterr().err
    assert not out.exists()


def test_zero_rounds_still_check_the_offset(tmp_path, capsys):
    # zero rounds draw no block, so --adv is checked before the first one
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--mode", "physical", "--eta", "3", "--rounds", "0", "--adv", "z=2e4",
               "--out", str(out)])
    assert rc == 2
    assert "error: offset 20000.0 exceeds scenario.big_m = 10000.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rejected_run_makes_no_directory(tmp_path, capsys):
    rc = main(["simulate", "--mode", "physical", "--eta", "3", "--rounds", "5",
               "--adv", "z=2e4", "--out", str(tmp_path / "fx" / "sub" / "sim.csv")])
    assert rc == 2
    assert "exceeds scenario.big_m" in capsys.readouterr().err
    assert not (tmp_path / "fx").exists()


# the top arm, eta = 150, best-responds at offset 149, beyond big_m = 100
WIDE_ARMS_CONFIG = """\
scenario.big_m = 100
learner.b = 150
lipschitz.ell = 1
lipschitz.L = 0.001
lipschitz.d = 200
learner.lambda = 1
experiment.budget_scale = 0.01
experiment.trials = 1
"""


def test_physical_learners_reject_a_witness_beyond_big_m(tmp_path, capsys):
    # as goc simulate rejects the same offset, before any output is made
    cfg = tmp_path / "wide.txt"
    cfg.write_text(WIDE_ARMS_CONFIG + "env.mode = physical\n")
    out = tmp_path / "run" / "trials.csv"
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: learner.b: arm eta = 150.0: witness offset 149.0 "
                                   "exceeds scenario.big_m = 100.0")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [cfg]
    # Bernoulli arms draw no offsets, so the same arms still learn there
    cfg.write_text(WIDE_ARMS_CONFIG)
    assert main(["learn", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("adv, reason", [
    ("z=1:nan,z=2:1", "mixture weights must have a positive finite sum"),
    ("z=1:inf,z=2:1", "mixture weights must have a positive finite sum"),
    ("z=-1:1", "offsets must be finite and nonnegative"),
], ids=["nan-weight", "inf-weight", "negative-offset"])
def test_bad_mixtures_fail_at_the_adv_flag(tmp_path, capsys, adv, reason):
    out = tmp_path / "sim.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--eta", "2.5", "--rounds", "3", "--adv", adv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --adv: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["envelope", "--eta-list", "2"],
    ["solve"],
    ["simulate", "--eta", "2.5", "--rounds", "1", "--adv", "z=2.0"],
    ["verify", "--eta-list", "2", "--alpha-list", "0.5"],
    ["curves"],
])
def test_threads_only_on_trial_commands(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_learn_command_with_trace(tmp_path, smoke_cfg):
    out = tmp_path / "trials.csv"
    trace = tmp_path / "trace.csv"
    rc = main([
        "learn", "--config", str(smoke_cfg), "--algo", "both",
        "--out", str(out), "--trace", str(trace), "--seed", "5",
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "trial,algo,eta_hat,regret_raw,rounds_used,best_arm_eliminated"
    assert len(lines) == 2 + 2 * 2  # two algos x two trials
    assert trace.exists()


def test_verify_command(tmp_path):
    out = tmp_path / "verify.csv"
    rc = main([
        "verify", "--eta-list", "2", "--alpha-list", "0.5,1.0",
        "--z-grid", "201", "--w-grid", "101", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "eta,alpha,oracle,envelope,gap,z1,z2,w"
    assert len(lines) == 4


def _csv_body(path):
    return [line.split(",") for line in path.read_text().splitlines()[2:]]


def test_curves_command_and_subset_consistency(tmp_path, smoke_cfg):
    rows = {}
    for points in (11, 21):
        out = tmp_path / f"curves{points}.csv"
        rc = main(["curves", "--config", str(smoke_cfg), "--points", str(points), "--out", str(out)])
        assert rc == 0
        rows[points] = [[float(x) for x in row] for row in _csv_body(out)]
    assert len(rows[11]) == 11
    for i, row in enumerate(rows[11]):
        assert row == pytest.approx(rows[21][2 * i], abs=1e-12)


def test_curves_gamma_zero_u_equals_alpha(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("utility.dc.gamma = 0.0\nenvelope.grid = 401\nlearner.b = 3.0\n")
    out = tmp_path / "curves.csv"
    assert main(["curves", "--config", str(cfg), "--points", "15", "--out", str(out)]) == 0
    rows = _csv_body(out)
    assert len(rows) == 15
    for _, alpha, _, u in rows:
        assert float(u) == pytest.approx(float(alpha), abs=1e-12)


@pytest.mark.parametrize("command", ["solve", "curves"])
def test_sweep_calls_best_response_once_per_point(tmp_path, smoke_cfg, monkeypatch, command):
    # the benchmark tracer times oracle.best_response by swapping goc.cli's attribute
    calls = []

    def counted(table, spec):
        calls.append(table.eta)
        return best_response(table, spec)

    monkeypatch.setattr(goc.cli, "best_response", counted)
    argv = [command, "--config", str(smoke_cfg), "--points", "7", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    assert calls == np.linspace(2.0, 3.0, 7).tolist()


# One block of rows and a few tables at a time. Holding all 801 tables of the sweep
# at once takes about 60 MB; a 64-row block takes about 7 MB.
SWEEP_PEAK_BYTES = 4 << 20


def test_solve_streams_its_tables(tmp_path):
    argv = ["solve", "--eta-list", "2:0.005:6", "--out", str(tmp_path / "solve.csv")]
    assert main(argv) == 0  # first-call allocations outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_csv_body(tmp_path / "solve.csv")) == 801
    assert peak < SWEEP_PEAK_BYTES


def test_curves_are_the_first_four_columns_of_solve(tmp_path, smoke_cfg):
    for command in ("curves", "solve"):
        argv = [command, "--config", str(smoke_cfg), "--points", "7"]
        assert main(argv + ["--out", str(tmp_path / f"{command}.csv")]) == 0
    solve = _csv_body(tmp_path / "solve.csv")
    assert len(solve) == 7
    assert _csv_body(tmp_path / "curves.csv") == [row[:4] for row in solve]


def test_report_command(tmp_path, smoke_cfg, capsys):
    rc = main(["report", "--config", str(smoke_cfg), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "trials.csv").exists()
    assert (tmp_path / "rep" / "summary.csv").exists()
    shown = capsys.readouterr().out
    assert "etc:" in shown and "elim:" in shown


@pytest.mark.parametrize("command", ["learn", "report"])
def test_a_run_states_its_work_before_the_first_trial(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise ValueError("run_trials called")

    monkeypatch.setattr(goc.cli, "run_trials", refuse)
    assert main([command, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "n = 37, k = 123,929; each learner may draw (n + 1) * k * trials = "
        "38 * 123,929 * 200 = 941,860,400 arm-rounds\nerror: run_trials called\n")
    assert list(tmp_path.iterdir()) == []


def test_config_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("scenario.delta = 1.0\nscenario.big_m = 2.0\n")
    rc = main(["curves", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "scenario.delta" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["7", "101"])
def test_solve_eta_list_excludes_points(tmp_path, capsys, points):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--eta-list", "2,3", "--points", points, "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --points: not allowed with argument --eta-list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "curves"])
@pytest.mark.parametrize("points", ["-2", "0"])
def test_points_must_be_positive(tmp_path, capsys, command, points):
    out = tmp_path / "x.csv"
    assert main([command, "--points", points, "--out", str(out)]) == 2
    assert "error: --points" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_physical_requires_adv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--mode", "physical", "--eta", "2.5", "--rounds", "5", "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_bernoulli_rejects_adv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--mode", "bernoulli", "--eta", "2.5", "--rounds", "5",
               "--adv", "z=9", "--out", str(out)])
    assert rc == 2
    assert "error: --adv:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, key, value", [
    ("envelope", "--seed", "experiment.base_seed", "7"),
    ("envelope", "--grid", "envelope.grid", "501"),
    ("learn", "--trials", "experiment.trials", "1"),
    ("learn", "--budget-scale", "experiment.budget_scale", "0.01"),
])
def test_override_flags_write_the_config_file_csv(tmp_path, command, flag, key, value):
    """A flag and the config key it overrides write the same bytes, header hash included."""
    argv = {"envelope": ["envelope", "--eta-list", "2,2.5"], "learn": ["learn"]}[command]
    base = "".join(line for line in SMOKE_CONFIG.splitlines(keepends=True)
                   if command == "learn" and not line.startswith(f"{key} ="))
    (tmp_path / "base.txt").write_text(base)
    (tmp_path / "keyed.txt").write_text(f"{base}{key} = {value}\n")
    flagged, keyed = tmp_path / "flagged.csv", tmp_path / "keyed.csv"
    assert main([*argv, "--config", str(tmp_path / "base.txt"), flag, value,
                 "--out", str(flagged)]) == 0
    assert main([*argv, "--config", str(tmp_path / "keyed.txt"), "--out", str(keyed)]) == 0
    assert flagged.read_bytes() == keyed.read_bytes()


def _no_set_up(monkeypatch):
    # a run that fails on its output path must fail before set-up and any trial
    def refuse(config):
        raise AssertionError("prepare_instance called")

    monkeypatch.setattr(goc.experiments, "prepare_instance", refuse)
    monkeypatch.setattr(goc.cli, "prepare_instance", refuse)


@pytest.mark.parametrize("given, missing", [("--verify-etas", "--verify-alphas"),
                                            ("--verify-alphas", "--verify-etas")])
def test_verify_flags_come_in_pairs(tmp_path, capsys, monkeypatch, given, missing):
    # report checks the pairing itself, before its output directory, set-up or any check
    _no_set_up(monkeypatch)
    monkeypatch.setattr(goc.cli, "verify_grid", lambda *a: pytest.fail("verify_grid called"))
    value = {"--verify-etas": "2", "--verify-alphas": "0.5"}[given]
    assert main(["report", given, value, "--out", str(tmp_path / "rep")]) == 2
    assert f"error: {given} requires {missing}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_out_at_existing_file(tmp_path, smoke_cfg, capsys, monkeypatch):
    _no_set_up(monkeypatch)
    monkeypatch.setattr(goc.cli, "verify_grid", lambda *a: pytest.fail("verify_grid called"))
    out = tmp_path / "rep"
    out.write_text("keep")
    for verify in ([], ["--verify-etas", "2", "--verify-alphas", "0.5"]):
        assert main(["report", "--config", str(smoke_cfg), *verify, "--out", str(out)]) == 2
        assert f"error: --out {out} is not a directory" in capsys.readouterr().err
        assert out.read_text() == "keep"


@pytest.mark.parametrize("command, flag", [("learn", "--out"), ("learn", "--trace"),
                                           ("report", "--out")])
def test_outputs_under_a_regular_file_fail_before_set_up(
    tmp_path, smoke_cfg, capsys, monkeypatch, command, flag
):
    # a regular file as the ancestor: root ignores permission bits, but not this
    _no_set_up(monkeypatch)
    (tmp_path / "afile").write_text("keep")
    paths = {"--out": tmp_path / "out", "--trace": tmp_path / "trace.csv"}
    paths[flag] = tmp_path / "afile" / "sub" / "x.csv"
    argv = [command, "--config", str(smoke_cfg), "--out", str(paths["--out"])]
    if command == "learn":
        argv += ["--trace", str(paths["--trace"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {flag} {paths[flag]}: {tmp_path / 'afile'} is not a writable directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.txt"]
    assert (tmp_path / "afile").read_text() == "keep"


def test_a_rejected_report_creates_nothing(tmp_path, capsys, monkeypatch):
    _no_set_up(monkeypatch)
    out = tmp_path / "fx" / "sub" / "rep"
    argv = ["report", "--trials", "1", "--budget-scale", "0.01", "--verify-etas", "3",
            "--verify-alphas", "1.0000000000005", "--out", str(out)]
    assert main(argv) == 2
    assert "error: infeasible: alpha exceeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_learn_out_at_existing_directory(tmp_path, smoke_cfg, capsys, monkeypatch, flag):
    _no_set_up(monkeypatch)
    paths = {"--out": tmp_path / "trials.csv", "--trace": tmp_path / "trace.csv"}
    paths[flag].mkdir()
    argv = ["learn", "--config", str(smoke_cfg), "--out", str(paths["--out"]),
            "--trace", str(paths["--trace"])]
    assert main(argv) == 2
    assert f"error: {flag} {paths[flag]} is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", paths[flag].name]


def test_learn_trace_cannot_overwrite_out(tmp_path, smoke_cfg, capsys, monkeypatch):
    _no_set_up(monkeypatch)
    out = tmp_path / "t.csv"
    same = f"{tmp_path}/./t.csv"
    assert main(["learn", "--config", str(smoke_cfg), "--out", str(out), "--trace", same]) == 2
    assert f"error: --trace {same} is the --out file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out, trace, inner, outer", [
    ("x.csv", "x.csv/t.csv", "--trace", "--out"),
    ("t.csv/x.csv", "t.csv", "--out", "--trace"),
], ids=["trace-inside-out", "out-inside-trace"])
def test_learn_trace_and_out_cannot_nest(
    tmp_path, smoke_cfg, capsys, monkeypatch, out, trace, inner, outer
):
    _no_set_up(monkeypatch)
    paths = {"--out": tmp_path / out, "--trace": tmp_path / trace}
    argv = ["learn", "--config", str(smoke_cfg), "--out", str(paths["--out"]),
            "--trace", str(paths["--trace"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {inner} {paths[inner]} lies inside {outer} {paths[outer]}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]


def test_verify_rejects_an_admitted_alpha_that_no_mixture_reaches(tmp_path, capsys):
    # --alpha-list admits 1 + 1e-12; above 1 + 1e-15 no acceptance reaches the floor
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--eta-list", "3", "--alpha-list", "1.0000000000005", "--z-grid", "201",
               "--w-grid", "101", "--out", str(out)])
    assert rc == 2
    assert "error: infeasible: alpha exceeds the maximum acceptance probability" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_verify_names_the_coarse_grid_flag(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--eta-list", "2", "--alpha-list", "0.5", "--z-grid", "100",
               "--out", str(out)])
    assert rc == 2
    assert "error: --z-grid: must be >= 201, got 100" in capsys.readouterr().err
    assert not out.exists()
    # envelope's --grid too: 0 is not "absent", and the error names the key it overrides
    for grid in ("0", "-3"):
        assert main(["envelope", "--eta-list", "2", "--grid", grid, "--out", str(out)]) == 2
        assert f"error: envelope.grid: must be >= 101, got {grid}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--eta", "2.5", "--rounds", "3", "--adv", "z=abc"], "--adv"),
    (["simulate", "--eta", "2.5", "--rounds", "3", "--adv", "z=1:abc"], "--adv"),
    (["solve", "--eta-list", "2,abc"], "--eta-list"),
    (["verify", "--eta-list", "2", "--alpha-list", "0.5:x:1"], "--alpha-list"),
], ids=["adv-offset", "adv-weight", "eta-list", "alpha-range"])
def test_non_numeric_tokens_fail_at_their_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: not a number: " in err
    assert "_parse_" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["envelope", "--eta-list", "3:1:2"], "--eta-list"),
    (["envelope", "--eta-list", ",,"], "--eta-list"),
    (["solve", "--eta-list", "3:1:2"], "--eta-list"),
    (["verify", "--eta-list", "2", "--alpha-list", "0.9:0.1:0.5"], "--alpha-list"),
    (["report", "--verify-etas", "3:1:2", "--verify-alphas", "0.5"], "--verify-etas"),
], ids=["envelope-range", "envelope-commas", "solve", "verify", "report"])
def test_empty_lists_fail_at_their_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: no values in" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, message", [
    (["verify", "--eta-list", "2", "--alpha-list", "1.5"], "--alpha-list",
     r"alpha must lie in \(0, 1\], got 1.5"),
    (["solve", "--eta-list", "2,inf"], "--eta-list", "eta must be >= 2, got inf"),
    (["report", "--verify-etas", "1", "--verify-alphas", "0.5"], "--verify-etas",
     "eta must be >= 2, got 1.0"),
    (["report", "--verify-etas", "2", "--verify-alphas", "0"], "--verify-alphas",
     r"alpha must lie in \(0, 1\], got 0.0"),
    (["simulate", "--eta", "1.5", "--rounds", "3"], "--eta", "eta must be >= 2, got 1.5"),
], ids=["alpha-list", "eta-list", "verify-etas", "verify-alphas", "eta"])
def test_library_checks_fail_at_their_flag(tmp_path, capsys, argv, flag, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert re.search(rf"error: argument {flag}: {message}$", capsys.readouterr().err, re.M)
    assert not out.exists()


def test_negative_seed_fails_at_its_key_before_set_up(tmp_path, smoke_cfg, capsys, monkeypatch):
    _no_set_up(monkeypatch)
    out = tmp_path / "trials.csv"
    assert main(["learn", "--config", str(smoke_cfg), "--seed", "-1", "--out", str(out)]) == 2
    assert "error: experiment.base_seed: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["learn", "report"])
@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_below_one_fail_at_the_flag_before_set_up(
    tmp_path, smoke_cfg, capsys, monkeypatch, command, threads
):
    _no_set_up(monkeypatch)
    monkeypatch.setattr(goc.cli, "verify_grid", lambda *a: pytest.fail("verify_grid called"))
    out = tmp_path / "out"
    argv = [command, "--config", str(smoke_cfg), "--threads", threads, "--out", str(out)]
    if command == "report":
        argv += ["--verify-etas", "2", "--verify-alphas", "0.5"]
    assert main(argv) == 2
    assert f"error: --threads: must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()
