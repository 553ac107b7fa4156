import pytest

import goc.cli
import goc.experiments
from goc.cli import _parse_adversary, _parse_float_list, main
from goc.experiments import curve_rows
from goc.config import default_config

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


def test_curves_command_and_subset_consistency(tmp_path, smoke_cfg):
    out = tmp_path / "curves.csv"
    rc = main(["curves", "--config", str(smoke_cfg), "--points", "11", "--out", str(out)])
    assert rc == 0
    cfg = default_config().with_overrides(**{
        "learner.a": 2.0, "learner.b": 3.0, "envelope.grid": 401,
    })
    coarse = curve_rows(cfg, points=11)
    fine = curve_rows(cfg, points=21)
    for i, row in enumerate(coarse):
        assert row == pytest.approx(fine[2 * i], abs=1e-12)


def test_curves_gamma_zero_u_equals_alpha(tmp_path):
    cfg = default_config().with_overrides(**{
        "utility.dc.gamma": 0.0, "envelope.grid": 401, "learner.b": 3.0,
    })
    for _, alpha, _, u in curve_rows(cfg, points=15):
        assert u == pytest.approx(alpha, abs=1e-12)


def test_report_command(tmp_path, smoke_cfg, capsys):
    rc = main(["report", "--config", str(smoke_cfg), "--out", str(tmp_path / "rep")])
    assert rc == 0
    assert (tmp_path / "rep" / "trials.csv").exists()
    assert (tmp_path / "rep" / "summary.csv").exists()
    shown = capsys.readouterr().out
    assert "etc:" in shown and "elim:" in shown


def test_config_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("scenario.delta = 1.0\nscenario.big_m = 2.0\n")
    rc = main(["curves", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "scenario.delta" in capsys.readouterr().err


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


@pytest.mark.parametrize("given, missing", [("--verify-etas", "--verify-alphas"),
                                            ("--verify-alphas", "--verify-etas")])
def test_verify_flags_come_in_pairs(tmp_path, capsys, given, missing):
    with pytest.raises(SystemExit) as exc:
        main(["report", given, "2", "--out", str(tmp_path / "rep")])
    assert exc.value.code == 2
    assert f"error: {given} requires {missing}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _no_set_up(monkeypatch):
    # a run that fails on its output path must fail before set-up and any trial
    def refuse(config):
        raise AssertionError("prepare_instance called")

    monkeypatch.setattr(goc.experiments, "prepare_instance", refuse)
    monkeypatch.setattr(goc.cli, "prepare_instance", refuse)


def test_report_out_at_existing_file(tmp_path, smoke_cfg, capsys, monkeypatch):
    _no_set_up(monkeypatch)
    monkeypatch.setattr(goc.cli, "verify_grid", lambda *a: pytest.fail("verify_grid called"))
    out = tmp_path / "rep"
    out.write_text("keep")
    for verify in ([], ["--verify-etas", "2", "--verify-alphas", "0.5"]):
        assert main(["report", "--config", str(smoke_cfg), *verify, "--out", str(out)]) == 2
        assert "error: [Errno 17] File exists" in capsys.readouterr().err
        assert out.read_text() == "keep"


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
