"""Command-line interface: deterministic CSV-emitting subcommands.

Every subcommand accepts ``--config`` (key = value file), ``--seed`` (overrides
the configured base seed) and ``--out``; ``learn`` and ``report`` also take ``--threads``.
Given the same configuration and seed the output bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from goc.config import ConfigError, ExperimentConfig, load_config
from goc.envelope import build_envelope_table
from goc.environment import MixtureAdversary, make_rng, physical_rounds
from goc.experiments import (
    CURVE_HEADER,
    ELIMINATION,
    ETC,
    TRIAL_HEADER,
    curve_rows,
    prepare_instance,
    run_experiment,
    run_trials,
    trial_rows,
    write_csv,
)
from goc.oracle import best_response, best_response_curve
from goc.verify import verify_grid


def _parse_float_list(raw: str) -> list[float]:
    """Comma list ("2,2.5,3") or inclusive colon range ("0.1:0.1:1.0")."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range must be start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise argparse.ArgumentTypeError("range step must be positive")
        count = int(round((stop - start) / step))
        values = [start + i * step for i in range(count + 1)]
        return [v for v in values if v <= stop + 1e-12]
    return [float(p) for p in raw.split(",") if p.strip()]


def _parse_adversary(raw: str) -> MixtureAdversary:
    """Mixture syntax: "z=2.0:1.0" or "z=1.5:0.6,z=3.0:0.4"."""
    offsets, weights = [], []
    for part in raw.split(","):
        part = part.strip()
        if not part.startswith("z="):
            raise argparse.ArgumentTypeError(f"bad mixture component {part!r}")
        body = part[2:]
        z_str, _, w_str = body.partition(":")
        offsets.append(float(z_str))
        weights.append(float(w_str) if w_str else 1.0)
    total = sum(weights)
    if total <= 0:
        raise argparse.ArgumentTypeError("mixture weights must be positive")
    weights = [w / total for w in weights]
    return MixtureAdversary(tuple(offsets), tuple(weights))


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(**{"experiment.base_seed": args.seed})
    if getattr(args, "budget_scale", None) is not None:
        cfg = cfg.with_overrides(**{"experiment.budget_scale": args.budget_scale})
    if getattr(args, "trials", None) is not None:
        cfg = cfg.with_overrides(**{"experiment.trials": args.trials})
    return cfg


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override experiment.base_seed")
    parser.add_argument("--out", required=True, help="output path")


def _trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=(ETC, ELIMINATION, "both"), default="both")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None, help="worker processes (default "
                        "GOC_THREADS or 1; at most the CPU count)")
    parser.add_argument("--budget-scale", type=float, default=None,
                        help="smoke-test knob: scale the per-arm budget down (acceptance uses 1.0)")


def cmd_envelope(args: argparse.Namespace) -> int:
    cfg = _load(args)
    scenario = cfg.scenario()
    grid = args.grid or cfg["envelope.grid"]
    rows = []
    for eta in args.eta_list:
        t = build_envelope_table(scenario, eta, grid, cfg["envelope.alpha_min"])
        rows += [(eta, *r) for r in zip(t.alpha_grid, t.h_values, t.h_star_values, t.c_values)]
    write_csv(args.out, ("eta", "alpha", "h", "h_star", "c"), rows,
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    etas = args.eta_list or np.linspace(cfg["learner.a"], cfg["learner.b"], args.points)
    curve = best_response_curve(cfg.scenario(), cfg.utility_spec(), etas,
                                cfg["envelope.grid"], cfg["envelope.alpha_min"])
    rows = [(br.eta, br.alpha_star, br.mmse, br.dc_value, br.ad_value) for br in curve]
    write_csv(args.out, ("eta", "alpha_star", "mmse", "u_dc", "u_ad"), rows,
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


SIMULATE_BLOCK = 1 << 16  # rounds drawn and written per block


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.rounds < 0:
        raise ValueError("--rounds must be >= 0")
    if args.mode == "physical" and args.adv is None:
        raise ValueError("simulate --mode physical requires --adv")
    scenario = cfg.scenario()
    rng = make_rng(cfg["experiment.base_seed"], 0, 0)
    if args.mode == "bernoulli":
        table = build_envelope_table(scenario, args.eta, cfg["envelope.grid"], cfg["envelope.alpha_min"])
        alpha = best_response(table, cfg.utility_spec()).alpha_star

    def rows():
        # Consecutive bulk draws equal one draw of every round (in Bernoulli mode, also
        # step_bernoulli's per-round draws). Zero rounds still draw one empty block,
        # which checks eta and --adv.
        for start in range(0, max(args.rounds, 1), SIMULATE_BLOCK):
            n = min(SIMULATE_BLOCK, args.rounds - start)
            if args.mode == "bernoulli":
                acc, est, u = (rng.random(n) < alpha).tolist(), [""] * n, [""] * n
            else:
                b = physical_rounds(scenario, args.eta, args.adv, rng, n)
                acc, est, u = b.accepted.tolist(), b.estimate.tolist(), b.u_true.tolist()
            for i, (a, e, v) in enumerate(zip(acc, est, u), start):
                yield i, args.eta, a, e if a else "", v

    write_csv(args.out, ("round", "eta", "accepted", "estimate", "u_true"), rows(),
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


def cmd_learn(args: argparse.Namespace) -> int:
    cfg = _load(args)
    for flag, path in (("--out", args.out), ("--trace", args.trace)):
        if path is not None and Path(path).is_dir():
            raise ValueError(f"{flag} {path} is a directory")
    algos = [ETC, ELIMINATION] if args.algo == "both" else [args.algo]
    art = prepare_instance(cfg)
    results = run_trials(art, algos, threads=args.threads, keep_outcome=args.trace is not None)
    write_csv(args.out, TRIAL_HEADER, trial_rows(results), cfg.hash(), cfg["experiment.base_seed"])
    if args.trace is not None:
        trace_rows = [
            (r.trial, r.algo, s.index, s.eta, s.rounds_played, s.accept_count,
             s.alpha_hat, s.u_hat, s.eliminated,
             "" if s.eliminated_at_round is None else s.eliminated_at_round)
            for r in results
            for s in r.outcome.arm_trace
        ]
        write_csv(
            args.trace,
            ("trial", "algo", "arm", "eta", "rounds_played", "accept_count",
             "alpha_hat", "u_hat", "eliminated", "eliminated_at_round"),
            trace_rows, cfg.hash(), cfg["experiment.base_seed"],
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load(args)
    results = verify_grid(cfg.scenario(), args.eta_list, args.alpha_list, cfg["envelope.grid"],
                          cfg["envelope.alpha_min"], args.z_grid, args.w_grid)
    rows = [(r.eta, r.alpha, r.oracle_value, r.envelope_value, r.gap, *r.witness) for r in results]
    write_csv(args.out, ("eta", "alpha", "oracle", "envelope", "gap", "z1", "z2", "w"), rows,
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    write_csv(args.out, CURVE_HEADER, curve_rows(cfg, args.points), cfg.hash(),
              cfg["experiment.base_seed"])
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _load(args)
    algos = [ETC, ELIMINATION] if args.algo == "both" else [args.algo]
    Path(args.out).mkdir(parents=True, exist_ok=True)  # fail before the verify and the trials
    gap = None
    if args.verify_etas:
        results = verify_grid(cfg.scenario(), args.verify_etas, args.verify_alphas,
                              cfg["envelope.grid"], cfg["envelope.alpha_min"])
        gap = max((abs(r.gap) for r in results), default=0.0)
    report, _ = run_experiment(cfg, algos=algos, out_dir=args.out, threads=args.threads,
                               envelope_max_gap=gap)
    for s in report.per_algo:
        print(
            f"{s.algo}: trials={s.trials} failure_rate={s.failure_rate:.4f} "
            f"mean_regret={s.mean_regret:.6f} mean_rounds={s.mean_rounds_used:.1f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="goc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("envelope", help="sample the value curve for a list of thresholds")
    _common(p)
    p.add_argument("--eta-list", type=_parse_float_list, required=True)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("solve", help="the adversary's best response at each threshold")
    _common(p)
    p.add_argument("--eta-list", type=_parse_float_list, default=None)
    p.add_argument("--points", type=int, default=101)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate rounds at one committed threshold")
    _common(p)
    p.add_argument("--mode", choices=("bernoulli", "physical"), default="physical")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--adv", type=_parse_adversary, default=None,
                   help='offset mixture, e.g. "z=2.0:1.0" or "z=1.5:0.6,z=3.0:0.4"')
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn", help="run seeded learning trials")
    _common(p)
    _trial_flags(p)
    p.add_argument("--trace", default=None, help="optional per-arm trace CSV path")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("verify", help="brute-force oracle vs the value curve")
    _common(p)
    p.add_argument("--eta-list", type=_parse_float_list, required=True)
    p.add_argument("--alpha-list", type=_parse_float_list, required=True)
    p.add_argument("--z-grid", type=int, default=401)
    p.add_argument("--w-grid", type=int, default=201)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curves", help="emit the realized-utility curve for plotting")
    _common(p)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("report", help="trial matrix plus summary statistics")
    _common(p)
    _trial_flags(p)
    p.add_argument("--verify-etas", type=_parse_float_list, default=None)
    p.add_argument("--verify-alphas", type=_parse_float_list, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "verify_etas", None) and not getattr(args, "verify_alphas", None):
        parser.error("--verify-etas requires --verify-alphas")
    if getattr(args, "verify_alphas", None) and not getattr(args, "verify_etas", None):
        parser.error("--verify-alphas requires --verify-etas")
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
