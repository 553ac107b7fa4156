"""Command-line interface: deterministic CSV-emitting subcommands.

Every subcommand accepts ``--config`` (key = value file), ``--seed`` (overrides
the configured base seed) and ``--out``; ``learn`` and ``report`` also take ``--threads``.
Given the same configuration and seed the output bytes are identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from goc.config import ConfigError, ExperimentConfig, load_config
from goc.envelope import build_envelope_table, build_envelope_tables, check_eta
from goc.environment import MixtureAdversary, make_rng, physical_rounds
from goc.experiments import (
    ELIMINATION,
    ETC,
    SUMMARY_HEADER,
    TRIAL_HEADER,
    prepare_instance,
    resolve_threads,
    run_trials,
    summarize,
    summary_rows,
    trial_rows,
    write_csv,
)
from goc.oracle import best_response
from goc.verify import DEFAULT_W_GRID, DEFAULT_Z_GRID, check_alpha, verify_grid


def _float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {token.strip()!r}") from None


MAX_RANGE_VALUES = 10 ** 6  # most values a start:step:stop range may expand to


def _parse_float_list(raw: str) -> list[float]:
    """Comma list ("2,2.5,3") or inclusive colon range ("0.1:0.1:1.0"); never empty."""
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("range must be start:step:stop")
        start, step, stop = map(_float, parts)
        if not (np.isfinite([start, stop]).all() and 0 < step < np.inf):
            raise argparse.ArgumentTypeError(f"range needs a finite start, stop and step > 0: {raw!r}")
        # the values the range expands to; the clip also bounds the +-inf of an overflow
        count = round(min(max((stop - start) / step, -1.0), MAX_RANGE_VALUES)) + 1
        if count > MAX_RANGE_VALUES:
            raise argparse.ArgumentTypeError(
                f"range {raw!r} expands to more than {MAX_RANGE_VALUES} values")
        values = [v for v in (start + i * step for i in range(count)) if v <= stop + 1e-12]
    else:
        values = [_float(p) for p in raw.split(",") if p.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {raw!r}")
    return values


def _checked(parse, check):
    """An argparse type: ``parse``, then ``check`` on each value, failing at the flag."""
    def checked(raw: str):
        value = parse(raw)
        try:
            for v in value if isinstance(value, list) else [value]:
                check(v)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return checked


_ETA = _checked(_float, check_eta)
_ETAS = _checked(_parse_float_list, check_eta)
_ALPHAS = _checked(_parse_float_list, check_alpha)


def _parse_adversary(raw: str) -> MixtureAdversary:
    """Mixture syntax: "z=2.0:1.0" or "z=1.5:0.6,z=3.0:0.4"."""
    offsets, weights = [], []
    for part in raw.split(","):
        part = part.strip()
        if not part.startswith("z="):
            raise argparse.ArgumentTypeError(f"bad mixture component {part!r}")
        body = part[2:]
        z_str, _, w_str = body.partition(":")
        offsets.append(_float(z_str))
        weights.append(_float(w_str) if w_str else 1.0)
    total = sum(weights)
    if not 0 < total < np.inf:
        raise argparse.ArgumentTypeError("mixture weights must have a positive finite sum")
    try:
        return MixtureAdversary(tuple(offsets), tuple(w / total for w in weights))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# flag attribute -> the config key it overrides
_OVERRIDES = {"seed": "experiment.base_seed", "budget_scale": "experiment.budget_scale",
              "trials": "experiment.trials", "grid": "envelope.grid"}


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config)
    pairs = {key: getattr(args, flag) for flag, key in _OVERRIDES.items()
             if getattr(args, flag, None) is not None}
    return cfg.with_overrides(**pairs) if pairs else cfg


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="key = value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override experiment.base_seed")
    parser.add_argument("--out", required=True, help="output path")


def _trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--algo", choices=(ETC, ELIMINATION, "both"), default="both")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker processes (default 1; at most the CPU count)")
    parser.add_argument("--budget-scale", type=float, default=None,
                        help="smoke-test knob: scale the per-arm budget down (acceptance uses 1.0)")


def cmd_envelope(args: argparse.Namespace) -> int:
    cfg = _load(args)
    tables = build_envelope_tables(cfg.scenario, args.eta_list, cfg["envelope.grid"],
                                   cfg["envelope.alpha_min"])
    write_csv(args.out, ("eta", "alpha", "h", "h_star", "c"),
              ((t.eta, t.alpha_grid, t.h_values, t.h_star_at(t.alpha_grid), t.c_values)
               for t in tables), cfg.hash(), cfg["experiment.base_seed"])
    return 0


def _best_response_sweep(args: argparse.Namespace, header: tuple[str, ...]) -> int:
    """Best responses at ``--eta-list`` or ``--points`` thresholds over [a, b]; one
    column per header name, the first of eta, alpha_star, mmse, u_dc, u_ad."""
    cfg = _load(args)
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    etas = args.eta_list or np.linspace(cfg["learner.a"], cfg["learner.b"], args.points)
    curve = [best_response(table, cfg.utility_spec) for table in build_envelope_tables(
        cfg.scenario, etas, cfg["envelope.grid"], cfg["envelope.alpha_min"])]
    names = ("eta", "alpha_star", "mmse", "dc_value", "ad_value")[:len(header)]
    write_csv(args.out, header, [tuple([getattr(br, name) for br in curve] for name in names)],
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    args.points = 101 if args.points is None else args.points
    return _best_response_sweep(args, ("eta", "alpha_star", "mmse", "u_dc", "u_ad"))


def cmd_curves(args: argparse.Namespace) -> int:
    return _best_response_sweep(args, ("eta", "alpha", "mmse", "u"))


SIMULATE_BLOCK = 1 << 14  # rounds drawn and written per block


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.rounds < 0:
        raise ValueError("--rounds must be >= 0")
    if (args.mode == "physical") != (args.adv is not None):
        raise ValueError("simulate --mode physical requires --adv" if args.adv is None
                         else "--adv: only --mode physical places offsets")
    scenario = cfg.scenario
    rng = make_rng(cfg["experiment.base_seed"], 0, 0)
    if args.mode == "bernoulli":
        table = build_envelope_table(scenario, args.eta, cfg["envelope.grid"], cfg["envelope.alpha_min"])
        alpha = best_response(table, cfg.utility_spec).alpha_star
    else:
        args.adv.check_span(scenario)

    def blocks():
        # Consecutive bulk draws equal one draw of every round (in Bernoulli mode, also
        # step_bernoulli's per-round draws).
        for start in range(0, args.rounds, SIMULATE_BLOCK):
            n = min(SIMULATE_BLOCK, args.rounds - start)
            if args.mode == "bernoulli":
                yield np.arange(start, start + n), args.eta, rng.random(n) < alpha, "", ""
            else:
                b = physical_rounds(scenario, args.eta, args.adv, rng, n)
                # a rejected round's estimate is masked, so write_csv leaves it blank
                yield (np.arange(start, start + n), args.eta, b.accepted,
                       np.ma.masked_array(b.estimate, mask=~b.accepted), b.u_true)
                del b  # the next block is drawn without this one alive

    write_csv(args.out, ("round", "eta", "accepted", "estimate", "u_true"), blocks(),
              cfg.hash(), cfg["experiment.base_seed"])
    return 0


def _check_outputs(*outputs: tuple[str, str | None, bool]) -> None:
    """Fail at the flag of a ``(flag, path, is_dir)`` output that ``write_csv`` could not
    write: a path of the wrong kind, a nearest existing ancestor that is not a writable
    directory, or a second output at or inside another's path. Creates nothing."""
    checked = []  # (flag, path as given, resolved path) of each output so far
    for flag, raw, is_dir in (o for o in outputs if o[1] is not None):
        path = Path(raw)
        if path.exists() and path.is_dir() != is_dir:
            raise ValueError(f"{flag} {raw} is {'not ' if is_dir else ''}a directory")
        where = path if is_dir else path.parent
        ancestor = next(p for p in (where, *where.parents) if p.exists())
        if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
            raise ValueError(f"{flag} {raw}: {ancestor} is not a writable directory")
        resolved = path.resolve()
        for other_flag, other_raw, other in checked:
            if resolved == other:
                raise ValueError(f"{flag} {raw} is the {other_flag} file")
            if other in resolved.parents:
                raise ValueError(f"{flag} {raw} lies inside {other_flag} {other_raw}")
            if resolved in other.parents:
                raise ValueError(f"{other_flag} {other_raw} lies inside {flag} {raw}")
        checked.append((flag, raw, resolved))


def _state_work(art) -> None:
    """Before the first trial, one stderr line: the budgets and the arm-rounds they allow."""
    n, k, trials = art.learner.n, art.learner.k, art.config["experiment.trials"]
    print(f"n = {n}, k = {k:,}; each learner may draw (n + 1) * k * trials = "
          f"{n + 1} * {k:,} * {trials} = {(n + 1) * k * trials:,} arm-rounds", file=sys.stderr)


def cmd_learn(args: argparse.Namespace) -> int:
    cfg = _load(args)
    algos = [ETC, ELIMINATION] if args.algo == "both" else [args.algo]
    threads = resolve_threads(args.threads)
    _check_outputs(("--out", args.out, False), ("--trace", args.trace, False))
    art = prepare_instance(cfg)
    _state_work(art)
    results = run_trials(art, algos, threads=threads)
    write_csv(args.out, TRIAL_HEADER, trial_rows(results), cfg.hash(), cfg["experiment.base_seed"])
    if args.trace is not None:
        etas = art.learner.etas()

        def trace_block(r):
            o = r.outcome  # alpha_hat is one IEEE division of two exact integers
            return (r.trial, r.algo, np.arange(1, len(etas) + 1), etas, o.rounds_played,
                    o.accept_count, np.divide(o.accept_count, o.rounds_played), o.u_hat,
                    o.eliminated,
                    np.ma.masked_array(o.rounds_played, mask=np.logical_not(o.eliminated)))

        write_csv(
            args.trace,
            ("trial", "algo", "arm", "eta", "rounds_played", "accept_count",
             "alpha_hat", "u_hat", "eliminated", "eliminated_at_round"),
            map(trace_block, results), cfg.hash(), cfg["experiment.base_seed"],
        )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _load(args)
    results = verify_grid(cfg.scenario, args.eta_list, args.alpha_list, cfg["envelope.grid"],
                          cfg["envelope.alpha_min"], args.z_grid, args.w_grid)
    rows = [(r.eta, r.alpha, r.oracle_value, r.envelope_value, r.gap, *r.witness) for r in results]
    write_csv(args.out, ("eta", "alpha", "oracle", "envelope", "gap", "z1", "z2", "w"),
              [tuple(zip(*rows))], cfg.hash(), cfg["experiment.base_seed"])
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if bool(args.verify_etas) != bool(args.verify_alphas):
        given, missing = ("--verify-etas", "--verify-alphas")[::1 if args.verify_etas else -1]
        raise ValueError(f"{given} requires {missing}")
    cfg = _load(args)
    algos = [ETC, ELIMINATION] if args.algo == "both" else [args.algo]
    threads = resolve_threads(args.threads)
    _check_outputs(("--out", args.out, True))
    gap = None
    if args.verify_etas:
        checks = verify_grid(cfg.scenario, args.verify_etas, args.verify_alphas,
                             cfg["envelope.grid"], cfg["envelope.alpha_min"])
        gap = max((abs(r.gap) for r in checks), default=0.0)
    art = prepare_instance(cfg)
    _state_work(art)
    results = run_trials(art, algos, threads=threads)
    summaries = summarize(results, lam=art.learner.lam)
    h, seed, out = cfg.hash(), cfg["experiment.base_seed"], Path(args.out)
    write_csv(out / "trials.csv", TRIAL_HEADER, trial_rows(results), h, seed)
    write_csv(out / "summary.csv", SUMMARY_HEADER, summary_rows(summaries, gap), h, seed)
    for s in summaries:
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
    p.add_argument("--eta-list", type=_ETAS, required=True)
    p.add_argument("--grid", type=int, default=None, help="override envelope.grid")
    p.set_defaults(func=cmd_envelope)

    p = sub.add_parser("solve", help="the adversary's best response at each threshold")
    _common(p)
    sweep = p.add_mutually_exclusive_group()
    sweep.add_argument("--eta-list", type=_ETAS, default=None)
    # no default here: argparse lets a flag given at its default value past the group
    sweep.add_argument("--points", type=int, default=None,
                       help="thresholds over [a, b] (default 101)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate rounds at one committed threshold")
    _common(p)
    p.add_argument("--mode", choices=("bernoulli", "physical"), default="physical")
    p.add_argument("--eta", type=_ETA, required=True)
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
    p.add_argument("--eta-list", type=_ETAS, required=True)
    p.add_argument("--alpha-list", type=_ALPHAS, required=True)
    p.add_argument("--z-grid", type=int, default=DEFAULT_Z_GRID)
    p.add_argument("--w-grid", type=int, default=DEFAULT_W_GRID)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("curves", help="emit the realized-utility curve for plotting")
    _common(p)
    p.add_argument("--points", type=int, default=201)
    p.set_defaults(func=cmd_curves, eta_list=None)

    p = sub.add_parser("report", help="trial matrix plus summary statistics")
    _common(p)
    _trial_flags(p)
    p.add_argument("--verify-etas", type=_ETAS, default=None)
    p.add_argument("--verify-alphas", type=_ALPHAS, default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
