"""Command-line interface tying the pipeline together.

Subcommands: simulate, fit, summarize, ccdf, density, diagnose. Every run
is fully determined by argv (seeds are explicit flags with fixed
defaults), so repeating a command reproduces its outputs byte for byte.

Exit codes: 0 success, 1 diagnostic warning (a parameter failed the
R-hat check), 2 usage or validation error. Module errors are reported as
one line on stderr: ``error: <ErrorClass>: <detail>``.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import io
from .diagnostics import diagnose
from .draws import Draws, view
from .errors import EffectProbError, InvalidArgument, InvalidLevel, UnknownParameter
from .regress import ModelSpec, PriorSpec, _check_seed, fit, simulate_experiment
from .render import PlotConfig, render_ccdf, render_density
from .summary import PosteriorSummary, ccdf, kde, prob_below, prob_exceeds, summarize

RHAT_WARN = 1.01

FIGURE1_PRESET = {"n": 10_000, "mean": 1.0, "sd": 1.0, "parameter": "theta"}


def summary_machine_line(name: str, s: PosteriorSummary) -> str:
    """One machine-readable line carrying a summary at full precision."""
    return (
        f"summary param={name} level={s.level!r} mean={s.mean!r} "
        f"ci_low={s.ci_low!r} ci_high={s.ci_high!r} "
        f"p_greater_zero={s.p_greater_zero!r} p_less_zero={s.p_less_zero!r}"
    )


def parse_summary_line(line: str) -> tuple[str, PosteriorSummary]:
    """Inverse of :func:`summary_machine_line`."""
    tokens = line.split()
    if not tokens or tokens[0] != "summary":
        raise ValueError(f"not a summary line: {line!r}")
    fields = dict(token.split("=", 1) for token in tokens[1:])
    return fields.pop("param"), PosteriorSummary(
        mean=float(fields["mean"]),
        ci_low=float(fields["ci_low"]),
        ci_high=float(fields["ci_high"]),
        level=float(fields["level"]),
        p_greater_zero=float(fields["p_greater_zero"]),
        p_less_zero=float(fields["p_less_zero"]),
    )


def _human_summary(name: str, s: PosteriorSummary) -> str:
    return (
        f"{name:<8s} mean {s.mean:9.3f}   {s.level * 100:g}% CI "
        f"[{s.ci_low:9.3f}, {s.ci_high:9.3f}]   "
        f"P(>0) {s.p_greater_zero:.3f}   P(<0) {s.p_less_zero:.3f}"
    )


def _select_parameter(draws: Draws, requested: str | None) -> str:
    if requested is not None:
        if requested not in draws.parameter_names:
            raise UnknownParameter(requested)
        return requested
    if len(draws.parameter_names) == 1:
        return draws.parameter_names[0]
    raise InvalidArgument(
        f"--param is required; file has parameters {', '.join(draws.parameter_names)}"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.preset == "figure1":
        preset = FIGURE1_PRESET
        _check_seed(args.seed)
        rng = np.random.default_rng(args.seed)
        values = rng.normal(preset["mean"], preset["sd"], size=preset["n"])
        draws = Draws(parameter_names=(preset["parameter"],), values=values.reshape(1, 1, -1))
        io.write_draws(draws, args.out)
        print(f"wrote {preset['n']} draws of {preset['parameter']!r} to {args.out}")
        return 0
    data = simulate_experiment(args.n, args.beta0, args.beta1, args.sd, args.seed)
    io.write_dataset(data, args.out, args.outcome, args.treatment)
    print(f"wrote dataset with {data.n} units to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    if not 0.0 < args.level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {args.level!r}")
    spec = ModelSpec(
        priors=PriorSpec(
            beta0_mean=args.beta0_mean,
            beta0_sd=args.beta0_sd,
            beta1_mean=args.beta1_mean,
            beta1_sd=args.beta1_sd,
            sigma_rate=args.sigma_rate,
        ),
        chains=args.chains,
        iterations=args.iters,
        warmup=args.warmup,
        seed=args.seed,
        outcome_column=args.outcome,
        treatment_column=args.treatment,
    )
    data = io.read_dataset(args.data, spec.outcome_column, spec.treatment_column)
    result = fit(data, spec)
    io.write_draws(result.draws, args.out)

    summaries = {
        name: summarize(view(result.draws, name), args.level)
        for name in result.draws.parameter_names
    }
    for name, s in summaries.items():
        print(_human_summary(name, s))
    print(f"N = {data.n}")
    for name, d in result.diagnostics.items():
        print(f"{name:<8s} rhat={d.rhat:.4f}  ess={d.ess:.1f}")
    for name, s in summaries.items():
        print(summary_machine_line(name, s))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    draws = io.read_draws(args.draws)
    name = _select_parameter(draws, args.param)
    s = summarize(view(draws, name), args.level)
    print(_human_summary(name, s))
    print(summary_machine_line(name, s))
    return 0


def _cmd_plot(args: argparse.Namespace, curve, render) -> int:
    """``ccdf`` and ``density``: compute ``curve`` on a grid, render it, write the SVG."""
    draws = io.read_draws(args.draws)
    name = _select_parameter(draws, args.param)
    v = view(draws, name)
    document = render(curve(v, args.points), _plot_config(args))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"P({name}>0) = {prob_exceeds(v, 0.0)!r}")
    print(f"P({name}<0) = {prob_below(v, 0.0)!r}")
    return 0


def _plot_config(args: argparse.Namespace) -> PlotConfig:
    return PlotConfig(x_label=args.x_label) if args.x_label else PlotConfig()


def _cmd_diagnose(args: argparse.Namespace) -> int:
    draws = io.read_draws(args.draws)
    worst = 0.0
    for name in draws.parameter_names:
        d = diagnose(view(draws, name))
        worst = max(worst, d.rhat)
        print(f"{name:<8s} rhat={d.rhat:.4f}  ess={d.ess:.1f}")
    if worst > RHAT_WARN:
        print(f"warning: max rhat {worst:.4f} exceeds {RHAT_WARN}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectprob",
        description="Summarize estimated effects as probabilities of different effect sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic draws file or dataset")
    p.add_argument("--preset", choices=["figure1"], default=None,
                   help="emit 10,000 draws from Normal(1, 1) as a single-chain draws file")
    p.add_argument("--n", type=int, default=996, help="dataset mode: number of units")
    p.add_argument("--beta0", type=float, default=52.0, help="dataset mode: control mean")
    p.add_argument("--beta1", type=float, default=-2.49, help="dataset mode: treatment effect")
    p.add_argument("--sd", type=float, default=24.0, help="dataset mode: residual sd")
    p.add_argument("--outcome", default="outcome", help="dataset mode: outcome column name")
    p.add_argument("--treatment", default="treatment", help="dataset mode: treatment column name")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the treatment-effect regression and write draws")
    p.add_argument("data", help="dataset file")
    p.add_argument("--outcome", default="outcome")
    p.add_argument("--treatment", default="treatment")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--iters", type=int, default=10_000)
    p.add_argument("--warmup", type=int, default=1_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--beta0-mean", type=float, default=50.0)
    p.add_argument("--beta0-sd", type=float, default=20.0)
    p.add_argument("--beta1-mean", type=float, default=0.0)
    p.add_argument("--beta1-sd", type=float, default=5.0)
    p.add_argument("--sigma-rate", type=float, default=0.5)
    p.add_argument("--out", required=True, help="draws file to write")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summarize", help="mean, credible interval, one-sided probabilities")
    p.add_argument("draws", help="draws file")
    p.add_argument("--param", default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("ccdf", help="render the complementary cumulative curve as SVG")
    p.add_argument("draws", help="draws file")
    p.add_argument("--param", default=None)
    p.add_argument("--points", type=int, default=512, help="grid points per branch")
    p.add_argument("--x-label", default=None)
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(func=functools.partial(_cmd_plot, curve=ccdf, render=render_ccdf))

    p = sub.add_parser("density", help="render a kernel density estimate as SVG")
    p.add_argument("draws", help="draws file")
    p.add_argument("--param", default=None)
    p.add_argument("--points", type=int, default=512, help="density grid points")
    p.add_argument("--x-label", default=None)
    p.add_argument("--out", required=True, help="SVG file to write")
    p.set_defaults(func=functools.partial(_cmd_plot, curve=kde, render=render_density))

    p = sub.add_parser("diagnose", help="report split R-hat and effective sample size")
    p.add_argument("draws", help="draws file")
    p.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EffectProbError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
