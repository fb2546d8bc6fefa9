"""Command-line interface tying the pipeline together.

Subcommands: simulate, fit, summarize, ccdf, density, diagnose. Every run
is fully determined by argv (seeds are explicit flags with fixed
defaults), so repeating a command reproduces its outputs byte for byte.
``fit``'s prior flags are :class:`PriorSpec`'s fields, with its defaults,
and its protocol defaults are :class:`ModelSpec`'s.

Exit codes: 0 success, 1 diagnostic warning (a parameter's R-hat is
above 1.01, or undefined because its draws are constant), 2 usage or
validation error, or an allocation that cannot be made. Module errors,
file errors and ``MemoryError`` are reported as one line on stderr:
``error: <ErrorClass>: <detail>``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

import numpy as np

from . import io
from .diagnostics import ess, split_rhat
from .draws import Draws, ParameterView, view
from .errors import EffectProbError, InvalidArgument
from .regress import ModelSpec, PriorSpec, _check_seed, fit, simulate_experiment
from .render import render_ccdf, render_density
from .summary import PosteriorSummary, ccdf, kde, prob_below, prob_exceeds, summarize

RHAT_WARN = 1.01

FIGURE1_PRESET = {"n": 10_000, "mean": 1.0, "sd": 1.0, "parameter": "theta"}

# simulate's dataset flags and their values when left out. A preset takes none of them.
DATASET_DEFAULTS = {"n": 996, "beta0": 52.0, "beta1": -2.49, "sd": 24.0}


def summary_machine_line(name: str, s: PosteriorSummary) -> str:
    """One machine-readable line carrying a summary at full precision."""
    return (
        f"summary param={name} level={s.level!r} mean={s.mean!r} "
        f"ci_low={s.ci_low!r} ci_high={s.ci_high!r} "
        f"p_greater_zero={s.p_greater_zero!r} p_less_zero={s.p_less_zero!r}"
    )


def parse_summary_line(line: str) -> tuple[str, PosteriorSummary]:
    """Inverse of :func:`summary_machine_line`. The line is split from the
    right: its numbers hold no spaces, and a parameter name may. Raises
    ``ValueError`` unless its tokens name each summary field once."""
    names = sorted(f.name for f in fields(PosteriorSummary))
    head, *tokens = line.strip().rsplit(" ", len(names))
    values = dict(token.partition("=")[::2] for token in tokens if "=" in token)
    if not head.startswith("summary param=") or sorted(values) != names:
        raise ValueError(f"not a summary line: {line!r}")
    summary = PosteriorSummary(**{name: float(value) for name, value in values.items()})
    return head.removeprefix("summary param="), summary


def _human_summary(name: str, s: PosteriorSummary) -> str:
    return (
        f"{name:<8s} mean {s.mean:9.3f}   {s.level * 100:.15g}% CI "
        f"[{s.ci_low:9.3f}, {s.ci_high:9.3f}]   "
        f"P(>0) {s.p_greater_zero:.3f}   P(<0) {s.p_less_zero:.3f}"
    )


def _select(draws: Draws, requested: str | None) -> ParameterView:
    """The view of ``--param``, which may be left out when the file has one parameter."""
    names = draws.parameter_names
    if requested is None and len(names) > 1:
        raise InvalidArgument(f"--param is required; file has parameters {', '.join(names)}")
    return view(draws, names[0] if requested is None else requested)


def _cmd_simulate(args: argparse.Namespace) -> int:
    given = {k: v for k, v in vars(args).items() if k in DATASET_DEFAULTS and v is not None}
    if args.preset == "figure1":
        if given:
            flags = ", ".join("--" + name for name in given)
            raise InvalidArgument(f"--preset figure1 takes no dataset flags, got {flags}")
        preset = FIGURE1_PRESET
        _check_seed(args.seed)
        rng = np.random.default_rng(args.seed)
        values = rng.normal(preset["mean"], preset["sd"], size=preset["n"])
        draws = Draws(parameter_names=(preset["parameter"],), values=values.reshape(1, 1, -1))
        io.write_draws(draws, args.out)
        print(f"wrote {preset['n']} draws of {preset['parameter']!r} to {args.out}")
        return 0
    # The merge keeps DATASET_DEFAULTS' order: simulate_experiment's.
    data = simulate_experiment(*{**DATASET_DEFAULTS, **given}.values(), args.seed)
    io.write_dataset(data, args.out)
    print(f"wrote dataset with {data.n} units to {args.out}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    priors = PriorSpec(**{f.name: getattr(args, f.name) for f in fields(PriorSpec)})
    spec = ModelSpec(priors, args.chains, args.iters, args.warmup, args.seed)
    data = io.read_dataset(args.data, args.outcome, args.treatment)
    draws = fit(data, spec).draws
    io.write_draws(draws, args.out)

    views = list(map(ParameterView, draws.parameter_names, draws.values))
    summaries = [(v.name, summarize(v)) for v in views]
    for name, s in summaries:
        print(_human_summary(name, s))
    print(f"N = {data.n}")
    _diagnose(views)
    for name, s in summaries:
        print(summary_machine_line(name, s))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    v = _select(io.read_draws(args.draws), args.param)
    s = summarize(v, args.level)
    print(_human_summary(v.name, s))
    print(summary_machine_line(v.name, s))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    """``ccdf`` and ``density``: compute the curve on a grid, render it, write the SVG."""
    # Looked up per call, so a module attribute replaced after import is used.
    curve, render = (ccdf, render_ccdf) if args.command == "ccdf" else (kde, render_density)
    v = _select(io.read_draws(args.draws), args.param)
    # An absent or empty --x-label keeps the renderer's default label.
    label = {"x_label": args.x_label} if args.x_label else {}
    document = render(curve(v), **label)
    # Bytes, as the CSV writers write, so lines end at \n on every platform.
    Path(args.out).write_bytes(document.encode("utf-8"))
    print(f"P({v.name}>0) = {prob_exceeds(v, 0.0)!r}")
    print(f"P({v.name}<0) = {prob_below(v, 0.0)!r}")
    return 0


def _diagnose(views: Iterable[ParameterView]) -> list[tuple[str, float, float]]:
    """Each parameter's ``(name, split R-hat, ESS)``, printed one row per parameter."""
    rows = [(v.name, split_rhat(v), ess(v)) for v in views]
    for name, rhat, n_eff in rows:
        print(f"{name:<8s} rhat={rhat:.4f}  ess={n_eff:.1f}")
    return rows


def _cmd_diagnose(args: argparse.Namespace) -> int:
    draws = io.read_draws(args.draws)
    rows = _diagnose(map(ParameterView, draws.parameter_names, draws.values))
    undefined = ", ".join(name for name, rhat, _ in rows if np.isnan(rhat))
    worst = max(rhat for _, rhat, _ in rows)
    if undefined:
        warning = f"undefined rhat for {undefined}: every split half is constant"
    elif worst > RHAT_WARN:
        warning = f"max rhat {worst:.4f} exceeds {RHAT_WARN}"
    else:
        return 0
    print(f"warning: {warning}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectprob",
        description="Summarize estimated effects as probabilities of different effect sizes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a synthetic draws file or dataset")
    p.add_argument("--preset", choices=["figure1"], default=None,
                   help="emit 10,000 draws from Normal(1, 1) as a single-chain draws file")
    p.add_argument("--n", type=int, help="dataset mode: number of units")
    p.add_argument("--beta0", type=float, help="dataset mode: control mean")
    p.add_argument("--beta1", type=float, help="dataset mode: treatment effect")
    p.add_argument("--sd", type=float, help="dataset mode: residual sd")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the treatment-effect regression and write draws")
    p.add_argument("data", help="dataset file")
    p.add_argument("--outcome", default="outcome")
    p.add_argument("--treatment", default="treatment")
    p.add_argument("--chains", type=int, default=ModelSpec.chains)
    p.add_argument("--iters", type=int, default=ModelSpec.iterations)
    p.add_argument("--warmup", type=int, default=ModelSpec.warmup)
    p.add_argument("--seed", type=int, default=ModelSpec.seed)
    for prior in fields(PriorSpec):
        p.add_argument("--" + prior.name.replace("_", "-"), type=float, default=prior.default)
    p.add_argument("--out", required=True, help="draws file to write")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("summarize", help="mean, credible interval, one-sided probabilities")
    p.add_argument("draws", help="draws file")
    p.add_argument("--param", default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(func=_cmd_summarize)

    for name, help_text in (
        ("ccdf", "render the complementary cumulative curve as SVG"),
        ("density", "render a kernel density estimate as SVG"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("draws", help="draws file")
        p.add_argument("--param", default=None)
        p.add_argument("--x-label", default=None)
        p.add_argument("--out", required=True, help="SVG file to write")
        p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("diagnose", help="report split R-hat and effective sample size")
    p.add_argument("draws", help="draws file")
    p.set_defaults(func=_cmd_diagnose)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EffectProbError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises a private subclass; the stable name is the builtin's.
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
