"""The three workloads: their inputs, made from a seed, and their commands.

Why each exists, and which layer metric should move which end-to-end
metric on it, is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Prior and protocol flags are passed explicitly (they equal the CLI's
# defaults) so the conjugate check in checks.py uses the same values.
PRIORS = {"beta0_mean": 50.0, "beta0_sd": 20.0, "beta1_mean": 0.0, "beta1_sd": 5.0}
PRIOR_FLAGS = [
    "--beta0-mean", "50", "--beta0-sd", "20",
    "--beta1-mean", "0", "--beta1-sd", "5", "--sigma-rate", "0.5",
]

SLOW_RHO = 0.999
# Fixed per-chain offsets of the slow parameter, in stationary sd units.
# Without them split R-hat of four stationary AR(1) chains fell to 1.012
# on one seed in 300; with them the lowest seen was 1.027, so diagnose
# exits 1 on every seed.
SLOW_OFFSETS = (-0.45, -0.15, 0.15, 0.45)


@dataclass(frozen=True)
class Scale:
    chains: int
    iterations: int
    warmup: int
    large_n: int
    long_iterations: int


FULL = Scale(chains=4, iterations=10_000, warmup=1_000, large_n=200_000, long_iterations=25_000)
SMOKE = Scale(chains=4, iterations=600, warmup=100, large_n=5_000, long_iterations=2_000)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must satisfy."""

    kind: str
    argv: list[str]
    outputs: tuple[str, ...] = ()
    expected_exit: int = 0
    # Draws file whose exact strict-inequality counts the printed
    # probabilities must equal (an input, or the file the command wrote).
    draws: str | None = None
    # Dataset whose conjugate posterior mean of beta1 the printed mean
    # must match.
    dataset: str | None = None


def seeds(seed: int) -> dict[str, int]:
    """Per-step integer seeds derived from the benchmark seed."""
    names = ("figure1", "experiment", "fit", "chains")
    values = np.random.SeedSequence(seed).generate_state(len(names))
    return {n: int(v) for n, v in zip(names, values)}


def write_long_chains(path: Path, seed: int, iterations: int) -> None:
    """Draws file with an iid ``beta1`` and an AR(1) ``slow`` parameter.

    Written with the benchmark's own formatter (17 significant digits,
    as the program writes), so the input does not depend on the code
    under test.
    """
    rng = np.random.default_rng(seed)
    chains = len(SLOW_OFFSETS)
    beta1 = rng.normal(-2.5, 1.5, size=(chains, iterations))
    innovations = rng.normal(0.0, math.sqrt(1.0 - SLOW_RHO * SLOW_RHO), size=(chains, iterations))
    starts = rng.normal(size=chains)
    lines = ["chain,iter,beta1,slow"]
    for c in range(chains):
        x = float(starts[c])
        noise = innovations[c].tolist()
        b = beta1[c].tolist()
        for i in range(iterations):
            if i:
                x = SLOW_RHO * x + noise[i]
            slow = 0.5 + SLOW_OFFSETS[c] + x
            lines.append(f"{c + 1},{i + 1},{b[i]:.17g},{slow:.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fit(scale: Scale, data: str, fit_seed: int, out: str) -> Command:
    argv = [
        "fit", data, "--seed", str(fit_seed), "--out", out,
        "--chains", str(scale.chains), "--iters", str(scale.iterations),
        "--warmup", str(scale.warmup), *PRIOR_FLAGS,
    ]
    return Command("fit", argv, outputs=(out,), draws=out, dataset=data)


def _post(draws: str, param: str | None, out: Path, stem: str, dataset: str | None = None):
    select = ["--param", param] if param else []
    ccdf_svg, density_svg = str(out / f"{stem}_ccdf.svg"), str(out / f"{stem}_density.svg")
    return [
        Command("summarize", ["summarize", draws, *select], draws=draws, dataset=dataset),
        Command("ccdf", ["ccdf", draws, *select, "--out", ccdf_svg], (ccdf_svg,), draws=draws),
        Command("density", ["density", draws, *select, "--out", density_svg], (density_svg,), draws=draws),
    ]


def replicate(scale: Scale, s: dict, setup: Path, out: Path) -> list[Command]:
    theta = str(out / "theta.csv")
    data, draws = str(out / "experiment.csv"), str(out / "draws.csv")
    return [
        Command("simulate", ["simulate", "--preset", "figure1", "--seed", str(s["figure1"]),
                             "--out", theta], (theta,)),
        *_post(theta, None, out, "theta"),
        Command("simulate", ["simulate", "--n", "996", "--seed", str(s["experiment"]),
                             "--out", data], (data,)),
        _fit(scale, data, s["fit"], draws),
        *_post(draws, "beta1", out, "beta1", dataset=data),
        Command("diagnose", ["diagnose", draws]),
    ]


def large_n(scale: Scale, s: dict, setup: Path, out: Path) -> list[Command]:
    data, draws = str(out / "experiment.csv"), str(out / "draws.csv")
    return [
        Command("simulate", ["simulate", "--n", str(scale.large_n), "--seed", str(s["experiment"]),
                             "--out", data], (data,)),
        _fit(scale, data, s["fit"], draws),
        Command("summarize", ["summarize", draws, "--param", "beta1"], draws=draws, dataset=data),
    ]


def long_chains(scale: Scale, s: dict, setup: Path, out: Path) -> list[Command]:
    chains = str(setup / "chains.csv")
    return [
        *_post(chains, "slow", out, "slow"),
        Command("diagnose", ["diagnose", chains], expected_exit=1),
    ]


def prepare(name: str, scale: Scale, s: dict, setup: Path) -> None:
    """Write the inputs a workload reads before its first command."""
    if name == "long_chains":
        write_long_chains(setup / "chains.csv", s["chains"], scale.long_iterations)


WORKLOADS = {"replicate": replicate, "large_n": large_n, "long_chains": long_chains}
