"""Effect-size probabilities from posterior draws.

Summarizes the uncertainty of an estimated effect as the probabilities of
different effect sizes: complementary cumulative curves over posterior
draws, one-sided and range probabilities, means and equal-tailed credible
intervals, plus a self-contained Bayesian linear-regression sampler with
convergence diagnostics, deterministic SVG renderers, and a CLI covering
the whole simulate / fit / summarize / plot pipeline.
"""

from . import errors
from .diagnostics import Diagnostics, diagnose, ess, split_rhat
from .draws import Draws, ParameterView, validate, view
from .io import read_dataset, read_draws, write_dataset, write_draws
from .regress import (
    ChainStats,
    Dataset,
    FitResult,
    ModelSpec,
    PriorSpec,
    fit,
    simulate_experiment,
)
from .render import (
    AxisMap,
    ccdf_axis_maps,
    density_axis_maps,
    render_ccdf,
    render_density,
)
from .summary import (
    CcdfCurve,
    DensityEstimate,
    PosteriorSummary,
    ccdf,
    kde,
    prob_below,
    prob_between,
    prob_exceeds,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AxisMap",
    "CcdfCurve",
    "ChainStats",
    "Dataset",
    "DensityEstimate",
    "Diagnostics",
    "Draws",
    "FitResult",
    "ModelSpec",
    "ParameterView",
    "PosteriorSummary",
    "PriorSpec",
    "ccdf",
    "ccdf_axis_maps",
    "density_axis_maps",
    "diagnose",
    "errors",
    "ess",
    "fit",
    "kde",
    "prob_below",
    "prob_between",
    "prob_exceeds",
    "read_dataset",
    "read_draws",
    "render_ccdf",
    "render_density",
    "simulate_experiment",
    "split_rhat",
    "summarize",
    "validate",
    "view",
    "write_dataset",
    "write_draws",
]
