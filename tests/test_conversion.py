"""Every public entry point converts a caller's values one way.

``errors._converted`` is the package's one converter: what it cannot
use, a complex value included, raises an :class:`EffectProbError` whose
message starts with the argument's name. numpy would take a complex
value by dropping its imaginary part, with only a ``ComplexWarning``;
pyproject's warning filter turns any such warning into a test failure.
"""

from __future__ import annotations

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import effectprob
from effectprob import (
    Dataset,
    Draws,
    ModelSpec,
    ParameterView,
    PriorSpec,
    ccdf,
    kde,
    prob_below,
    prob_between,
    prob_exceeds,
    render_ccdf,
    render_density,
    simulate_experiment,
    summarize,
)
from effectprob.errors import EffectProbError, InvalidArgument, InvalidDraws, InvalidLevel

JUNK = {
    "text": "x",
    "none": None,
    "complex": 1j,
    "complex64": np.complex64(1),
    "complex128": np.complex128(1 + 1j),
    "complex-array": np.array([1 + 1j, 2.0, 3.0]),
    "complex-scalar-list": [np.complex128(1), np.complex128(2), np.complex128(3)],
    "ragged": [[1.0], [1.0, 2.0]],
    "huge-int": 10**400,
}
# Counts and seeds take integers only.
COUNT_JUNK = {**JUNK, "fraction": 10.7, "digits": "12"}

VIEW = ParameterView("theta", [[0.1, -0.2, 0.3, 0.7], [0.5, -0.4, 0.2, 0.9]])
DATA = {"outcome": [1.0, 2.0, 3.5, 4.0], "treatment": [0, 1, 0, 1]}
SIMULATE = {"n": 10, "beta0": 1.0, "beta1": 2.0, "resid_sd": 3.0, "seed": 4}

# (argument, call with the value in its place, the error's name in the
# message, whether the argument is a count or seed).
ENTRY_POINTS = [
    *((name, lambda v, name=name: PriorSpec(**{name: v}), name, False)
      for name in ("beta0_mean", "beta0_sd", "beta1_mean", "beta1_sd", "sigma_rate")),
    ("priors", lambda v: ModelSpec(priors=v), "priors", False),
    *((name, lambda v, name=name: ModelSpec(**{name: v}), name, True)
      for name in ("chains", "iterations", "warmup", "seed")),
    *((name, lambda v, name=name: Dataset(**{**DATA, name: v}), name, False)
      for name in ("outcome", "treatment")),
    *((name, lambda v, name=name: simulate_experiment(**{**SIMULATE, name: v}), name,
       name in ("n", "seed"))
      for name in SIMULATE),
    ("parameter_names", lambda v: Draws(v, np.zeros((1, 2, 3))), "parameter_names", False),
    ("values", lambda v: Draws(("a",), v), "values", False),
    # A view is a one-parameter Draws, so its errors name Draws' arguments.
    ("view-name", lambda v: ParameterView(v, np.zeros((2, 3))), "parameter_names", False),
    ("view-per_chain", lambda v: ParameterView("a", v), "values", False),
    ("prob_exceeds-x", lambda v: prob_exceeds(VIEW, v), "x", False),
    ("prob_below-x", lambda v: prob_below(VIEW, v), "x", False),
    ("prob_between-a", lambda v: prob_between(VIEW, v, 2.0), "a", False),
    ("prob_between-b", lambda v: prob_between(VIEW, -2.0, v), "b", False),
    ("level", lambda v: summarize(VIEW, v), "level", False),
    ("render_ccdf-x_label", lambda v: render_ccdf(ccdf(VIEW), v), "x_label", False),
    ("render_density-x_label", lambda v: render_density(kde(VIEW), v), "x_label", False),
]


@pytest.mark.parametrize(
    "call, name, value",
    [
        pytest.param(call, name, value, id=f"{argument}-{kind}")
        for argument, call, name, is_count in ENTRY_POINTS
        for kind, value in (COUNT_JUNK if is_count else JUNK).items()
    ],
)
def test_junk_returns_or_raises_a_typed_error_naming_the_argument(call, name, value):
    try:
        call(value)
    except EffectProbError as exc:
        assert re.match(rf"{name}\b", str(exc)), str(exc)


@pytest.mark.parametrize("n", [10.7, "12", np.float64(12.0)], ids=["fraction", "digits", "float64"])
def test_simulate_refuses_a_unit_count_that_is_not_an_integer(n):
    with pytest.raises(InvalidArgument, match="^n: "):
        simulate_experiment(n, 1.0, 2.0, 3.0, seed=4)


COMPLEX_INPUTS = {
    "dataset-array": (lambda: Dataset(np.array([1.0, 2.0, 3.0, 4j]), [0, 1, 0, 1]), InvalidArgument),
    "dataset-scalars": (lambda: Dataset(DATA["outcome"], [np.complex64(0), 1, 0, 1]), InvalidArgument),
    "draws-array": (lambda: Draws(("a",), np.ones((1, 2, 3), complex)), InvalidDraws),
    "draws-scalars": (lambda: Draws(("a",), [[[np.complex128(1), 2.0]]]), InvalidDraws),
    "view-array": (lambda: ParameterView("a", np.ones((2, 3), np.complex64)), InvalidDraws),
    "view-scalars": (lambda: ParameterView("a", [[1.0, np.complex128(1 + 1j)]]), InvalidDraws),
}


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("build, error", COMPLEX_INPUTS.values(), ids=COMPLEX_INPUTS.keys())
def test_complex_input_is_refused_whatever_the_warning_filter(build, error, action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(error, match="complex values are not accepted"):
            build()
    assert caught == []


@pytest.mark.parametrize(
    "call, same",
    [
        (lambda: simulate_experiment(np.int64(20), 1, np.float32(2.5), np.int64(3), np.uint8(4)),
         lambda: simulate_experiment(20, 1.0, 2.5, 3.0, 4)),
        (lambda: Draws(["a"], [[list(map(np.float64, [1.5, 2.5]))]]).values,
         lambda: Draws(("a",), np.array([[[1.5, 2.5]]])).values),
        (lambda: prob_between(VIEW, np.float32(-0.25), "0.5"),
         lambda: prob_between(VIEW, float(np.float32(-0.25)), 0.5)),
        (lambda: summarize(VIEW, np.float16(0.5)), lambda: summarize(VIEW, 0.5)),
    ],
    ids=["simulate", "draws", "prob_between", "summarize"],
)
def test_values_numpy_and_float_accept_convert_as_they_did(call, same):
    # Integers, numpy reals and numeric text still convert to the value
    # float() or numpy gives them.
    got, expected = call(), same()
    if isinstance(got, Dataset):
        got, expected = (got.outcome, got.treatment), (expected.outcome, expected.treatment)
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("level", ["x", None, np.complex64(0.5)], ids=["text", "none", "complex"])
def test_level_that_is_not_a_real_number_is_an_invalid_level(level):
    with pytest.raises(InvalidLevel, match="^level: "):
        summarize(VIEW, level)


def test_one_except_clause_names_type_error():
    # The converter's: a second conversion path would catch it again.
    package = Path(effectprob.__file__).parent
    handlers = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ExceptHandler)
        and node.type is not None
        and any(isinstance(n, ast.Name) and n.id == "TypeError" for n in ast.walk(node.type))
    ]
    assert len(handlers) == 1, handlers
    assert handlers[0][0] == "errors.py"
