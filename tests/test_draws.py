from __future__ import annotations

import numpy as np
import pytest

from effectprob.draws import Draws, validate, view
from effectprob.errors import (
    DuplicateParameter,
    InvalidDraws,
    NonFiniteValue,
    RaggedChains,
    UnknownParameter,
)
from effectprob.regress import Dataset


class TestValidate:
    def test_minimal_well_formed(self):
        d = validate({"a": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]})
        assert d.parameter_names == ("a",)
        assert d.chains == 2
        assert d.iterations_per_chain == 3
        assert view(d, "a").pooled.shape == (6,)

    def test_single_chain_accepted_as_1d(self):
        d = validate({"a": [1.0, 2.0, 3.0]})
        assert d.chains == 1
        assert d.iterations_per_chain == 3

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate({"a": [[1.0, np.nan, 3.0]]})

    def test_infinity_rejected(self):
        with pytest.raises(NonFiniteValue):
            validate({"a": [[1.0, np.inf, 3.0]]})

    def test_ragged_chains_rejected(self):
        with pytest.raises(RaggedChains):
            validate({"a": [list(range(10)), list(range(9))]})

    def test_mismatched_layout_across_parameters(self):
        with pytest.raises(RaggedChains):
            validate({"a": [[1.0, 2.0, 3.0]], "b": [[1.0, 2.0]]})

    def test_duplicate_parameter(self):
        with pytest.raises(DuplicateParameter):
            validate([("a", [[1.0, 2.0]]), ("a", [[3.0, 4.0]])])

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidDraws):
            validate({"": [[1.0, 2.0]]})

    def test_no_parameters_rejected(self):
        with pytest.raises(InvalidDraws):
            validate({})

    def test_single_iteration_rejected(self):
        with pytest.raises(InvalidDraws):
            validate({"a": [[1.0]]})

    def test_values_read_only(self):
        d = validate({"a": [[1.0, 2.0]]})
        with pytest.raises(ValueError):
            d.values[0, 0, 0] = 9.0


def by_validate(names, values):
    return validate(list(zip(names, values)))


def by_constructor(names, values):
    return Draws(parameter_names=names, values=values)


class TestDrawsChecksItself:
    """Every invariant holds whichever way the draws are built."""

    @pytest.mark.parametrize("build", [by_validate, by_constructor])
    @pytest.mark.parametrize(
        "names, values, error",
        [
            (("a",), [[[1.0, np.nan, 3.0]]], NonFiniteValue),
            (("a",), [[[1.0, np.inf, 3.0]]], NonFiniteValue),
            (("a",), [[[1.0, 2.0], [3.0, -np.inf]]], NonFiniteValue),
            (("",), [[[1.0, 2.0]]], InvalidDraws),
            (("a", "a"), [[[1.0, 2.0]], [[3.0, 4.0]]], DuplicateParameter),
            (("a", "a"), np.full((2, 1, 1), np.nan), DuplicateParameter),
            (("a",), [[[1.0]]], InvalidDraws),
            (("a",), [[[[1.0, 2.0]]]], InvalidDraws),
        ],
        ids=["nan", "inf", "inf-in-second-chain", "empty-name", "duplicate-name",
             "duplicate-name-over-nan", "one-iteration", "wrong-ndim"],
    )
    def test_rejects(self, build, names, values, error):
        with pytest.raises(error):
            build(names, np.asarray(values, dtype=float))

    def test_constructor_rejects_mismatched_name_count(self):
        with pytest.raises(InvalidDraws):
            Draws(parameter_names=("a", "b"), values=np.zeros((1, 1, 2)))

    @pytest.mark.parametrize("values", [[[[1.0, 2.0], [3.0]]], [[["x", "y"]]]], ids=["ragged", "text"])
    def test_constructor_rejects_values_that_are_not_numbers(self, values):
        with pytest.raises(InvalidDraws):
            Draws(parameter_names=("a",), values=values)

    def test_nonfinite_error_names_the_cell(self):
        values = np.zeros((2, 3, 4))
        values[1, 2, 3] = np.inf
        with pytest.raises(NonFiniteValue, match=r"^parameter 'b', chain 3, iteration 4$"):
            Draws(parameter_names=("a", "b"), values=values)

    def test_copy_is_owned_and_c_ordered(self):
        base = np.arange(12.0)
        values = base.reshape(3, 2, 2).transpose(2, 1, 0)  # a strided view of base
        d = Draws(parameter_names=("a", "b"), values=values)
        assert values.flags.writeable and base.flags.writeable
        values[0, 0, 0] = 99.0
        base[:] = -1.0
        assert d.values.tolist() == np.arange(12.0).reshape(3, 2, 2).transpose(2, 1, 0).tolist()
        assert d.values.flags.c_contiguous and not d.values.flags.writeable
        assert d.parameter_names == ("a", "b")

    def test_dataset_copy_is_owned(self):
        base = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]])
        outcome, treatment = base[:, 0], np.array([0, 1, 0, 1])
        data = Dataset(outcome=outcome, treatment=treatment)
        assert outcome.flags.writeable and treatment.flags.writeable
        outcome[0] = 99.0
        base[:] = -1.0
        treatment[:] = 1
        assert data.outcome.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert data.treatment.tolist() == [0, 1, 0, 1]
        assert not data.outcome.flags.writeable


class TestView:
    def test_pooled_is_chain_major_concatenation(self):
        d = validate({"b1": [[1.0, 2.0], [3.0, 4.0]]})
        assert view(d, "b1").pooled.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_unknown_parameter(self):
        d = validate({"b1": [[1.0, 2.0]]})
        with pytest.raises(UnknownParameter):
            view(d, "beta9")

    def test_single_chain_pooled_identical(self):
        d = validate({"b1": [[1.5, 2.5, 3.5]]})
        v = view(d, "b1")
        assert v.pooled.tolist() == v.per_chain[0].tolist()

    def test_pooled_length_invariant(self):
        rng = np.random.default_rng(0)
        d = validate({n: rng.normal(size=(3, 7)) for n in ("a", "b", "c")})
        for n in d.parameter_names:
            assert view(d, n).pooled.shape == (d.chains * d.iterations_per_chain,)

    def test_values_unaltered(self):
        block = np.array([[1.25, -2.5], [0.75, 3.125]])
        d = validate({"a": block})
        assert np.array_equal(view(d, "a").per_chain, block)
