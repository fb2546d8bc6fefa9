from __future__ import annotations

import numpy as np
import pytest

from effectprob.draws import Draws, ParameterView, view
from effectprob.errors import (
    DuplicateParameter,
    InvalidArgument,
    InvalidDraws,
    NonFiniteValue,
    UnknownParameter,
)
from effectprob.regress import Dataset
from effectprob.summary import summarize


class TestDrawsChecksItself:
    @pytest.mark.parametrize(
        "names, values, error",
        [
            ((), np.zeros((0, 1, 2)), InvalidDraws),
            (("a",), [[[1.0, np.nan, 3.0]]], NonFiniteValue),
            (("a",), [[[1.0, np.inf, 3.0]]], NonFiniteValue),
            (("a",), [[[1.0, 2.0], [3.0, -np.inf]]], NonFiniteValue),
            (("",), [[[1.0, 2.0]]], InvalidDraws),
            (("a", "a"), [[[1.0, 2.0]], [[3.0, 4.0]]], DuplicateParameter),
            (("a", "a"), np.full((2, 1, 1), np.nan), DuplicateParameter),
            (("a",), [[[1.0]]], InvalidDraws),
            (("a",), [[[[1.0, 2.0]]]], InvalidDraws),
        ],
        ids=["no-parameters", "nan", "inf", "inf-in-second-chain", "empty-name", "duplicate-name",
             "duplicate-name-over-nan", "one-iteration", "wrong-ndim"],
    )
    def test_rejects(self, names, values, error):
        with pytest.raises(error):
            Draws(parameter_names=names, values=np.asarray(values, dtype=float))

    def test_constructor_rejects_mismatched_name_count(self):
        with pytest.raises(InvalidDraws):
            Draws(parameter_names=("a", "b"), values=np.zeros((1, 1, 2)))

    @pytest.mark.parametrize(
        "values",
        [[[[1.0, 2.0], [3.0]]], [[["x", "y"]]], [[[10**400, 1.0]]]],
        ids=["ragged", "text", "overflowing-int"],
    )
    def test_constructor_rejects_values_that_are_not_numbers(self, values):
        with pytest.raises(InvalidDraws, match="^values: "):
            Draws(parameter_names=("a",), values=values)

    def test_names_are_checked_in_one_pass(self):
        # Comparing each name with every earlier one makes p (p - 1) / 2
        # comparisons; a set of the names seen makes none between distinct
        # hashes.
        calls = 0

        class Name(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                nonlocal calls
                calls += 1
                return str.__eq__(self, other)

        p = 2_000
        names = tuple(Name(f"p{i}") for i in range(p))
        Draws(parameter_names=names, values=np.zeros((p, 1, 2)))
        assert calls < p

    @pytest.mark.parametrize(
        "names, error, message",
        [
            (("a", "", "a"), InvalidDraws, "non-empty string"),
            (("a", 1, "a"), InvalidDraws, "non-empty string"),
            (("a", "a", ""), DuplicateParameter, "^'a'$"),
        ],
        ids=["empty-before-repeat", "non-string-before-repeat", "repeat-before-empty"],
    )
    def test_first_bad_name_decides_the_error(self, names, error, message):
        with pytest.raises(error, match=message) as info:
            Draws(parameter_names=names, values=np.zeros((3, 1, 2)))
        assert type(info.value) is error

    @pytest.mark.parametrize(
        "name", ["a,b", "x\ny", "x\ry", "\udcff"], ids=["comma", "lf", "cr", "surrogate"]
    )
    def test_refuses_a_name_a_draws_file_cannot_hold(self, name):
        # A header cell holds no comma or line end, and UTF-8 encodes no
        # surrogate. A view is a one-parameter Draws and refuses the same.
        with pytest.raises(InvalidDraws, match="^parameter_names: "):
            Draws(("ok", name), [[[1.0, 2.0]], [[3.0, 4.0]]])
        with pytest.raises(InvalidDraws, match="^parameter_names: "):
            ParameterView(name, [[1.0, 2.0]])

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
        with pytest.raises(ValueError):
            d.values[0, 0, 0] = 9.0
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
        d = Draws(("b1",), [[[1.0, 2.0], [3.0, 4.0]]])
        assert view(d, "b1").pooled.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_unknown_parameter(self):
        d = Draws(("b1",), [[[1.0, 2.0]]])
        with pytest.raises(UnknownParameter):
            view(d, "beta9")

    @pytest.mark.parametrize("name, got", [(None, "NoneType"), (["b1"], "list")])
    def test_name_that_is_not_a_str_is_an_invalid_argument(self, name, got):
        # Both were UnknownParameter, whose message was the bare object.
        d = Draws(("b1",), [[[1.0, 2.0]]])
        with pytest.raises(InvalidArgument, match=f"^name: need a str, got {got}$"):
            view(d, name)

    @pytest.mark.parametrize("name", ["", "b1 "])
    def test_unknown_parameter_is_named_by_its_repr(self, name):
        # The empty name's message was empty.
        d = Draws(("b1",), [[[1.0, 2.0]]])
        with pytest.raises(UnknownParameter) as info:
            view(d, name)
        assert str(info.value) == repr(name)

    def test_single_chain_pooled_identical(self):
        d = Draws(("b1",), [[[1.5, 2.5, 3.5]]])
        v = view(d, "b1")
        assert v.pooled.tolist() == v.per_chain[0].tolist()

    def test_pooled_length_invariant(self):
        rng = np.random.default_rng(0)
        d = Draws(("a", "b", "c"), rng.normal(size=(3, 3, 7)))
        for n in d.parameter_names:
            assert view(d, n).pooled.shape == (3 * 7,)

    def test_values_unaltered(self):
        block = np.array([[1.25, -2.5], [0.75, 3.125]])
        d = Draws(("a",), [block])
        assert np.array_equal(view(d, "a").per_chain, block)


class TestParameterViewChecksItself:
    def test_infinite_draw_rejected_before_summarize(self):
        # summarize once returned ci_high=nan, with a RuntimeWarning, here.
        with pytest.raises(NonFiniteValue, match=r"^parameter 'x', chain 1, iteration 3$"):
            summarize(ParameterView("x", [[1, 2, np.inf]]), 0.95)

    @pytest.mark.parametrize(
        "per_chain, error",
        [
            ([1.0, 2.0], InvalidDraws),
            ([[[1.0, 2.0]]], InvalidDraws),
            ([[1.0, np.nan]], NonFiniteValue),
            ([[]], InvalidDraws),
            ([[1.0]], InvalidDraws),
        ],
        ids=["one-dimensional", "three-dimensional", "nan", "empty", "one-iteration"],
    )
    def test_rejects(self, per_chain, error):
        with pytest.raises(error):
            ParameterView("x", per_chain)

    def test_copy_is_owned(self):
        per_chain = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = ParameterView("x", per_chain)
        per_chain[0, 0] = np.inf
        assert v.per_chain.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert v.pooled.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert not v.per_chain.flags.writeable and not v.pooled.flags.writeable

    def test_lists_become_float_arrays(self):
        v = ParameterView("x", [[1, 2], [3, 4]])
        assert v.per_chain.dtype == v.pooled.dtype == np.float64
        assert summarize(v, 0.5).mean == 2.5
