"""Canonical storage of posterior draws, organized by chain and iteration.

All downstream summaries consume this representation. :class:`Draws`
is built one way, ``Draws(names, values)`` from a ``(parameters, chains,
iterations)`` array: it checks itself and copies its input once, into a
read-only array it owns, so draws can be shared freely across threads.
A name is a non-empty string with no ``,``, ``\\n``, ``\\r`` or surrogate
(UTF-8 has none), so every :class:`Draws` can be written and read back.
:class:`ParameterView`, one parameter's draws, is built through it and
so keeps the same rules.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
import numpy as np

from .errors import (
    DuplicateParameter, InvalidArgument, InvalidDraws, NonFiniteValue, UnknownParameter, _converted
)

_BAD_NAME = re.compile("[,\n\r\ud800-\udfff]")


@dataclass(frozen=True, eq=False)
class Draws:
    """Post-warmup posterior draws for a set of parameters.

    ``values`` has shape ``(parameters, chains, iterations)``; iteration
    order within a chain is preserved (required by autocorrelation-based
    diagnostics). Construction copies ``values`` into a C-ordered,
    read-only float64 array, then raises :class:`InvalidDraws` for no
    parameters, a name that is not a non-empty string or holds ``,``,
    ``\\n``, ``\\r`` or a surrogate, non-real values, another shape or
    fewer than two iterations per chain, :class:`DuplicateParameter` for a
    repeated name, and :class:`NonFiniteValue` for a NaN or infinity.
    """

    parameter_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        names = _converted("parameter_names", self.parameter_names, tuple, InvalidDraws)
        if not names:
            raise InvalidDraws("at least one parameter is required")
        seen = set()
        for name in names:
            if not isinstance(name, str) or not name or _BAD_NAME.search(name):
                raise InvalidDraws(f"parameter_names: need non-empty strings with no ',', "
                                   f"line end or surrogate, got {name!r}")
            if name in seen:
                raise DuplicateParameter(repr(name))
            seen.add(name)
        values = _converted(
            "values", self.values, lambda v: np.array(v, np.float64, order="C"), InvalidDraws
        )
        if values.ndim != 3 or values.shape[0] != len(names):
            raise InvalidDraws("values must have shape (parameters, chains, iterations)")
        if values.shape[1] < 1 or values.shape[2] < 2:
            raise InvalidDraws(
                f"need at least 1 chain and 2 iterations per chain, got {values.shape[1:]}"
            )
        finite = np.isfinite(values)
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            raise NonFiniteValue(
                f"parameter {names[bad[0]]!r}, chain {bad[1] + 1}, iteration {bad[2] + 1}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "parameter_names", names)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class ParameterView:
    """One parameter's draws, both chain-separated and pooled.

    Construction builds a one-parameter :class:`Draws` from ``name`` and
    ``per_chain`` and keeps its read-only ``(chains, iterations)`` array,
    so a view follows the same rules and raises the same errors: at least
    one chain of at least two iterations, and every draw finite.
    """

    name: str
    per_chain: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_chain", Draws((self.name,), [self.per_chain]).values[0])

    @property
    def pooled(self) -> np.ndarray:
        """The per-chain series concatenated chain-major: a flat, read-only
        view of ``per_chain``, of length ``chains * iterations``."""
        return self.per_chain.reshape(-1)


def _unit_scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` times 2^-e, every |value| then at most 1, and e. Scaling
    by a power of two is exact short of subnormals, so it changes no bit of
    a result scaled back, and keeps squares and spans of huge draws finite."""
    _, exponent = math.frexp(float(np.abs(values).max()))
    return np.ldexp(values, -exponent), exponent


def view(d: Draws, name: str) -> ParameterView:
    """Return the chain-separated and pooled series for one parameter.

    Raises :class:`InvalidArgument` if ``name`` is not a string and
    :class:`UnknownParameter`, with its ``repr``, if ``d`` lacks it.
    """
    if not isinstance(name, str):
        raise InvalidArgument(f"name: need a str, got {type(name).__name__}")
    if name not in d.parameter_names:
        raise UnknownParameter(repr(name))
    return ParameterView(name=name, per_chain=d.values[d.parameter_names.index(name)])
