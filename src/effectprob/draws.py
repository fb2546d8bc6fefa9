"""Canonical storage of posterior draws, organized by chain and iteration.

All downstream summaries consume this representation. :class:`Draws`
checks itself whichever way it is built and copies its input once, into
a read-only array it owns, so draws can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DuplicateParameter,
    InvalidDraws,
    NonFiniteValue,
    RaggedChains,
    UnknownParameter,
)


@dataclass(frozen=True, eq=False)
class Draws:
    """Post-warmup posterior draws for a set of parameters.

    ``values`` has shape ``(parameters, chains, iterations)``; iteration
    order within a chain is preserved (required by autocorrelation-based
    diagnostics). Construction copies ``values`` into a C-ordered,
    read-only float64 array, then raises :class:`InvalidDraws` for no
    parameters, an empty or non-string name, another shape or fewer than
    two iterations per chain, :class:`DuplicateParameter` for a repeated
    name, and :class:`NonFiniteValue` for a NaN or infinity.
    """

    parameter_names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        names = tuple(self.parameter_names)
        if not names:
            raise InvalidDraws("at least one parameter is required")
        for i, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise InvalidDraws(f"parameter name must be a non-empty string, got {name!r}")
            if name in names[:i]:
                raise DuplicateParameter(name)
        try:
            values = np.array(self.values, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise InvalidDraws(f"values: {exc}") from exc
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

    @property
    def chains(self) -> int:
        return self.values.shape[1]

    @property
    def iterations_per_chain(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class ParameterView:
    """One parameter's draws, both chain-separated and pooled.

    ``pooled`` is the concatenation of the per-chain series in
    (chain-major, iteration-minor) order, so its length is always
    ``chains * iterations_per_chain``.
    """

    name: str
    per_chain: np.ndarray
    pooled: np.ndarray


RawDraws = Mapping[str, object] | Iterable[tuple[str, object]]


def validate(raw: RawDraws) -> Draws:
    """Stack per-parameter series into :class:`Draws`, or reject them.

    ``raw`` maps parameter names to their per-chain series: either a
    2-d layout ``(chains, iterations)`` or a single 1-d chain. Chains of
    unequal length, or layouts that differ between parameters, raise
    :class:`RaggedChains`; :class:`Draws` checks the rest.
    """
    items = list(raw.items()) if isinstance(raw, Mapping) else [(n, v) for n, v in raw]
    blocks: list[np.ndarray] = []
    for name, series in items:
        try:
            block = np.asarray(series, dtype=float)
        except (TypeError, ValueError) as exc:
            probe = np.asarray(series, dtype=object)
            if probe.ndim == 1 and probe.size and hasattr(probe[0], "__len__"):
                raise RaggedChains(f"parameter {name!r}: chains have unequal lengths") from exc
            raise InvalidDraws(f"parameter {name!r}: {exc}") from exc
        if block.ndim == 1:
            block = block.reshape(1, -1)
        if block.ndim != 2:
            raise InvalidDraws(f"parameter {name!r}: expected a (chains, iterations) layout")
        if blocks and block.shape != blocks[0].shape:
            raise RaggedChains(
                f"parameter {name!r} has layout {block.shape}, expected {blocks[0].shape}"
            )
        blocks.append(block)
    values = np.stack(blocks) if blocks else np.empty((0, 0, 0))
    return Draws(parameter_names=tuple(name for name, _ in items), values=values)


def view(d: Draws, name: str) -> ParameterView:
    """Return the chain-separated and pooled series for one parameter.

    Raises :class:`UnknownParameter` if ``name`` is not in ``d``.
    """
    try:
        idx = d.parameter_names.index(name)
    except ValueError:
        raise UnknownParameter(name) from None
    per_chain = d.values[idx]
    return ParameterView(name=name, per_chain=per_chain, pooled=per_chain.reshape(-1))
