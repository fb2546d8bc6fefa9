from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from effectprob.draws import ParameterView


def make_view(per_chain, name: str = "theta") -> ParameterView:
    """Build a ParameterView from a chain matrix (or one bare chain)."""
    return ParameterView(name, np.atleast_2d(np.asarray(per_chain, dtype=float)))


def peak_bytes(call) -> int:
    """The tracemalloc peak while ``call()`` runs, from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def normal_draws() -> ParameterView:
    """10,000 single-chain draws from Normal(1, 1), seed 1.

    The same recipe the CLI preset uses, so realized statistics match
    across the suite: mean 0.9891, P(>0) 0.8402, 95% interval
    [-0.9483, 2.9319].
    """
    rng = np.random.default_rng(1)
    return make_view(rng.normal(1.0, 1.0, size=10_000).reshape(1, -1))
