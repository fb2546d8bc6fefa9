from __future__ import annotations

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import effectprob
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


def run_without_simd_dispatch(code: str) -> str:
    """The stdout of ``code`` run in a child interpreter with every
    dispatch target numpy enables here listed in NPY_DISABLE_CPU_FEATURES.

    numpy's exp, log and tan round differently with the CPU features it
    dispatches to. The names come from numpy's own list, since numpy
    refuses to import when given a name it does not know, and the child
    asserts that each target reads off, since a disable list can be
    silently ignored. The tests directory is on the child's path. Skips
    where numpy dispatches to no target above its baseline.
    """
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    disabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not disabled:
        pytest.skip("numpy dispatches to no target above its baseline on this CPU")
    check = (
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        f"assert not any(__cpu_features__[name] for name in {disabled!r}), __cpu_features__\n"
    )
    package = os.path.dirname(os.path.dirname(effectprob.__file__))
    path = os.pathsep.join([package, os.path.dirname(__file__)])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled), "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", check + code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture(scope="session")
def normal_draws() -> ParameterView:
    """10,000 single-chain draws from Normal(1, 1), seed 1.

    The same recipe the CLI preset uses, so realized statistics match
    across the suite: mean 0.9891, P(>0) 0.8402, 95% interval
    [-0.9483, 2.9319].
    """
    rng = np.random.default_rng(1)
    return make_view(rng.normal(1.0, 1.0, size=10_000).reshape(1, -1))
