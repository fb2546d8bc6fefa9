"""numpy is the package's only runtime dependency.

scipy is installed beside the test tools, so an accidental import of it
would pass every other test. This one runs the package in a fresh
interpreter and looks at what got imported. It also looks for
`statistics`, which loads `fractions` and `decimal` and adds a few ms to
every start of the command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import sys

import numpy as np

import effectprob.cli
from effectprob.diagnostics import ess
from effectprob.draws import ParameterView
from effectprob.summary import kde

v = ParameterView("x", np.random.default_rng(0).normal(size=(4, 500)))
kde(v)
ess(v)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
loaded = sorted({"statistics", "fractions", "decimal"} & sys.modules.keys())
assert not loaded, loaded
"""


def test_kde_and_ess_run_without_scipy():
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
