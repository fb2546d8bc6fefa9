"""Pinned output bytes: the figures, their stdout and the CSV files, by SHA-256.

The other render tests check structure (well-formed XML, inverted
coordinates, labels), and the io tests compare the writers with a
per-value oracle. These pin every byte, so a refactor of the SVG or CSV
writer that changes any attribute, number format, line end or element
order fails here. A change meant to alter the outputs re-pins these
digests and says so; any other change must leave them passing.

The density document case is built from given arrays rather than from
``kde``: its values come only from correctly rounded arithmetic, so its
digest does not depend on the rounding of the kernel sums. The density
command's case does go through ``kde``, which forms its kernel with
``math.exp``, so its bytes do not depend on numpy's SIMD dispatch.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from effectprob.cli import main
from effectprob.render import render_density
from effectprob.summary import DensityEstimate


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def figure1_draws(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("figure1") / "draws.csv"
    assert main(["simulate", "--preset", "figure1", "--seed", "1", "--out", str(path)]) == 0
    return str(path)


def test_figure1_draws_file_bytes(figure1_draws):
    with open(figure1_draws, "rb") as handle:
        digest = sha256(handle.read())
    assert digest == "577fb7e96671837c2bbac25065fdfdd365f2797fc12f009523958834ad6e9f6a"


def test_dataset_and_fitted_draws_file_bytes(tmp_path):
    data, draws = tmp_path / "data.csv", tmp_path / "draws.csv"
    assert main(["simulate", "--n", "996", "--seed", "1", "--out", str(data)]) == 0
    assert sha256(data.read_bytes()) == (
        "65d1d050166181a2902cb31996d13873fb3dd780eb33a44f47e3fa53d281b29e"
    )
    fit = ["fit", str(data), "--chains", "2", "--iters", "300", "--warmup", "50", "--seed", "1"]
    assert main([*fit, "--out", str(draws)]) == 0
    assert sha256(draws.read_bytes()) == (
        "c826686fae60b06b035694ce90d9b1e401534964741879a7774535d8574fb6ce"
    )


def test_fit_and_diagnose_command_stdout(tmp_path, capsys):
    data, draws = tmp_path / "data.csv", tmp_path / "draws.csv"
    assert main(["simulate", "--n", "996", "--seed", "1", "--out", str(data)]) == 0
    fit = ["fit", str(data), "--chains", "2", "--iters", "300", "--warmup", "50", "--seed", "1"]
    capsys.readouterr()
    assert main([*fit, "--out", str(draws)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "422c8c97047bca2958491ebe053aea27ec07aab999beaacc87f5af730f4a7bce"
    )
    assert main(["diagnose", str(draws)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == (
        "7be3a93a92ad7a2402170bcb6d4536f44bdac89f55354f1a05d995990393bbf5"
    )


@pytest.mark.parametrize(
    "flags, stdout_digest, svg_digest",
    [
        (
            [],
            "90c8385d80b926305ca6d90ccb1fb67b471c2fb147c28f0ce424a5f42c2e1864",
            "63b989e78996c870bb57047e9734046f161c56d2a0c5f77b7e72bda195bdfa31",
        ),
        (
            ["--x-label", "Minimum <change>"],
            "90c8385d80b926305ca6d90ccb1fb67b471c2fb147c28f0ce424a5f42c2e1864",
            "ac033f02f251fc589ea6d65e1f10e0769ec5f59d7eb558babedeec11f4e161a4",
        ),
    ],
    ids=["defaults", "label"],
)
def test_ccdf_command_bytes(figure1_draws, tmp_path, capsys, flags, stdout_digest, svg_digest):
    capsys.readouterr()
    out = tmp_path / "curve.svg"
    code = main(["ccdf", figure1_draws, *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert sha256(captured.out.encode("utf-8")) == stdout_digest
    assert sha256(out.read_bytes()) == svg_digest


def test_density_command_bytes(figure1_draws, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "density.svg"
    code = main(["density", figure1_draws, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert sha256(captured.out.encode("utf-8")) == (
        "90c8385d80b926305ca6d90ccb1fb67b471c2fb147c28f0ce424a5f42c2e1864"
    )
    assert sha256(out.read_bytes()) == (
        "3a2c56e67d0e5972a6305d27ea73b69f0de696e187e639ddd935370abeac182f"
    )


def test_density_document_bytes():
    grid = np.arange(-40, 41) / 16.0
    est = DensityEstimate(grid=grid, density=1.0 / (1.0 + grid * grid), bandwidth=0.25)
    digest = sha256(render_density(est).encode("utf-8"))
    assert digest == "e3784d6a33647c16e3de2be8b1d18afad3ddc549493bd93a65394ac76717e18c"
