"""Output checks. Each check is one operation toward ``failed_ratio``.

Reference values come from the benchmark's own reading of the files
(``numpy.loadtxt``), never from effectprob, so a defect in the program's
parser or counting cannot hide itself.
"""

from __future__ import annotations

import hashlib
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from workloads import PRIORS, Command

# The printed beta1 posterior mean must lie within this many posterior
# sds of the closed-form conjugate mean at the data's residual sd. The
# Monte Carlo error of 36k draws is under 0.01 sd, and averaging over
# sigma instead of fixing it moves the mean by about 0.01 sd at n=996.
BETA1_MEAN_TOLERANCE_SD = 0.1

_PROB_LINE = re.compile(r"^P\((?P<param>.+)(?P<op>[<>])0\) = (?P<value>\S+)$")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _summary_fields(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split()[1:])


class Checker:
    """Checks command results; caches what it reads from files by content hash."""

    def __init__(self) -> None:
        self._draws: dict[str, dict[str, tuple[int, int, int]]] = {}
        self._posterior: dict[str, tuple[float, float]] = {}
        self._svg: dict[str, str] = {}
        self.reference: dict[int, str] = {}

    def draw_counts(self, path: str) -> dict[str, tuple[int, int, int]]:
        """Per parameter: (draws, #draws > 0, #draws < 0)."""
        key = _sha256(path)
        if key not in self._draws:
            with open(path, encoding="utf-8") as handle:
                names = handle.readline().strip().split(",")[2:]
            values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2:]
            self._draws[key] = {
                name: (
                    values.shape[0],
                    int(np.count_nonzero(values[:, j] > 0)),
                    int(np.count_nonzero(values[:, j] < 0)),
                )
                for j, name in enumerate(names)
            }
        return self._draws[key]

    def conjugate_beta1(self, path: str) -> tuple[float, float]:
        """Posterior mean and sd of beta1 with sigma fixed at the OLS residual sd."""
        key = _sha256(path)
        if key not in self._posterior:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            y, d = data[:, 0], data[:, 1]
            treated = d == 1.0
            fitted = np.where(treated, y[treated].mean(), y[~treated].mean())
            sigma2 = float(((y - fitted) ** 2).sum()) / (len(y) - 2)
            n, n1 = len(y), int(treated.sum())
            p0 = 1.0 / PRIORS["beta0_sd"] ** 2
            p1 = 1.0 / PRIORS["beta1_sd"] ** 2
            precision = np.array([[n / sigma2 + p0, n1 / sigma2], [n1 / sigma2, n1 / sigma2 + p1]])
            shift = np.array([
                math.fsum(y) / sigma2 + PRIORS["beta0_mean"] * p0,
                math.fsum(y[treated]) / sigma2 + PRIORS["beta1_mean"] * p1,
            ])
            cov = np.linalg.inv(precision)
            self._posterior[key] = (float((cov @ shift)[1]), math.sqrt(cov[1, 1]))
        return self._posterior[key]

    def _svg_error(self, path: str) -> str:
        key = _sha256(path)
        if key not in self._svg:
            try:
                root = ET.fromstring(Path(path).read_bytes())
                self._svg[key] = "" if root.tag.endswith("svg") else f"root element {root.tag}"
            except ET.ParseError as exc:
                self._svg[key] = str(exc)
        return self._svg[key]

    def check(self, index: int, cmd: Command, code, stdout: str, stderr: str,
              outdir: str) -> list[tuple[str, bool, str]]:
        """Checks of the outputs of command ``index`` of the workload's sequence.

        The caller checks the exit code. The first result seen for an index
        becomes the reference that later passes of the same seed must
        reproduce byte for byte.
        """
        results = []
        lines = stdout.splitlines()

        if cmd.draws is not None:
            facts = self.draw_counts(cmd.draws)
            claims = []
            for line in lines:
                if m := _PROB_LINE.match(line):
                    column = 1 if m["op"] == ">" else 2
                    claims.append((m["param"], column, m["value"]))
                elif line.startswith("summary param="):
                    f = _summary_fields(line)
                    claims.append((f["param"], 1, f["p_greater_zero"]))
                    claims.append((f["param"], 2, f["p_less_zero"]))
            bad = [
                c for c in claims
                if c[0] not in facts or float(c[2]) != facts[c[0]][c[1]] / facts[c[0]][0]
            ]
            results.append(("exact_probabilities", bool(claims) and not bad,
                            f"{len(claims)} printed, mismatched {bad[:3]}"))

        if cmd.dataset is not None:
            mean, sd = self.conjugate_beta1(cmd.dataset)
            printed = [float(_summary_fields(l)["mean"]) for l in lines
                       if l.startswith("summary param=beta1 ")]
            ok = len(printed) == 1 and abs(printed[0] - mean) <= BETA1_MEAN_TOLERANCE_SD * sd
            results.append(("beta1_mean_vs_conjugate", ok,
                            f"printed {printed}, conjugate {mean:.6g} +- {sd:.3g}"))

        for out in cmd.outputs:
            if out.endswith(".svg"):
                err = self._svg_error(out) if Path(out).is_file() else "missing"
                results.append(("svg_parses", not err, f"{out}: {err}"))

        digest = hashlib.sha256()
        for part in (str(code), stdout.replace(outdir, "<out>"), stderr.replace(outdir, "<out>")):
            digest.update(part.encode("utf-8") + b"\0")
        for out in cmd.outputs:
            digest.update(_sha256(out).encode() if Path(out).is_file() else b"missing")
        digest = digest.hexdigest()
        if index in self.reference:
            results.append(("byte_identical", digest == self.reference[index],
                            f"{cmd.argv[0]} output differs from the first pass"))
        else:
            self.reference[index] = digest
        return results
