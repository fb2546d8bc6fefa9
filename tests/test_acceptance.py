"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``ACCEPTANCE n (...): PASS`` line on success
(visible with ``pytest -s`` or in the captured output); a failing
criterion fails its test, so ``pytest -v tests/test_acceptance.py`` is
the per-criterion pass/fail report.
"""

from __future__ import annotations

import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from effectprob.cli import main, parse_summary_line
from effectprob.diagnostics import ess, split_rhat
from effectprob.draws import Draws, view
from effectprob.io import read_draws, write_draws
from effectprob.regress import Dataset, ModelSpec, PriorSpec, fit, simulate_experiment
from effectprob.render import ccdf_axis_maps, density_axis_maps, render_ccdf, render_density
from effectprob.summary import ccdf, kde, prob_below, prob_between, prob_exceeds

from conftest import make_view
from posterior_oracle import exact_posterior, standard_errors_off

Z_975 = 1.959963984540054
P_ABOVE_0 = 0.8413447460685429
P_BETWEEN_1_3 = 0.4772498680518208


def _cli(*argv: str, capsys) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_figure1_table1_reproduction(tmp_path, capsys):
    started = time.perf_counter()
    draws_path = tmp_path / "figure1.csv"
    code, _ = _cli("simulate", "--preset", "figure1", "--seed", "1",
                   "--out", str(draws_path), capsys=capsys)
    assert code == 0
    code, stdout = _cli("summarize", str(draws_path), capsys=capsys)
    assert code == 0
    machine = [l for l in stdout.splitlines() if l.startswith("summary ")][0]
    name, s = parse_summary_line(machine)
    assert name == "theta"
    assert abs(s.mean - 1.0) <= 0.04
    assert abs(s.ci_low - (1.0 - Z_975)) <= 0.08
    assert abs(s.ci_high - (1.0 + Z_975)) <= 0.08
    assert abs(s.p_greater_zero - P_ABOVE_0) <= 0.011

    v = view(read_draws(draws_path), "theta")
    assert abs(prob_between(v, 1.0, 3.0) - P_BETWEEN_1_3) <= 0.015

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (figure1/table1 reproduction, {elapsed:.2f}s): PASS")


def test_criterion_2_exact_ecdf_oracle():
    rng = np.random.default_rng(2025)
    for case in range(1000):
        n = int(rng.integers(2, 1001))
        kind = case % 3
        if kind == 0:
            values = rng.normal(rng.normal(), rng.uniform(0.5, 3.0), size=n)
        elif kind == 1:
            values = rng.integers(-4, 5, size=n).astype(float)
        else:
            values = rng.standard_t(3, size=n) * 10.0
        v = make_view(values.reshape(1, -1))

        x = float(rng.choice(values)) if rng.random() < 0.4 else float(rng.normal(0, 5))
        above = sum(1 for u in values if u > x)
        below = sum(1 for u in values if u < x)
        assert prob_exceeds(v, x) == above / n
        assert prob_below(v, x) == below / n

        a, b = sorted((float(rng.normal(0, 5)), float(rng.normal(0, 5))))
        if a < b:
            ca = sum(1 for u in values if u > a)
            cb = sum(1 for u in values if u > b)
            assert prob_between(v, a, b) == (ca - cb) / n

        curve = ccdf(v)
        assert (np.diff(curve.positive_probabilities) <= 0.0).all()
        assert (np.diff(curve.negative_probabilities) >= 0.0).all()
    print("ACCEPTANCE 2 (exact ECDF oracle, 1000 cases): PASS")


def test_criterion_3_sampler_correctness():
    # The full kernel, sigma sampled, against the exact posterior
    # (tests/posterior_oracle.py) in three regimes: the application
    # dataset; its outcome scaled by 1e8, where the priors dominate; and
    # a small dataset under nearly flat coefficient priors.
    started = time.perf_counter()
    application = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
    rng = np.random.default_rng(2024)
    d = rng.permutation(np.repeat([1, 0], 30))
    small = Dataset(outcome=1.0 + 2.0 * d + rng.normal(0.0, 1.5, size=60), treatment=d)
    regimes = {
        "application": (application, PriorSpec()),
        "outcome x 1e8": (
            Dataset(outcome=application.outcome * 1e8, treatment=application.treatment),
            PriorSpec(),
        ),
        "n = 60, prior sd 1e6": (small, PriorSpec(0.0, 1e6, 0.0, 1e6)),
    }
    # Oracle values (P(beta1 < 0), E[beta1], E[sigma]) to the digits given.
    printed = {
        "application": ((0.946701, 5e-7), (-2.28296, 5e-6), (23.28619, 5e-6)),
        "outcome x 1e8": ((0.496871, 5e-7), (0.0392112, 5e-8), (3.994558e7, 0.5)),
    }
    for regime, (data, priors) in regimes.items():
        exact = exact_posterior(data, priors)
        got = (exact.p_beta1_below_zero, exact.beta1.mean, exact.sigma.mean)
        for value, (target, tolerance) in zip(got, printed.get(regime, ())):
            assert abs(value - target) <= tolerance, (regime, value, target)
        for seed in (42, 43):
            result = fit(data, ModelSpec(priors=priors, seed=seed))
            for statistic, z in standard_errors_off(result, exact).items():
                assert abs(z) < 4.0, (regime, seed, statistic, z)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 (sampler vs exact posterior, {elapsed:.1f}s): PASS")


def test_criterion_4_application_replication(tmp_path, capsys):
    # The published posterior itself is not reproducible (the original
    # survey data is unavailable), so this is a synthetic-data property
    # check: residual sd 24 back-solved from the reported interval
    # half-width, simulation seeds chosen so the realized group-mean
    # difference lands on the target effect.
    started = time.perf_counter()

    # Bombing arm through the zero-configuration CLI path (the simulate
    # and fit defaults are the replication protocol).
    data_path = tmp_path / "bombing.csv"
    draws_path = tmp_path / "bombing_draws.csv"
    svg_path = tmp_path / "bombing.svg"
    code, _ = _cli("simulate", "--seed", "109", "--out", str(data_path), capsys=capsys)
    assert code == 0
    code, stdout = _cli("fit", str(data_path), "--seed", "42", "--out", str(draws_path), capsys=capsys)
    assert code == 0
    assert "N = 996" in stdout
    machine = dict(
        parse_summary_line(l) for l in stdout.splitlines() if l.startswith("summary ")
    )
    beta1 = machine["beta1"]
    assert abs(beta1.mean - (-2.49)) <= 0.5
    assert abs(beta1.p_less_zero - 0.95) <= 0.03
    assert abs(beta1.ci_low - (-5.48)) <= 0.5
    assert abs(beta1.ci_high - 0.49) <= 0.5

    code, stdout = _cli("ccdf", str(draws_path), "--param", "beta1",
                        "--out", str(svg_path), capsys=capsys)
    assert code == 0
    printed_below = float(
        [l for l in stdout.splitlines() if l.startswith("P(beta1<0)")][0].split(" = ")[1]
    )
    assert abs(printed_below - 0.95) <= 0.03
    assert svg_path.exists()

    # Occupation arm through the library path.
    data = simulate_experiment(985, 52.0, -0.53, 24.0, seed=55)
    result = fit(data, ModelSpec(seed=42))
    assert result.draws.values.shape[2] == 9000
    v = view(result.draws, "beta1")
    assert abs(v.pooled.mean() - (-0.53)) <= 0.5
    assert abs(prob_below(v, 0.0) - 0.64) <= 0.04
    for name in result.draws.parameter_names:
        assert split_rhat(view(result.draws, name)) < 1.01, name

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"ACCEPTANCE 4 (application replication at desk scale, {elapsed:.1f}s): PASS")


def test_criterion_5_diagnostics():
    rng = np.random.default_rng(5)

    iid = make_view(rng.standard_normal((4, 2500)))
    assert split_rhat(iid) < 1.01
    assert abs(ess(iid) - 10_000) <= 0.10 * 10_000

    shifted = rng.standard_normal((2, 1000))
    shifted[1] += 5.0
    assert split_rhat(make_view(shifted)) > 1.5

    phi = 0.9
    n = 100_000
    x = np.empty(n)
    x[0] = rng.standard_normal()
    innovations = rng.standard_normal(n) * math.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        x[i] = phi * x[i - 1] + innovations[i]
    target = n * (1.0 - phi) / (1.0 + phi)
    assert abs(ess(make_view(x.reshape(1, -1))) - target) <= 0.25 * target
    print("ACCEPTANCE 5 (rhat and ESS behavior): PASS")


def test_criterion_6_rendering(normal_draws):
    curve = ccdf(normal_draws)
    density = kde(normal_draws)
    curve_svg = render_ccdf(curve)
    density_svg = render_density(density)

    for svg in (curve_svg, density_svg):
        ET.fromstring(svg)  # well-formed XML
    assert curve_svg == render_ccdf(curve)  # byte-deterministic
    assert density_svg == render_density(density)

    labels = [el.text for el in ET.fromstring(curve_svg).iter("{http://www.w3.org/2000/svg}text")]
    assert "near 0%" in labels and "near 100%" in labels

    xmap, ymap = ccdf_axis_maps(curve)
    polys = list(ET.fromstring(curve_svg).iter("{http://www.w3.org/2000/svg}polyline"))
    branches = [
        (curve.negative_thresholds, curve.negative_probabilities),
        (curve.positive_thresholds, curve.positive_probabilities),
    ]
    assert len(polys) == 2
    for poly, (xs, ps) in zip(polys, branches):
        points = [tuple(map(float, token.split(","))) for token in poly.attrib["points"].split()]
        assert len(points) == len(xs)
        for (px, py), x, p in zip(points, xs, ps):
            assert abs(xmap.to_data(px) - float(x)) <= 1e-9
            assert abs(ymap.to_data(py) - float(p)) <= 1e-9

    dmapx, dmapy = density_axis_maps(density)
    poly = list(ET.fromstring(density_svg).iter("{http://www.w3.org/2000/svg}polyline"))[0]
    points = [tuple(map(float, token.split(","))) for token in poly.attrib["points"].split()]
    for (px, py), x, dens in zip(points, density.grid, density.density):
        assert abs(dmapx.to_data(px) - float(x)) <= 1e-9
        assert abs(dmapy.to_data(py) - float(dens)) <= 1e-9
    print("ACCEPTANCE 6 (SVG well-formedness, determinism, inversion): PASS")


def test_criterion_7_interchange_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    values = np.empty(10_000)
    filled = 0
    while filled < len(values):
        bits = rng.integers(0, 2**64, size=len(values), dtype=np.uint64)
        doubles = bits.view(np.float64)
        good = doubles[np.isfinite(doubles)]
        take = min(len(good), len(values) - filled)
        values[filled : filled + take] = good[:take]
        filled += take

    draws = Draws(("x",), values.reshape(1, 4, 2500))
    path = tmp_path / "draws.csv"
    write_draws(draws, path)
    back = read_draws(path)
    assert back.values.tobytes() == draws.values.tobytes()
    print("ACCEPTANCE 7 (bit-exact draws round trip): PASS")
