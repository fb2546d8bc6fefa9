from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from effectprob.errors import DegenerateDraws, EmptyCurve, InvalidArgument
from effectprob.render import (
    ccdf_axis_maps,
    density_axis_maps,
    render_ccdf,
    render_density,
)
from effectprob.summary import CcdfCurve, DensityEstimate, ccdf, kde

from conftest import make_view

SVG_NS = "{http://www.w3.org/2000/svg}"


def polylines(svg_text: str) -> list[list[tuple[float, float]]]:
    root = ET.fromstring(svg_text)
    out = []
    for poly in root.iter(f"{SVG_NS}polyline"):
        points = []
        for token in poly.attrib["points"].split():
            x, y = token.split(",")
            points.append((float(x), float(y)))
        out.append(points)
    return out


def texts(svg_text: str) -> list[str]:
    root = ET.fromstring(svg_text)
    return [el.text for el in root.iter(f"{SVG_NS}text")]


@pytest.fixture(scope="module")
def two_point_curve():
    return ccdf(make_view([[-1.0, 1.0]]))


@pytest.fixture(scope="module")
def normal_curve(normal_draws):
    return ccdf(normal_draws)


class TestRenderCcdf:
    def test_well_formed_xml_with_axis_labels(self, normal_curve):
        svg = render_ccdf(normal_curve, "Minimum change")
        labels = texts(svg)
        assert "Minimum change" in labels
        assert "Probability of a larger effect" in labels

    def test_two_polylines_for_two_branches(self, two_point_curve):
        svg = render_ccdf(two_point_curve)
        lines = polylines(svg)
        assert len(lines) == 2

    def test_positive_branch_endpoint_probabilities(self, two_point_curve):
        svg = render_ccdf(two_point_curve)
        xmap, ymap = ccdf_axis_maps(two_point_curve)
        positive = polylines(svg)[-1]  # rendered after the negative branch
        assert ymap.to_data(positive[0][1]) == pytest.approx(0.5, abs=1e-9)
        assert ymap.to_data(positive[-1][1]) == pytest.approx(0.0, abs=1e-9)
        assert xmap.to_data(positive[0][0]) == pytest.approx(0.0, abs=1e-9)
        assert xmap.to_data(positive[-1][0]) == pytest.approx(1.0, abs=1e-9)

    def test_normal_curve_reads_084_at_zero(self, normal_curve):
        svg = render_ccdf(normal_curve)
        xmap, ymap = ccdf_axis_maps(normal_curve)
        positive = polylines(svg)[-1]
        x0_px = xmap.to_px(0.0)
        at_zero = min(positive, key=lambda pt: abs(pt[0] - x0_px))
        assert ymap.to_data(at_zero[1]) == pytest.approx(0.84, abs=0.02)

    def test_coordinate_map_inversion(self, normal_curve):
        svg = render_ccdf(normal_curve)
        xmap, ymap = ccdf_axis_maps(normal_curve)
        neg, pos = polylines(svg)
        for branch, xs, ps in (
            (neg, normal_curve.negative_thresholds, normal_curve.negative_probabilities),
            (pos, normal_curve.positive_thresholds, normal_curve.positive_probabilities),
        ):
            assert len(branch) == len(xs)
            for (px, py), x, p in zip(branch, xs, ps):
                assert xmap.to_data(px) == pytest.approx(float(x), abs=1e-9)
                assert ymap.to_data(py) == pytest.approx(float(p), abs=1e-9)

    def test_vertices_inside_data_rectangle(self, normal_curve):
        svg = render_ccdf(normal_curve)
        xmap, ymap = ccdf_axis_maps(normal_curve)
        x_lo, x_hi = xmap.px_lo, xmap.px_hi
        y_lo, y_hi = min(ymap.px_lo, ymap.px_hi), max(ymap.px_lo, ymap.px_hi)
        for branch in polylines(svg):
            for px, py in branch:
                assert x_lo - 1e-9 <= px <= x_hi + 1e-9
                assert y_lo - 1e-9 <= py <= y_hi + 1e-9

    def test_byte_deterministic(self, normal_curve):
        assert render_ccdf(normal_curve) == render_ccdf(normal_curve)

    def test_near_labels_for_unbounded_posterior(self, normal_curve):
        labels = texts(render_ccdf(normal_curve))
        assert "near 0%" in labels
        assert "near 100%" in labels

    def test_empty_curve_rejected(self):
        curve = CcdfCurve(
            positive_thresholds=np.empty(0),
            positive_probabilities=np.empty(0),
            negative_thresholds=np.empty(0),
            negative_probabilities=np.empty(0),
        )
        with pytest.raises(EmptyCurve):
            render_ccdf(curve)

    @pytest.mark.parametrize("label", ["\x00", "a\x1fb", "\ud800", "\uffff"])
    def test_label_xml_forbids_rejected(self, normal_curve, normal_draws, label):
        with pytest.raises(InvalidArgument, match="which XML forbids$"):
            render_ccdf(normal_curve, x_label=label)
        with pytest.raises(InvalidArgument, match="which XML forbids$"):
            render_density(kde(normal_draws), x_label=label)

    @pytest.mark.parametrize("label", [3, None, b"Effect size"], ids=["int", "none", "bytes"])
    def test_label_that_is_not_a_str_rejected(self, normal_curve, normal_draws, label):
        with pytest.raises(InvalidArgument, match="^x_label: "):
            render_ccdf(normal_curve, x_label=label)
        with pytest.raises(InvalidArgument, match="^x_label: "):
            render_density(kde(normal_draws), x_label=label)

    def test_label_xml_allows_parses(self, normal_curve):
        # Tab, LF, CR, markup characters and non-ASCII text are all legal XML.
        label = "a\tb\nc\rd <&> \u00e9\u2028\U0001f600"
        assert ET.fromstring(render_ccdf(normal_curve, x_label=label)) is not None

    def test_single_branch_curve_renders(self):
        curve = ccdf(make_view([[1.0, 2.0, 3.0]]))
        assert len(polylines(render_ccdf(curve))) == 1


class TestOverflowingSpan:
    """An x span past the largest double would map every point to one edge."""

    def test_curve_over_overflowing_span_is_degenerate(self):
        curve = ccdf(make_view([[-1.7e308, 1.7e308, 1.0, 2.0]]))
        with pytest.raises(DegenerateDraws, match="x axis from"):
            ccdf_axis_maps(curve)
        with pytest.raises(DegenerateDraws):
            render_ccdf(curve)

    def test_density_over_overflowing_span_is_degenerate(self):
        est = DensityEstimate(
            grid=np.array([-1.7e308, 0.0, 1.7e308]), density=np.array([0.0, 1.0, 0.0]), bandwidth=1.0
        )
        with pytest.raises(DegenerateDraws, match="x axis from"):
            density_axis_maps(est)
        with pytest.raises(DegenerateDraws):
            render_density(est)

    def test_one_point_axis_too_far_out_to_widen_is_degenerate(self):
        # At |x| >= 2^53 widening by 0.5 rounds away, and to_px divided by zero.
        est = DensityEstimate(grid=np.array([1e20, 1e20]), density=np.ones(2), bandwidth=1.0)
        with pytest.raises(DegenerateDraws, match="x axis from"):
            density_axis_maps(est)
        with pytest.raises(DegenerateDraws):
            render_density(est)

    def test_largest_finite_span_still_renders(self):
        curve = ccdf(make_view([[-8e307, 8e307, 1.0, 2.0]]))
        xmap, _ = ccdf_axis_maps(curve)
        assert xmap.to_px(8e307) > xmap.to_px(-8e307)
        assert len(polylines(render_ccdf(curve))) == 2


class TestRenderDensity:
    def test_well_formed_and_labeled(self, normal_draws):
        svg = render_density(kde(normal_draws))
        assert "Density" in texts(svg)

    def test_single_polyline_over_grid(self, normal_draws):
        est = kde(normal_draws)
        lines = polylines(render_density(est))
        assert len(lines) == 1
        assert len(lines[0]) == 512

    def test_peak_near_one(self, normal_draws):
        est = kde(normal_draws)
        xmap, _ = density_axis_maps(est)
        line = polylines(render_density(est))[0]
        peak_px = min(line, key=lambda pt: pt[1])[0]  # smallest py = highest point
        assert xmap.to_data(peak_px) == pytest.approx(1.0, abs=0.15)

    def test_symmetric_density_symmetric_path(self):
        rng = np.random.default_rng(6)
        half = rng.normal(size=1500)
        est = kde(make_view(np.concatenate([half, -half]).reshape(1, -1)))
        line = polylines(render_density(est))[0]
        xs = [px for px, _ in line]
        ys = [py for _, py in line]
        center = (xs[0] + xs[-1]) / 2
        for i in range(len(line)):
            assert xs[i] - center == pytest.approx(center - xs[-1 - i], abs=1.0)
            assert ys[i] == pytest.approx(ys[-1 - i], abs=1.0)

    def test_inversion_and_determinism(self, normal_draws):
        est = kde(normal_draws)
        svg = render_density(est)
        assert svg == render_density(est)
        xmap, ymap = density_axis_maps(est)
        line = polylines(svg)[0]
        for (px, py), x, dens in zip(line, est.grid, est.density):
            assert xmap.to_data(px) == pytest.approx(float(x), abs=1e-9)
            assert ymap.to_data(py) == pytest.approx(float(dens), abs=1e-9)

    def test_all_zero_density_lies_on_the_x_axis(self):
        # A peak of 0 cannot scale the y axis, so it runs over [0, 1].
        est = DensityEstimate(np.linspace(-1.0, 1.0, 5), np.zeros(5), 0.1)
        xmap, ymap = density_axis_maps(est)
        assert (ymap.data_lo, ymap.data_hi) == (0.0, 1.0)
        svg = render_density(est)
        assert texts(svg)[:5] == ["0", "0.25", "0.5", "0.75", "1"]
        (line,) = polylines(svg)
        assert [py for _, py in line] == [ymap.to_px(0.0)] * 5
        assert [xmap.to_data(px) for px, _ in line] == pytest.approx(est.grid.tolist())
