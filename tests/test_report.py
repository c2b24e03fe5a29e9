"""Result aggregation: checkpoint extraction, quartile curves, CSV round
trips, the SVG figure and the markdown summary."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from reference import read_curves_csv
from relbo.harness import TraceWriter
from relbo.report import (
    LOG_FLOOR,
    AggregateCurve,
    aggregate,
    aggregate_traces,
    checkpoint_series,
    emit_plot,
    write_curves_csv,
    write_summary,
)


def make_trace(tmp_path, name, checkpoints, repeat=0):
    """checkpoints: list of (n, p_true)."""
    path = tmp_path / name
    w = TraceWriter(path, 2)
    w.start()
    w.append(repeat, 1, "init", y=[0.1, 0.1], v=0.5)
    for n, p in checkpoints:
        w.append(
            repeat, n, "iter", y=[0.2, 0.2], v=0.4,
            x_rec=[0.3, 0.3], p_hat=p, p_true=p, wall_ms=1.0,
        )
    w.finish(repeat)
    return path


class TestCheckpointSeries:
    def test_extracts_scored_iterations_only(self, tmp_path):
        path = tmp_path / "t.csv"
        w = TraceWriter(path, 1)
        w.start()
        w.append(0, 1, "init", y=[0.1], v=0.5)
        w.append(0, 2, "iter", y=[0.2], v=0.4)  # unscored iteration
        w.append(0, 3, "iter", y=[0.3], v=0.3, x_rec=[0.5], p_hat=1e-3, p_true=2e-3)
        w.finish(0)
        ns, ps = checkpoint_series(path)
        np.testing.assert_array_equal(ns, [3])
        np.testing.assert_allclose(ps, [2e-3])

    def test_clamps_out_of_range_values(self, tmp_path):
        path = make_trace(tmp_path, "t.csv", [(7, -1e-9), (8, 1.5)])
        _, ps = checkpoint_series(path)
        assert ps[0] == 0.0 and ps[1] == 1.0


class TestAggregate:
    def test_single_series_identity(self):
        ns = np.array([5, 10])
        ps = np.array([1e-2, 1e-4])
        curve = aggregate([(ns, ps)], problem="p", algorithm="a")
        np.testing.assert_array_equal(curve.n_grid, ns)
        np.testing.assert_allclose(curve.median, ps)
        np.testing.assert_allclose(curve.lower, ps)
        np.testing.assert_allclose(curve.upper, ps)
        assert curve.n_repeats == 1

    def test_median_of_three(self):
        ns = np.array([10])
        series = [(ns, np.array([p])) for p in (1e-3, 1e-5, 1e-4)]
        curve = aggregate(series)
        assert curve.median[0] == pytest.approx(1e-4)

    def test_quartiles_match_interpolation_oracle(self):
        rng = np.random.default_rng(0)
        ns = np.array([1, 2, 3])
        data = 10 ** rng.uniform(-6, -1, size=(30, 3))
        curve = aggregate([(ns, row) for row in data])

        def quantile_oracle(col, q):
            s = np.sort(col)
            pos = q * (len(s) - 1)
            lo = int(np.floor(pos))
            hi = int(np.ceil(pos))
            return s[lo] + (pos - lo) * (s[hi] - s[lo])

        for j in range(3):
            assert curve.lower[j] == pytest.approx(quantile_oracle(data[:, j], 0.25), rel=1e-12)
            assert curve.median[j] == pytest.approx(quantile_oracle(data[:, j], 0.5), rel=1e-12)
            assert curve.upper[j] == pytest.approx(quantile_oracle(data[:, j], 0.75), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        ns = np.array([1, 2])
        series = [(ns, rng.uniform(size=2)) for _ in range(9)]
        a = aggregate(series)
        b = aggregate(series[::-1])
        np.testing.assert_array_equal(a.median, b.median)
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)

    def test_mismatched_grid_rejected(self):
        with pytest.raises(ValueError, match="mismatched n grid"):
            aggregate(
                [
                    (np.array([1, 2]), np.array([0.1, 0.2])),
                    (np.array([1, 3]), np.array([0.1, 0.2])),
                ]
            )

    def test_quartile_order_enforced(self):
        with pytest.raises(ValueError):
            AggregateCurve(
                problem="p",
                algorithm="a",
                n_grid=np.array([1]),
                median=np.array([0.1]),
                lower=np.array([0.5]),
                upper=np.array([0.2]),
                n_repeats=3,
            )

    def test_aggregate_traces(self, tmp_path):
        p1 = make_trace(tmp_path, "a.csv", [(7, 1e-2), (8, 1e-3)])
        p2 = make_trace(tmp_path, "b.csv", [(7, 1e-4), (8, 1e-5)], repeat=1)
        curve = aggregate_traces([p1, p2], "quadratic-2d", "sobol")
        np.testing.assert_array_equal(curve.n_grid, [7, 8])
        assert curve.n_repeats == 2
        # Linear interpolation between two repeats: the arithmetic mean.
        assert curve.median[0] == pytest.approx((1e-2 + 1e-4) / 2)
        assert curve.median[1] == pytest.approx((1e-3 + 1e-5) / 2)


class TestCsvRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        curves = []
        for algo in ("sobol", "ei"):
            data = np.sort(10 ** rng.uniform(-8, 0, size=(3, 4)), axis=0)
            curves.append(
                AggregateCurve(
                    problem="branin-2d",
                    algorithm=algo,
                    n_grid=np.array([6, 8, 10, 12]),
                    median=data[1],
                    lower=data[0],
                    upper=data[2],
                    n_repeats=5,
                )
            )
        path = tmp_path / "curves.csv"
        write_curves_csv(curves, path)
        back = read_curves_csv(path)
        assert len(back) == 2
        for orig, got in zip(curves, back):
            assert got.problem == orig.problem and got.algorithm == orig.algorithm
            np.testing.assert_array_equal(got.n_grid, orig.n_grid)
            np.testing.assert_array_equal(got.median, orig.median)
            np.testing.assert_array_equal(got.lower, orig.lower)
            np.testing.assert_array_equal(got.upper, orig.upper)
            assert got.n_repeats == orig.n_repeats


def demo_curves():
    curves = []
    for problem in ("branin-2d", "quadratic-2d"):
        for algo, scale in (("sobol", 1e-2), ("kg_mr_oneshot", 1e-4)):
            ns = np.array([6, 8, 10])
            med = scale * np.array([3.0, 2.0, 1.0])
            curves.append(
                AggregateCurve(
                    problem=problem,
                    algorithm=algo,
                    n_grid=ns,
                    median=med,
                    lower=0.5 * med,
                    upper=2.0 * med,
                    n_repeats=5,
                )
            )
    return curves


class TestFigure:
    def test_svg_well_formed_with_expected_traces(self, tmp_path):
        curves = demo_curves()
        svg_path, csv_path = emit_plot(
            curves, tmp_path / "fig.svg", csv_path=tmp_path / "curves.csv"
        )
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        polylines = root.iter("{http://www.w3.org/2000/svg}polyline")
        assert sum(1 for _ in polylines) >= len(curves)
        assert csv_path.exists()

    def test_zero_probability_clamped_to_log_floor(self, tmp_path):
        ns = np.array([6, 8])
        zeros = np.zeros(2)
        curve = AggregateCurve(
            problem="branin-2d", algorithm="sobol", n_grid=ns,
            median=zeros, lower=zeros, upper=zeros, n_repeats=2,
        )
        svg_path, _ = emit_plot([curve], tmp_path / "fig.svg")
        text = svg_path.read_text()
        assert "NaN" not in text and "nan" not in text and "inf" not in text
        assert LOG_FLOOR > 0


class TestSummary:
    def test_markdown_table_rows(self, tmp_path):
        path = tmp_path / "summary.md"
        write_summary(demo_curves(), path)
        text = path.read_text()
        for token in ("branin-2d", "quadratic-2d", "sobol", "kg_mr_oneshot"):
            assert token in text
        assert text.count("|") > 10
