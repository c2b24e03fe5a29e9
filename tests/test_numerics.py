"""Low-level numerics: Sobol' streams, Box-Muller, special functions, row
blocks and the candidate pool."""

import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import kstest

import relbo.numerics as numerics
from reference import regularized_lower_gamma
from relbo.numerics import (
    MAX_SOBOL_DIM,
    SobolStream,
    box_muller,
    gaussian_qmc,
    in_blocks,
    parallel_map,
    std_normal_cdf,
    std_normal_log_cdf,
    std_normal_log_pdf,
    std_normal_pdf,
)


def log_phi_asymptotic(x):
    """Independent oracle for log Phi(-|x|) deep in the tail: the Mills-ratio
    asymptotic series Phi(-x) = phi(x)/x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...).
    """
    assert x >= 10
    series = 1.0 - 1.0 / x**2 + 3.0 / x**4 - 15.0 / x**6 + 105.0 / x**8
    return -0.5 * x**2 - 0.5 * np.log(2 * np.pi) - np.log(x) + np.log(series)


class TestSobolStream:
    def test_first_point_is_origin(self):
        assert np.array_equal(SobolStream(2).take(1), np.zeros((1, 2)))

    def test_second_point_is_midpoint(self):
        pts = SobolStream(2).take(2)
        assert np.array_equal(pts[1], [0.5, 0.5])

    def test_scrambled_mean_near_half(self):
        pts = SobolStream(8, scramble_seed=0).take(4096)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 0.01)

    def test_batching_invariance(self):
        a = SobolStream(3, scramble_seed=7)
        b = SobolStream(3, scramble_seed=7)
        got_a = np.vstack([a.take(1), a.take(4), a.take(11)])
        got_b = b.take(16)
        np.testing.assert_array_equal(got_a, got_b)

    @pytest.mark.parametrize("dim", [0, MAX_SOBOL_DIM + 1])
    def test_dimension_validation(self, dim):
        with pytest.raises(ValueError):
            SobolStream(dim)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            SobolStream(2).take(0)

    def test_skip_advances_cursor_like_take(self):
        a = SobolStream(2, scramble_seed=3)
        b = SobolStream(2, scramble_seed=3)
        a.take(5)
        b.skip(5)
        np.testing.assert_array_equal(a.take(3), b.take(3))


class TestBoxMuller:
    def test_exact_pair(self):
        # (e^{-1/2}, 0): r = sqrt(-2 ln e^{-1/2}) = 1, theta = 0 -> (1, 0).
        z = box_muller(np.array([[np.exp(-0.5), 0.0]]))
        np.testing.assert_allclose(z, [[1.0, 0.0]], atol=1e-14)

    def test_quarter_turn_zeroes_cosine(self):
        # theta = pi/2 makes the cosine output zero regardless of u1.
        for u1 in (0.1, 0.5, 0.9):
            z = box_muller(np.array([[u1, 0.25]]))
            assert abs(z[0, 0]) < 1e-14

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            box_muller(np.zeros((3, 3)))

    def test_zero_uniform_stays_finite(self):
        assert np.all(np.isfinite(box_muller(np.zeros((1, 2)))))

    def test_ks_against_standard_normal(self):
        u = SobolStream(2, scramble_seed=11).take(2**16)
        z = box_muller(u).ravel()
        assert kstest(z, "norm").pvalue > 0.001

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=99))
    @settings(max_examples=20, deadline=None)
    def test_output_finite_and_shaped(self, n, seed):
        u = np.random.default_rng(seed).uniform(1e-6, 1 - 1e-6, size=(n, 4))
        z = box_muller(u)
        assert z.shape == (n, 4) and np.all(np.isfinite(z))


class TestGaussianQmc:
    def test_tail_probability(self):
        z = gaussian_qmc(SobolStream(2, scramble_seed=1), 2**16, [1.0])
        p = np.mean(z[:, 0] >= 3.0)
        assert abs(p - 1.349898e-3) / 1.349898e-3 < 0.10

    def test_scale_applied(self):
        z = gaussian_qmc(SobolStream(4, scramble_seed=2), 2**12, [2.0, 0.5])
        np.testing.assert_allclose(z.mean(axis=0), [0.0, 0.0], atol=0.1)
        np.testing.assert_allclose(z.std(axis=0), [2.0, 0.5], rtol=0.05)

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            gaussian_qmc(SobolStream(2), 4, [0.0])

    def test_stream_dimension_check(self):
        with pytest.raises(ValueError):
            gaussian_qmc(SobolStream(2), 4, np.ones(3))


class TestInBlocks:
    def test_power_of_two_blocks_within_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "ELEMENT_BUDGET", 100)
        sizes = []

        def fn(rows):
            sizes.append(len(rows))
            return rows.sum(axis=1), rows[:, ::-1]

        rows = np.arange(60.0).reshape(30, 2)
        total, flipped = in_blocks(fn, rows, 7)  # 100 // 7 = 14 -> 8 rows
        assert sizes == [8, 8, 8, 6]
        np.testing.assert_array_equal(total, rows.sum(axis=1))
        np.testing.assert_array_equal(flipped, rows[:, ::-1])
        sizes.clear()
        in_blocks(fn, rows, 1000)  # wider than the budget: one row at a time
        assert sizes == [1] * 30

    def test_one_block_is_a_plain_call(self):
        rows = np.ones((5, 3))
        assert in_blocks(lambda r: r, rows, 3) is rows


def blas_thread_counts():
    counts = [get() for get, _ in numerics._blas_thread_counts()]
    if not counts:
        pytest.skip("no bundled OpenBLAS with a settable thread count")
    return counts


class TestParallelMap:
    on_pool = len(os.sched_getaffinity(0)) > 1

    def test_results_in_item_order(self):
        # Later items finish first.
        def task(i):
            time.sleep(0.002 * (20 - i))
            return i * i

        assert parallel_map(task, range(20)) == [i * i for i in range(20)]
        assert parallel_map(task, []) == []
        assert parallel_map(task, [3]) == [9]

    def test_nested_call_runs_inline(self):
        def task(i):
            inner = parallel_map(lambda j: threading.current_thread(), range(4))
            return threading.current_thread(), inner

        for outer, inner in parallel_map(task, range(4)):
            assert inner == [outer] * 4
            assert (outer is threading.main_thread()) is not self.on_pool

    def test_blas_held_at_one_thread_then_restored(self):
        before = blas_thread_counts()
        inside = parallel_map(lambda _: blas_thread_counts(), range(4))
        assert blas_thread_counts() == before
        if self.on_pool:
            assert inside == [[1] * len(before)] * 4

    def test_exception_reaches_caller_after_every_task(self):
        before = blas_thread_counts()
        done = []

        def task(i):
            if i == 1:
                raise ValueError("task 1")
            time.sleep(0.02)
            done.append(i)

        with pytest.raises(ValueError, match="task 1"):
            parallel_map(task, range(6))
        if self.on_pool:  # inline, the loop stops at the exception
            assert sorted(done) == [0, 2, 3, 4, 5]
        assert blas_thread_counts() == before

    def test_concurrent_callers_restore_blas_counts(self):
        # More callers than CPUs, switching threads often: each map's results
        # stay in order, and the counts come back when the last map leaves.
        before = blas_thread_counts()
        results = []

        def caller():
            for _ in range(50):
                results.append(parallel_map(abs, range(-8, 0)))

        callers = [threading.Thread(target=caller) for _ in range(4 * len(os.sched_getaffinity(0)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [list(range(8, 0, -1))] * (50 * len(callers))
        assert blas_thread_counts() == before

    @pytest.mark.skipif(not on_pool, reason="one CPU: every map runs inline")
    def test_no_thread_outlives_the_map(self):
        before = set(threading.enumerate())
        ran_on = parallel_map(lambda _: threading.current_thread(), range(8))
        assert threading.main_thread() not in ran_on
        assert not any(t.is_alive() for t in ran_on)
        assert set(threading.enumerate()) <= before

    @pytest.mark.skipif(not on_pool, reason="one CPU: every map runs inline")
    def test_map_started_while_the_pool_is_taken_runs_inline(self):
        # The first map's tasks hold every CPU until the second map returns.
        # Their waits are bounded, so a second map that queued behind them
        # fails instead of hanging.
        n_cpu = len(os.sched_getaffinity(0))
        holding, release = threading.Event(), threading.Event()

        def hold(_):
            holding.set()
            return release.wait(timeout=10)

        first = []
        other = threading.Thread(target=lambda: first.append(parallel_map(hold, range(n_cpu))))
        other.start()
        try:
            assert holding.wait(timeout=10)
            second = parallel_map(lambda i: (i, threading.current_thread()), range(4))
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert second == [(i, threading.main_thread()) for i in range(4)]
        assert first == [[True] * n_cpu]


class TestNormalFunctions:
    def test_cdf_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_cdf_at_one(self):
        oracle = 0.5 * (1 + erf(1 / np.sqrt(2)))
        assert abs(std_normal_cdf(1.0) - 0.8413447461) < 1e-9
        assert abs(std_normal_cdf(1.0) - oracle) < 1e-12

    def test_log_cdf_deep_tail(self):
        got = std_normal_log_cdf(-20.0)
        want = log_phi_asymptotic(20.0)
        assert np.isfinite(got)
        assert abs(got - want) / abs(want) < 1e-6

    def test_log_cdf_consistent_with_cdf(self):
        x = np.linspace(-8, 8, 200)
        np.testing.assert_allclose(
            np.exp(std_normal_log_cdf(x)), std_normal_cdf(x), rtol=1e-10
        )

    def test_pdf_matches_log_pdf(self):
        x = np.linspace(-10, 10, 101)
        np.testing.assert_allclose(std_normal_pdf(x), np.exp(std_normal_log_pdf(x)), rtol=1e-12)
        assert np.all(std_normal_pdf(x) >= 0)

    def test_nan_rejected(self):
        for fn in (std_normal_cdf, std_normal_log_cdf, std_normal_pdf, std_normal_log_pdf):
            with pytest.raises(ValueError):
                fn(np.nan)


class TestRegularizedLowerGamma:
    def test_zero(self):
        assert regularized_lower_gamma(0.5, 0.0) == 0.0

    def test_half_shape_at_one(self):
        assert abs(regularized_lower_gamma(0.5, 1.0) - 0.8427007929) < 1e-9

    def test_exponential_median(self):
        assert abs(regularized_lower_gamma(1.0, np.log(2.0)) - 0.5) < 1e-12

    def test_erf_identity(self):
        x = np.linspace(0.0, 30.0, 301)
        np.testing.assert_allclose(
            regularized_lower_gamma(0.5, x), erf(np.sqrt(x)), atol=1e-10
        )

    def test_monotone(self):
        x = np.linspace(0, 10, 500)
        assert np.all(np.diff(regularized_lower_gamma(1.7, x)) >= 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.5, -1.0)
