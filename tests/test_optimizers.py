"""Inner-loop optimizers: multi-start quasi-Newton, Boltzmann restart
selection, and the derivative-free rectangle search."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from relbo.numerics import SobolStream
from relbo.optimizers import boltzmann_restarts, direct_maximize, multistart_qn
from relbo.problems import get_problem


def quadratic_bowl(m):
    m = np.asarray(m, float)

    def evaluate(x):
        return float(np.sum((x - m) ** 2)), 2.0 * (x - m)

    return evaluate


class TestMultistartQn:
    def test_convex_quadratic(self):
        x, v, _ = multistart_qn(
            quadratic_bowl([0.3, 0.7]), [[0, 1], [0, 1]], [np.array([0.9, 0.1])]
        )
        np.testing.assert_allclose(x, [0.3, 0.7], atol=1e-6)
        assert v < 1e-10

    def test_projects_exterior_optimum(self):
        x, _, _ = multistart_qn(
            quadratic_bowl([1.5, -0.2]), [[0, 1], [0, 1]], [np.array([0.5, 0.5])]
        )
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-6)

    def test_branin_global_minimum(self):
        prob = get_problem("branin-2d")

        def evaluate(x):
            # Central finite differences of the analytic Branin formula are
            # accurate enough to drive the quasi-Newton iterations here.
            v = float(prob.evaluate(x[None, :])[0])
            g = np.empty(2)
            for j in range(2):
                xp, xm = x.copy(), x.copy()
                xp[j] += 1e-6
                xm[j] -= 1e-6
                lo, hi = prob.bounds[j]
                xp[j], xm[j] = min(xp[j], hi), max(xm[j], lo)
                g[j] = (
                    prob.evaluate(xp[None, :])[0] - prob.evaluate(xm[None, :])[0]
                ) / (xp[j] - xm[j])
            return v, g

        starts = prob.bounds[:, 0] + SobolStream(2, scramble_seed=4).take(10) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        _, v, _ = multistart_qn(evaluate, prob.bounds, list(starts))
        assert abs(v - 0.397887) < 1e-3

    def test_result_inside_bounds(self):
        x, _, _ = multistart_qn(
            quadratic_bowl([2.0, 2.0]), [[0, 1], [0, 1]], [np.array([0.1, 0.9])]
        )
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_descends_from_every_start(self):
        starts = [np.array([0.9, 0.9]), np.array([0.05, 0.5])]
        bowl = quadratic_bowl([0.4, 0.4])
        _, v, _ = multistart_qn(bowl, [[0, 1], [0, 1]], starts)
        assert v <= min(bowl(s)[0] for s in starts)

    def test_maximize_sense(self):
        def evaluate(x):
            return -float(np.sum((x - 0.6) ** 2)), -2.0 * (x - 0.6)

        x, v, _ = multistart_qn(evaluate, [[0, 1]], [np.array([0.1])], sense="max")
        np.testing.assert_allclose(x, [0.6], atol=1e-6)
        assert abs(v) < 1e-10

    def test_nan_gradient_start_abandoned(self, caplog):
        def evaluate(x):
            if x[0] < 0.1:
                return np.nan, np.array([np.nan])
            return float((x[0] - 0.7) ** 2), np.array([2 * (x[0] - 0.7)])

        x, _, diags = multistart_qn(evaluate, [[0, 1]], [np.array([0.05]), np.array([0.9])])
        np.testing.assert_allclose(x, [0.7], atol=1e-6)
        assert any(d.status == "nan-gradient" for d in diags)

    def test_all_starts_failing_raises(self):
        def evaluate(x):
            return np.nan, np.array([np.nan])

        with pytest.raises(RuntimeError):
            multistart_qn(evaluate, [[0, 1]], [np.array([0.5])])

    def test_sense_validation(self):
        with pytest.raises(ValueError):
            multistart_qn(quadratic_bowl([0.0]), [[0, 1]], [np.array([0.5])], sense="up")


class TestBoltzmannRestarts:
    def test_single_candidate(self):
        got = boltzmann_restarts(np.array([[0.4]]), np.array([1.0]), 1, 0)
        np.testing.assert_array_equal(got, [[0.4]])

    def test_argmax_always_included(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            cands = rng.uniform(size=(32, 2))
            vals = rng.normal(size=32)
            got = boltzmann_restarts(cands, vals, 4, trial)
            best = cands[np.argmax(vals)]
            assert any(np.array_equal(row, best) for row in got)

    def test_dominant_value_selected(self):
        cands = np.array([[0.0], [1.0]])
        got = boltzmann_restarts(cands, np.array([0.0, 100.0]), 1, 3)
        np.testing.assert_array_equal(got, [[1.0]])

    def test_inclusion_monotone_in_rank(self):
        rng = np.random.default_rng(1)
        n = 256
        cands = np.arange(n, dtype=float)[:, None]
        vals = rng.normal(size=n)
        counts = np.zeros(n)
        for trial in range(2000):
            got = boltzmann_restarts(cands, vals, 10, trial)
            counts[got[:, 0].astype(int)] += 1
        rho, _ = spearmanr(vals, counts)
        assert rho > 0.9

    def test_neg_inf_gets_probability_zero(self):
        cands = np.array([[0.0], [1.0], [2.0]])
        vals = np.array([-np.inf, 0.0, 1.0])
        for trial in range(20):
            got = boltzmann_restarts(cands, vals, 2, trial)
            assert 0.0 not in got[:, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            boltzmann_restarts(np.zeros((4, 1)), np.zeros(4), 8, 0)
        with pytest.raises(ValueError):
            boltzmann_restarts(np.zeros((2, 1)), np.array([np.nan, 0.0]), 1, 0)


class TestDirectMaximize:
    def test_constant_objective_returns_interior_point(self):
        x, v = direct_maximize(lambda x: 1.0, np.array([[0.0, 1.0], [0.0, 1.0]]), 100)
        assert v == 1.0
        assert np.all(x >= 0.0) and np.all(x <= 1.0)

    def test_one_dimensional_kink(self):
        x, _ = direct_maximize(lambda x: -abs(x[0] - 0.25), np.array([[0.0, 1.0]]), 100)
        assert abs(x[0] - 0.25) < 0.01

    def test_beats_sobol_scan_on_nonsmooth_objective(self):
        # Anchors near the corners put the maximin point in the interior,
        # where DIRECT's rectangle centers can reach it.
        anchors = np.array([[0.05, 0.05], [0.95, 0.1], [0.1, 0.9], [0.9, 0.95]])

        def min_dist(x):
            return float(np.min(np.linalg.norm(anchors - x, axis=1)))

        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        _, v = direct_maximize(min_dist, bounds, 2000)
        scan = SobolStream(2).take(1000)
        scan_best = max(min_dist(p) for p in scan)
        assert v >= scan_best

    def test_determinism(self):
        fn = lambda x: -float(np.sum(np.sin(5 * x)))
        bounds = np.array([[0.0, 2.0], [0.0, 2.0]])
        a = direct_maximize(fn, bounds, 200)
        b = direct_maximize(fn, bounds, 200)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            direct_maximize(lambda x: 0.0, np.array([[0.0, 1.0]]), 2)
