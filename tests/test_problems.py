"""Benchmark problem definitions: analytic functions, GP-sample functions,
threshold calibration and the registry."""

import numpy as np
import pytest

from reference import calibrate_threshold
from relbo.numerics import SobolStream
from relbo.problems import (
    PROBLEM_NAMES,
    OutOfDomainError,
    Problem,
    get_problem,
    gp_sample_fn,
    make_gp_problem,
)


class TestAnalyticValues:
    def test_branin_global_minimum(self):
        prob = get_problem("branin-2d")
        got = prob.evaluate(np.array([[np.pi, 2.275]]))[0]
        assert abs(got - 0.3978874) < 1e-6

    def test_branin_other_minima(self):
        prob = get_problem("branin-2d")
        for pt in ([-np.pi, 12.275], [9.42478, 2.475]):
            assert abs(prob.evaluate(np.array([pt]))[0] - 0.3978874) < 1e-4

    def test_quadratic_minimum(self):
        prob = get_problem("quadratic-2d")
        assert prob.evaluate(np.array([[0.3, 0.3]]))[0] == 0.0
        got = prob.evaluate(np.array([[0.4, 0.2]]))[0]
        assert abs(got - 0.02) < 1e-12

    def test_six_hump_camel_minimum(self):
        prob = get_problem("six-hump-camel-2d")
        got = prob.evaluate(np.array([[0.0898, -0.7126]]))[0]
        assert abs(got - (-1.0316)) < 1e-4

    def test_ackley_minimum(self):
        prob = get_problem("ackley-2d")
        got = prob.evaluate(np.array([[0.0, 0.0]]))[0]
        assert abs(got) < 1e-12

    def test_styblinski_tang_minimum(self):
        prob = get_problem("styblinski-tang-2d")
        x_star = np.full((1, 2), -2.903534)
        assert abs(prob.evaluate(x_star)[0] - (-78.33233)) < 1e-4
        prob10 = get_problem("styblinski-tang-10d")
        x_star = np.full((1, 10), -2.903534)
        assert abs(prob10.evaluate(x_star)[0] - 5 * (-78.33233)) < 1e-3

    def test_hartmann_minimum(self):
        prob = get_problem("hartmann-6d")
        x_star = np.array(
            [[0.20169, 0.150011, 0.476874, 0.275332, 0.311652, 0.6573]]
        )
        assert abs(prob.evaluate(x_star)[0] - (-3.32237)) < 1e-4


class TestRegistryTable:
    def test_branin_settings(self):
        prob = get_problem("branin-2d")
        np.testing.assert_array_equal(prob.bounds, [[-5.0, 10.0], [0.0, 15.0]])
        assert prob.c == 60.0 and prob.n_0 == 6
        assert abs(prob.eps_s - 0.21) < 1e-12
        assert prob.delta_band == 10.0
        np.testing.assert_array_equal(prob.perturb.sigmas, [0.8, 0.8])

    def test_non_extreme_sigmas(self):
        assert np.all(get_problem("branin-2d", mode="non_extreme").perturb.sigmas == 2.5)
        camel = get_problem("six-hump-camel-2d", mode="non_extreme")
        np.testing.assert_array_equal(camel.perturb.sigmas, [0.6, 0.3])

    def test_styblinski_tang_10d_settings(self):
        prob = get_problem("styblinski-tang-10d")
        assert prob.n_0 == 50 and prob.c == -300.0
        assert abs(prob.eps_s - 0.32) < 1e-12
        np.testing.assert_array_equal(
            prob.perturb.sigmas, [0.4] * 3 + [0.1] * 7
        )

    def test_cropped_variant_bounds(self):
        prob = get_problem("styblinski-tang-10d-cropped")
        want = [[-5.0, 0.0]] + [[-5.0, 5.0]] * 3 + [[-5.0, 0.0]] * 6
        np.testing.assert_array_equal(prob.bounds, want)
        assert abs(prob.eps_s - 0.22) < 1e-12

    def test_hartmann_variants(self):
        low = get_problem("hartmann-6d")
        high = get_problem("hartmann-6d-high")
        assert low.c == -1.0 and high.c == -0.05
        assert np.all(low.perturb.sigmas == 0.05)
        assert np.all(high.perturb.sigmas == 0.07)
        assert np.all(
            get_problem("hartmann-6d-high", mode="non_extreme").perturb.sigmas == 0.18
        )

    def test_default_tau_by_mode(self):
        assert get_problem("branin-2d").default_tau == 3.0
        assert get_problem("branin-2d", mode="non_extreme").default_tau == 1.0

    def test_eps_s_consistency_enforced(self):
        base = get_problem("quadratic-2d")
        with pytest.raises(ValueError):
            Problem(
                name="bad",
                dim=2,
                bounds=base.bounds,
                c=base.c,
                perturb=base.perturb,
                n_0=base.n_0,
                eps_s=10 * base.eps_s,
                delta_band=base.delta_band,
                mode=base.mode,
                _fn=base._fn,
            )

    @pytest.mark.parametrize(
        "c, side", [(np.inf, [0.0, 1.0]), (-np.inf, [0.0, 1.0]), (np.nan, [0.0, 1.0]),
                    (0.09, [0.5, 0.5]), (0.09, [1.0, 0.0])],
    )
    def test_non_finite_threshold_or_empty_side_rejected(self, c, side):
        # Either would otherwise load and fail at the first acquisition.
        base = get_problem("quadratic-2d")
        with pytest.raises(ValueError, match="finite c and lo < hi"):
            Problem("bad", 2, [[0.0, 1.0], side], c, base.perturb, base.n_0, base.eps_s,
                    base.delta_band, base.mode, base._fn)

    def test_all_names_constructible(self):
        for name in PROBLEM_NAMES:
            for mode in ("extreme", "non_extreme"):
                prob = get_problem(name, mode=mode)
                mid = prob.bounds.mean(axis=1)[None, :]
                assert np.isfinite(prob.evaluate(mid)[0])

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_problem("rosenbrock-2d")

    @pytest.mark.parametrize("name", ["gp-2", "gp-02d", "gp-2dd", "gp-x"])
    def test_gp_aliases_rejected_with_the_known_names(self, name):
        # An alias of gp-2d would run it under a config hash of its own.
        with pytest.raises(KeyError, match="known: .*'gp-2d'"):
            get_problem(name)


class TestDomainChecks:
    def test_out_of_domain_raises(self):
        prob = get_problem("quadratic-2d")
        with pytest.raises(OutOfDomainError):
            prob.evaluate(np.array([[1.5, 0.5]]))

    def test_unchecked_extends_outside(self):
        prob = get_problem("quadratic-2d")
        got = prob.evaluate_unchecked(np.array([[1.5, 0.5]]))[0]
        assert abs(got - ((1.2) ** 2 + 0.2**2)) < 1e-12


class TestGPProblems:
    def test_sample_fn_deterministic(self):
        fa = gp_sample_fn(2, 145)
        fb = gp_sample_fn(2, 145)
        probe = SobolStream(2, scramble_seed=0).take(100) * 2.0 - 1.0
        np.testing.assert_array_equal(fa(probe), fb(probe))

    def test_failure_fraction_near_one_third(self):
        prob = make_gp_problem(2)
        pts = prob.bounds[:, 0] + SobolStream(2, scramble_seed=1).take(2**16) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        frac = float(np.mean(prob.evaluate(pts) > prob.c))
        assert abs(frac - 0.33) < 0.03

    def test_path_variance_near_target(self):
        prob = make_gp_problem(2)
        pts = prob.bounds[:, 0] + SobolStream(2, scramble_seed=2).take(2**14) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        var = float(np.var(prob.evaluate(pts)))
        assert 75.0 <= var <= 125.0

    def test_non_extreme_mode_widens_perturbations(self):
        ext = make_gp_problem(2, mode="extreme")
        non = make_gp_problem(2, mode="non_extreme")
        assert np.all(non.perturb.sigmas > ext.perturb.sigmas)
        assert non.default_tau == 1.0


class TestCalibrateThreshold:
    def test_linear_function_median(self):
        c = calibrate_threshold(
            lambda x: x[:, 0], np.array([[0.0, 1.0], [0.0, 1.0]]), 0.5
        )
        assert abs(c - 0.5) < 0.01

    def test_gp_problem_threshold_recovered(self):
        prob = make_gp_problem(2)
        c = calibrate_threshold(prob.evaluate_unchecked, prob.bounds, 0.33)
        assert abs(c - prob.c) < 0.2

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            calibrate_threshold(lambda x: x[:, 0], np.array([[0.0, 1.0]]), 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold(lambda x: x[:, 0], np.array([[0.0, 1.0]]), 1.0)
