"""Failure-probability estimators: importance sampling, bounds smoothing,
and the smoothed log-space estimators with their gradients."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import erf, gammainc, logsumexp

from conftest import fd_gradient_error, log_j_at, smooth_feasibility
from relbo import numerics
from relbo.acquisition import AcqContext, AcquisitionSpec, IterationStreams, ts_mr_next
from relbo.numerics import SobolStream, gaussian_stream_dim
from relbo.problems import get_problem
from relbo.reliability import (
    ISSample,
    PerturbationModel,
    draw_is_sample,
    estimate_pn,
    estimate_pn_batch,
    estimate_ptilde,
    estimate_ptilde_batch,
    evaluate_true_failure,
    _feasibility_parts,
    _ramp,
    log_mean_wj,
    perturbed_grid,
    smoothing_width,
)
from relbo.surrogate import GPHyperparams, RFFPath, SurrogateState, Transforms

UNIT_BOX = np.array([[0.0, 1.0], [0.0, 1.0]])


def u_stream(d, seed=0):
    return SobolStream(gaussian_stream_dim(d), scramble_seed=seed)


class TestPerturbationModel:
    def test_log_density_exact(self):
        model = PerturbationModel(np.array([0.5, 2.0]))
        rng = np.random.default_rng(0)
        u = rng.normal(size=(20, 2))
        want = np.sum(
            -0.5 * (u / [0.5, 2.0]) ** 2
            - np.log([0.5, 2.0])
            - 0.5 * np.log(2 * np.pi),
            axis=1,
        )
        np.testing.assert_allclose(model.log_density(u), want, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationModel(np.array([0.5, 0.0]))


class TestDrawIsSample:
    def test_tau_one_weights_are_exactly_one(self):
        model = PerturbationModel(np.array([0.3, 0.7]))
        sample = draw_is_sample(model, 1.0, 64, u_stream(2))
        np.testing.assert_array_equal(sample.log_weights, np.zeros(64))

    def test_weight_at_origin_is_tau_to_d(self):
        model = PerturbationModel(np.array([0.3, 0.7]))
        # The unscrambled stream's first point maps u1 -> clipped tiny value,
        # so compute the weight formula directly at u = 0 instead.
        sample = draw_is_sample(model, 3.0, 4, u_stream(2, seed=1))
        zero = ISSample(np.zeros((1, 2)), np.zeros(1))
        log_w = 2 * np.log(3.0) + 0.0
        # Cross-check the stored weights against the same formula.
        z = sample.points / model.sigmas
        want = 2 * np.log(3.0) + 0.5 * np.sum(z**2, axis=1) * (1 / 9.0 - 1.0)
        np.testing.assert_allclose(sample.log_weights, want, atol=1e-12)
        assert abs(np.exp(log_w) - 9.0) < 1e-12

    def test_mean_weight_near_one(self):
        model = PerturbationModel(np.array([1.0]))
        sample = draw_is_sample(model, 3.0, 2**14, u_stream(1, seed=2))
        w = np.exp(sample.log_weights)
        se = w.std() / np.sqrt(len(w))
        assert abs(w.mean() - 1.0) < 3 * se + 1e-3

    def test_gaussian_tail_estimate(self):
        model = PerturbationModel(np.array([1.0]))
        sample = draw_is_sample(model, 3.0, 4096, u_stream(1, seed=3))
        est = np.mean(np.exp(sample.log_weights) * (sample.points[:, 0] >= 3.0))
        assert abs(est - 1.349898e-3) / 1.349898e-3 < 0.05

    def test_validation(self):
        model = PerturbationModel(np.array([1.0]))
        with pytest.raises(ValueError):
            draw_is_sample(model, 0.5, 64, u_stream(1))
        with pytest.raises(ValueError, match="n_u must be a power of two, got 63"):
            draw_is_sample(model, 3.0, 63, u_stream(1))
        with pytest.raises(ValueError, match="n_u must be at least 1, got 0"):
            draw_is_sample(model, 3.0, 0, u_stream(1))


class TestSmoothFeasibility:
    def test_center_is_one(self):
        assert smooth_feasibility(np.array([[0.5, 0.5]]), UNIT_BOX, 0.1)[0] == 1.0

    def test_face_is_zero(self):
        assert smooth_feasibility(np.array([[0.0, 0.5]]), UNIT_BOX, 0.1)[0] == 0.0

    def test_half_ramp_equals_erf_one(self):
        got = smooth_feasibility(np.array([[0.05]]), np.array([[0.0, 1.0]]), 0.1)[0]
        assert abs(got - erf(1.0)) < 1e-12
        assert abs(erf(1.0) - 0.8427008) < 1e-7

    def test_zero_delta_is_hard_interior_indicator(self):
        pts = np.array([[0.5, 0.5], [0.0, 0.5], [1.0, 0.5], [-0.1, 0.5]])
        got = smooth_feasibility(pts, UNIT_BOX, 0.0)
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0, 0.0])

    def test_zero_outside_box_for_any_delta(self):
        pts = np.array([[1.2, 0.5], [0.5, -0.3]])
        for delta in (0.0, 0.05, 0.3):
            np.testing.assert_array_equal(
                smooth_feasibility(pts, UNIT_BOX, delta), [0.0, 0.0]
            )

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(1)
        delta = 0.15
        for _ in range(20):
            x = rng.uniform(0.01, 0.99, size=2)
            _, grad = _feasibility_parts(x[None, :], UNIT_BOX, delta, want_grad=True)
            err = fd_gradient_error(
                lambda p: smooth_feasibility(p[None, :], UNIT_BOX, delta)[0],
                x,
                grad[0],
                np.ones(2),
            )
            assert err < 1e-5

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            smooth_feasibility(np.array([[0.5]]), np.array([[1.0, 1.0]]), 0.1)

    @pytest.mark.parametrize("delta", [-0.1, np.nan])
    def test_negative_or_nan_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta"):
            smooth_feasibility(np.array([[0.5, 0.5]]), UNIT_BOX, delta)

    def test_smoothing_width(self):
        assert smoothing_width(UNIT_BOX) == 0.05
        assert smoothing_width(np.array([[0.0, 2.0], [-1.0, 1.5]])) == 0.1

    def test_ramp_edges_match_masked_formula(self):
        def masked(z):  # the ramp as three masked passes over z
            out = np.empty_like(z)
            out[z <= 0] = 0.0
            out[z >= 1] = 1.0
            mid = (z > 0) & (z < 1)
            out[mid] = gammainc(0.5, z[mid] / (1.0 - z[mid]))
            return out

        tiny = np.nextafter(0.0, 1.0)
        z = np.array([
            -0.0, 0.0, 1.0, -1.0, 2.0, -np.inf, np.inf, tiny, 1e-300, 1e-17, 0.5,
            np.nextafter(1.0, 0.0), 1.0 - 1e-12, np.nextafter(1.0, 2.0), -tiny,
        ])
        z = np.concatenate([z, np.random.default_rng(0).uniform(-0.5, 1.5, size=1000)])
        want = masked(z)
        assert _ramp(z).tobytes() == want.tobytes()  # +0.0 at z = -0.0 too
        assert not np.signbit(_ramp(z[:2])).any()


def flat_state(mean_value, sd=1.0, bounds=UNIT_BOX):
    """A prior state whose posterior is N(mean_value, sd^2) everywhere."""
    hp = GPHyperparams(1.0, np.full(len(bounds), 0.2), 0.0)
    bounds = np.asarray(bounds, float)
    tr = Transforms(bounds[:, 0], bounds[:, 1], mean_value, sd)
    return SurrogateState(np.zeros((0, len(bounds))), np.zeros(0), tr, hp)


def log_phi_at(state, y, c):
    """log Phi of the posterior failure probability at the interior point
    ``y``, where the hard box indicator is 1 and J = Phi."""
    return float(log_j_at(state, y, UNIT_BOX, 0.0, c)[0])


class TestPhiN:
    def test_mean_at_threshold(self):
        state = flat_state(2.0)
        log_p = log_phi_at(state, np.array([0.5, 0.5]), 2.0)
        assert abs(np.exp(log_p) - 0.5) < 1e-12

    def test_mean_one_sigma_above(self):
        state = flat_state(3.0, sd=1.0)
        log_p = log_phi_at(state, np.array([0.5, 0.5]), 2.0)
        assert abs(np.exp(log_p) - 0.8413447) < 1e-7

    def test_deep_tail_log_finite(self):
        state = flat_state(0.0, sd=1.0)
        log_p = log_phi_at(state, np.array([0.5, 0.5]), 30.0)
        assert np.isfinite(log_p)
        assert abs(log_p - (-454.32)) < 0.01


def assert_batch_equals_loop(model, batch_fn, loop_fn, prob, *rho):
    """A source's batch estimate against looping its single-design form: the
    batch form scans log P without gradients, evaluating the source only
    where the box indicator is positive; the single-design form takes the
    gradient route over every point. A path source also takes ``rho``."""
    sample = draw_is_sample(prob.perturb, 3.0, 64, u_stream(2, seed=10))
    xs = prob.bounds[:, 0] + SobolStream(2, scramble_seed=11).take(16) * (
        prob.bounds[:, 1] - prob.bounds[:, 0]
    )
    args = (sample, prob.bounds, smoothing_width(prob.bounds), prob.c, *rho)
    loop = np.array([loop_fn(model, x, *args)[0] for x in xs])
    np.testing.assert_allclose(batch_fn(model, xs, *args), loop, atol=1e-10)


class TestEstimatePn:
    def delta(self):
        return smoothing_width(UNIT_BOX)

    def sample(self, sigma=0.05, n=256, tau=3.0, seed=0):
        return draw_is_sample(PerturbationModel(np.full(2, sigma)), tau, n, u_stream(2, seed))

    def test_reliable_region_gives_tiny_p(self):
        state = flat_state(-10.0, sd=1.0)  # mean 10 sigma below c = 0
        log_p, _ = estimate_pn(
            state, np.array([0.5, 0.5]), self.sample(), UNIT_BOX, self.delta(), 0.0
        )
        assert np.exp(log_p) < 1e-10
        assert -log_p > 23.0

    def test_exterior_mass_saturates_to_one(self):
        state = flat_state(-10.0, sd=1.0)
        log_p, _ = estimate_pn(state, np.array([3.0, 3.0]), self.sample(), UNIT_BOX, 1e-6, 0.0)
        # All perturbed points fall outside the box: J = 1 for each of them,
        # so the estimate is the mean importance weight (close to 1).
        assert abs(np.exp(log_p) - np.mean(np.exp(self.sample().log_weights))) < 1e-9

    def test_gradient_matches_fd_on_branin_surrogate(self, branin_state, branin_problem):
        prob = branin_problem
        sample = draw_is_sample(prob.perturb, 3.0, 128, u_stream(2, seed=5))
        delta = smoothing_width(prob.bounds)
        rng = np.random.default_rng(7)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        checked = 0
        for _ in range(30):
            x = prob.bounds[:, 0] + rng.uniform(size=2) * span
            log_p, grad = estimate_pn(branin_state, x, sample, prob.bounds, delta, prob.c)
            if not np.isfinite(log_p):
                continue
            err = fd_gradient_error(
                lambda p: estimate_pn_batch(
                    branin_state, p[None, :], sample, prob.bounds, delta, prob.c
                )[0],
                x,
                grad,
                span,
            )
            assert err < 1e-3
            checked += 1
        assert checked >= 20

    def test_monotone_in_threshold(self, branin_state, branin_problem):
        prob = branin_problem
        sample = draw_is_sample(prob.perturb, 3.0, 256, u_stream(2, seed=6))
        delta = smoothing_width(prob.bounds)
        x = np.array([2.0, 7.0])
        log_ps = [
            estimate_pn_batch(branin_state, x[None, :], sample, prob.bounds, delta, c)[0]
            for c in (20.0, 60.0, 120.0)
        ]
        assert log_ps[0] >= log_ps[1] >= log_ps[2]

    def test_delta_zero_limit(self, branin_state, branin_problem):
        prob = branin_problem
        sample = draw_is_sample(prob.perturb, 3.0, 128, u_stream(2, seed=8))
        x = np.array([2.0, 7.0])
        # Equality holds whenever no interior sample point sits within delta
        # of the boundary (exterior points give iota = 0 under both settings).
        pts = x + sample.points
        margins = np.min(
            np.minimum(pts - prob.bounds[:, 0], prob.bounds[:, 1] - pts), axis=1
        )
        interior = margins[margins > 0]
        delta = min(0.5 * float(interior.min()), 0.05)
        assert delta > 0
        a, b = (
            estimate_pn_batch(branin_state, x[None, :], sample, prob.bounds, dl, prob.c)[0]
            for dl in (delta, 0.0)
        )
        assert abs(a - b) < 1e-9

    def test_tau_invariance(self, quadratic_state, quadratic_problem):
        prob = quadratic_problem
        delta = smoothing_width(prob.bounds)
        x = np.array([0.45, 0.45])
        stats = {}
        for tau in (1.0, 2.0, 3.0):
            sample = draw_is_sample(prob.perturb, tau, 2**16, u_stream(2, seed=9))
            log_p = estimate_pn_batch(
                quadratic_state, x[None, :], sample, prob.bounds, delta, prob.c
            )[0]
            # Empirical standard error of the weighted mean of J-terms.
            log_j = log_j_at(
                quadratic_state, x + sample.points, prob.bounds, delta, prob.c
            )
            terms = np.exp(sample.log_weights + log_j)
            stats[tau] = (np.exp(log_p), terms.std() / np.sqrt(len(terms)))
        for tau in (2.0, 3.0):
            diff = abs(stats[tau][0] - stats[1.0][0])
            se = np.hypot(stats[tau][1], stats[1.0][1])
            assert diff < 3 * se + 1e-6

    def test_underflow_sentinel(self):
        # An unreachable threshold with all perturbation mass in the interior
        # makes every term exactly zero in log space.
        state = flat_state(0.0, sd=1.0)
        sample = self.sample(sigma=0.01)
        log_p, grad = estimate_pn(
            state, np.array([0.5, 0.5]), sample, UNIT_BOX, self.delta(), np.inf
        )
        assert log_p == -np.inf
        assert not np.any(np.isnan(grad))

    def test_batch_equals_loop(self, branin_state, branin_problem):
        assert_batch_equals_loop(branin_state, estimate_pn_batch, estimate_pn, branin_problem)

    def test_degenerate_at_variance_floor(self, noiseless_state):
        # At its training inputs the state's posterior variance is at the
        # floor, where Phi(h) is the indicator of mean >= c: J = 1 there and
        # 1 - iota below the threshold, with no gradient through h. The
        # threshold sits half a floor sd below one of the means, so h = 0.5
        # there.
        st = noiseless_state
        X, bounds = st.train_inputs, np.array([[0.0, 1.0], [0.0, 1.0]])
        mean, var = st.posterior(X)
        assert np.all(var == st.variance_floor)
        c = np.sort(mean)[6] - 0.5 * np.sqrt(st.variance_floor)
        delta = 0.3  # 0 < iota < 1 at several inputs
        iota, diota = _feasibility_parts(X, bounds, delta, want_grad=True)
        assert np.any((iota > 0.0) & (iota < 1.0) & (mean < c))
        assert np.any((iota > 0.0) & (iota < 1.0) & (mean >= c))
        origin = ISSample(np.zeros((1, 2)), np.zeros(1))
        ests = [estimate_pn(st, x, origin, bounds, delta, c) for x in X]
        log_j = np.array([log_p for log_p, _ in ests])
        dlog_j = np.array([grad for _, grad in ests])
        above = mean >= c
        with np.errstate(divide="ignore"):
            want = np.where(above, 0.0, np.log1p(-iota))
        np.testing.assert_allclose(log_j, want, rtol=0.0, atol=1e-15)
        # d log J is d log(1 - iota) below the threshold and zero above it.
        assert np.all(dlog_j[above] == 0.0)
        below = ~above & (iota < 1.0)
        np.testing.assert_allclose(
            dlog_j[below], -diota[below] / (1.0 - iota[below, None]), rtol=1e-12
        )
        assert np.all(dlog_j[~above & (iota == 1.0)] == 0.0)
        # The masked scan without gradients gives the same log J.
        np.testing.assert_array_equal(log_j_at(st, X, bounds, delta, c), log_j)


def recording_posterior(monkeypatch):
    """Record the points of every ``SurrogateState.posterior`` call."""
    calls, real = [], SurrogateState.posterior

    def posterior(self, points):
        calls.append(np.array(points))
        return real(self, points)

    monkeypatch.setattr(SurrogateState, "posterior", posterior)
    return calls


class TestValueOnlyScan:
    """The value-only GP estimate evaluates the posterior only where iota > 0."""

    def grid(self, prob, shift):
        sample = draw_is_sample(prob.perturb, 3.0, 256, u_stream(prob.dim, seed=4))
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        xs = prob.bounds[:, 0] + shift * span + SobolStream(prob.dim, scramble_seed=5).take(8) * span
        return xs, sample, smoothing_width(prob.bounds)

    def test_posterior_sees_exactly_the_kept_rows(self, branin_state, branin_problem, monkeypatch):
        prob = branin_problem
        xs, sample, delta = self.grid(prob, 0.0)
        pts = perturbed_grid(xs, sample)
        kept = pts[smooth_feasibility(pts, prob.bounds, delta) > 0.0]
        assert 0 < len(kept) < len(pts)
        calls = recording_posterior(monkeypatch)
        estimate_pn_batch(branin_state, xs, sample, prob.bounds, delta, prob.c)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], kept)

    def test_all_points_outside_the_box(self, branin_state, branin_problem, monkeypatch):
        prob = branin_problem
        xs, sample, delta = self.grid(prob, 50.0)
        calls = recording_posterior(monkeypatch)
        log_p = estimate_pn_batch(branin_state, xs, sample, prob.bounds, delta, prob.c)
        assert all(len(points) == 0 for points in calls)
        log_mean_w, _ = log_mean_wj(sample.log_weights, np.zeros(len(sample)))
        np.testing.assert_array_equal(log_p, np.full(len(xs), log_mean_w))
        assert abs(log_mean_w - np.log(np.mean(np.exp(sample.log_weights)))) < 1e-12

    @pytest.mark.parametrize("budget", [numerics.ELEMENT_BUDGET, 2**21, 2**10])
    def test_posterior_of_kept_rows_is_a_gather(
        self, branin_state, branin_problem, hartmann_state, monkeypatch, budget
    ):
        # The value-only scan's bytes rest on this: each row of the posterior
        # does not depend on the rows evaluated with it.
        monkeypatch.setattr(numerics, "ELEMENT_BUDGET", budget)  # 2^21: one block; 2^10: many
        for st, prob in ((branin_state, branin_problem), (hartmann_state, get_problem("hartmann-6d"))):
            xs, sample, delta = self.grid(prob, 0.0)
            pts = perturbed_grid(xs, sample)
            sel = smooth_feasibility(pts, prob.bounds, delta) > 0.0
            assert 0 < np.count_nonzero(sel) < len(pts)
            for whole, kept in zip(st.posterior(pts), st.posterior(pts[sel]), strict=True):
                assert whole[sel].tobytes() == kept.tobytes()

    def test_candidate_scan_memory_is_bounded(self, hartmann_state):
        # recommend's coarse scan on hartmann-6d: 1024 candidates x 1024
        # perturbations. Built whole, the perturbed grid and the temporaries
        # over it take 296 MiB; over blocks of candidates the peak is 2.3 MiB.
        prob = get_problem("hartmann-6d")
        sample = draw_is_sample(prob.perturb, prob.default_tau, 1024, u_stream(6, seed=1))
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        xs = prob.bounds[:, 0] + SobolStream(6, scramble_seed=2).take(1024) * span
        tracemalloc.start()
        try:
            log_p = estimate_pn_batch(
                hartmann_state, xs, sample, prob.bounds, smoothing_width(prob.bounds), prob.c
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert log_p.shape == (1024,) and np.all(np.isfinite(log_p))
        assert peak < 16 * 2**20


class TestLogMeanWj:
    """The direct log-sum-exp against scipy.special.logsumexp."""

    @staticmethod
    def scipy_log_mean(log_w, log_j):
        return logsumexp(log_w + log_j, axis=-1) - np.log(np.shape(log_j)[-1])

    def test_random_within_one_ulp(self):
        rng = np.random.default_rng(0)
        for shape in [(64,), (7, 64), (3, 5, 1024), (2, 33)]:
            log_w = rng.normal(size=shape[-1])
            log_j = rng.normal(scale=30.0, size=shape) - 20.0
            got, _ = log_mean_wj(log_w, log_j)
            np.testing.assert_array_max_ulp(got, self.scipy_log_mean(log_w, log_j), maxulp=1)

    def test_edge_rows_exact(self):
        log_w = np.zeros(8)  # so that the rows below are the terms exactly
        rows = np.array([
            np.full(8, -np.inf),  # every term underflows
            [-3.0, -1.0, -1.0, -7.0, -2.0, -1.0, -5.0, -9.0],  # tied maxima
            [-np.inf, -np.inf, -4.2, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
            [-1e3, -np.inf, -1e3 - 1e-9, -745.0, -np.inf, -2e3, -1e3, -np.inf],
        ])
        got, _ = log_mean_wj(log_w, rows)
        np.testing.assert_array_equal(got, self.scipy_log_mean(log_w, rows))
        assert got[0] == -np.inf

    def test_one_dimensional_input_exact(self, branin_state, branin_problem):
        # The 1-D terms of a single-design estimate.
        prob = branin_problem
        sample = draw_is_sample(prob.perturb, 3.0, 256, u_stream(2, seed=3))
        x = np.array([[2.5, 7.5]])
        log_j = log_j_at(
            branin_state, perturbed_grid(x, sample), prob.bounds, 0.5, prob.c
        )
        got, _ = log_mean_wj(sample.log_weights, log_j)
        assert np.ndim(got) == 0
        np.testing.assert_array_equal(got, self.scipy_log_mean(sample.log_weights, log_j))


class TestEstimatePtilde:
    def test_all_failures_saturates(self, branin_state, branin_problem):
        prob = branin_problem
        path = branin_state.draw_rff_path(512, seed=0)
        sample = draw_is_sample(prob.perturb, 3.0, 128, u_stream(2, seed=12))
        delta = smoothing_width(prob.bounds)
        # Threshold far below the function range: every point fails.
        log_p = estimate_ptilde_batch(
            path, np.array([[2.0, 7.0]]), sample, prob.bounds, delta, c=-1e6, rho=1e-6
        )[0]
        assert abs(np.exp(log_p) - np.mean(np.exp(sample.log_weights))) < 1e-6

    def test_batch_equals_loop(self, branin_state, branin_problem):
        path = branin_state.draw_rff_path(512, seed=2)
        assert_batch_equals_loop(
            path, estimate_ptilde_batch, estimate_ptilde, branin_problem, 0.5
        )

    @pytest.mark.parametrize("name", ["branin-2d", "hartmann-6d"])
    def test_fixed_perturbations_match_per_call(self, branin_state, hartmann_state, name):
        prob = get_problem(name)
        state = branin_state if name == "branin-2d" else hartmann_state
        path = state.draw_rff_path(1024, seed=3)
        sample = draw_is_sample(prob.perturb, 3.0, 64, u_stream(prob.dim, seed=15))
        fixed = path.fix_perturbations(sample.points)
        args = (sample, prob.bounds, smoothing_width(prob.bounds), prob.c, 0.01)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        xs = prob.bounds[:, 0] + SobolStream(prob.dim, scramble_seed=16).take(8) * span
        for x in xs:
            for got, want in zip(estimate_ptilde(fixed, x, *args), estimate_ptilde(path, x, *args)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got, want = estimate_ptilde_batch(fixed, xs, *args), estimate_ptilde_batch(path, xs, *args)
        assert got.tobytes() == want.tobytes()

    def test_second_sample_gets_its_own_factors(self, branin_state, branin_problem):
        prob = branin_problem
        path = branin_state.draw_rff_path(512, seed=5)
        first = draw_is_sample(prob.perturb, 3.0, 64, u_stream(2, seed=17))
        second = draw_is_sample(prob.perturb, 3.0, 64, u_stream(2, seed=18))
        delta = smoothing_width(prob.bounds)
        x = np.array([2.5, 7.5])

        def est(model, sample):
            return estimate_ptilde(model, x, sample, prob.bounds, delta, prob.c, 0.5)

        fixed = path.fix_perturbations(first.points)
        assert est(fixed, first)[0] != est(path, second)[0]
        for model in (fixed, path.fix_perturbations(second.points)):
            log_p, grad = est(model, second)
            want_log_p, want_grad = est(path, second)
            assert log_p == want_log_p and grad.tobytes() == want_grad.tobytes()
        # The factors belong to the perturbations' values at fixing time.
        moved = first.points.copy()
        fixed = path.fix_perturbations(moved)
        moved += 0.25
        shifted = ISSample(moved, first.log_weights)
        assert est(fixed, shifted)[0] == est(path, shifted)[0]

    def test_ts_mr_fixes_one_sample_per_search(self, branin_state, branin_problem, monkeypatch):
        fixed, real = [], RFFPath.fix_perturbations

        def recording(self, us):
            if us is not None:
                fixed.append(np.array(us))
            return real(self, us)

        monkeypatch.setattr(RFFPath, "fix_perturbations", recording)
        spec = AcquisitionSpec("ts_mr", n_u=64, n_raw=64, n_restarts=2)
        st = branin_state
        ctx = AcqContext(
            st, branin_problem, spec, IterationStreams.from_seed(3, 2), st.train_inputs,
            st.train_targets,
        )
        ts_mr_next(ctx)
        assert len(fixed) == 1 and fixed[0].shape == (64, 2)

    def test_gradient_matches_fd(self, branin_state, branin_problem):
        prob = branin_problem
        path = branin_state.draw_rff_path(512, seed=1)
        sample = draw_is_sample(prob.perturb, 3.0, 128, u_stream(2, seed=13))
        delta = smoothing_width(prob.bounds)
        rng = np.random.default_rng(14)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        checked = 0
        for _ in range(30):
            x = prob.bounds[:, 0] + rng.uniform(size=2) * span
            log_p, grad = estimate_ptilde(path, x, sample, prob.bounds, delta, prob.c, 0.5)
            if not np.isfinite(log_p):
                continue
            err = fd_gradient_error(
                lambda p: estimate_ptilde_batch(
                    path, p[None, :], sample, prob.bounds, delta, prob.c, 0.5
                )[0],
                x,
                grad,
                span,
            )
            assert err < 1e-3
            checked += 1
        assert checked >= 20


class TestEvaluateTrueFailure:
    def test_quadratic_against_brute_monte_carlo(self, quadratic_problem):
        prob = quadratic_problem
        x = np.array([0.3, 0.3])
        est = evaluate_true_failure(prob, x, n_u=2**20)  # tau = 3: extreme mode
        rng = np.random.default_rng(99)
        n_mc = 2**22
        u = rng.normal(scale=prob.perturb.sigmas, size=(n_mc, 2))
        y = x + u
        inside = np.all((y >= prob.bounds[:, 0]) & (y <= prob.bounds[:, 1]), axis=1)
        fail = ~inside
        fail[inside] = prob.evaluate_unchecked(y[inside]) >= prob.c
        mc = fail.mean()
        se = np.sqrt(mc * (1 - mc) / n_mc)
        # The qMC IS estimator has far lower variance than the MC oracle; use
        # the MC standard error as the combined scale.
        assert abs(est - mc) < 4 * se + 1e-4

    def test_gp_problem_scored_in_bounded_memory(self):
        # The true function is a 1024-feature sample path; evaluated in one
        # pass, its feature arrays would take 1 GB per temporary here.
        prob = get_problem("gp-2d")
        tracemalloc.start()
        try:
            p = evaluate_true_failure(prob, np.full(2, 0.5), n_u=2**17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 <= p <= 1.0
        assert peak < 128 * 2**20

    def test_infinite_thresholds(self):
        dummy = SimpleNamespace(
            perturb=PerturbationModel(np.array([0.01, 0.01])),
            bounds=UNIT_BOX,
            c=np.inf,
            evaluate_unchecked=lambda P: np.zeros(len(P)),
            default_tau=1.0,
        )
        assert evaluate_true_failure(dummy, np.array([0.5, 0.5]), n_u=2**10) == 0.0
        dummy.c = -np.inf
        got = evaluate_true_failure(dummy, np.array([0.5, 0.5]), n_u=2**10)
        assert abs(got - 1.0) < 1e-6
