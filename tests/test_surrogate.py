"""Gaussian-process surrogate: kernel values, MAP fitting, posterior math,
the fantasy update against a refit, and pathwise samples."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

import relbo.numerics as numerics
import relbo.surrogate as surrogate
from conftest import fantasy_marginal, fd_gradient_error
from relbo.acquisition import _fantasy_log_p
from relbo.harness import initial_design
from relbo.numerics import SobolStream
from relbo.problems import get_problem
from relbo.reliability import ISSample, draw_is_sample, estimate_pn_batch, smoothing_width
from relbo.surrogate import (
    NOISE_VARIANCE,
    GPHyperparams,
    SurrogateState,
    Transforms,
    _nll_and_grad,
    _scaled_sqdist,
    fit_map,
    matern52,
    prior_state,
)
from reference import matern52_grad_a, refit_on_fantasy
from test_acquisition import fitted


def unit_hp(s2=2.0, ls=0.3, d=2):
    return GPHyperparams(s2, np.full(d, ls), 0.0)


def box_points(state, count, seed):
    tr = state.transforms
    return tr.input_lo + SobolStream(state.dim, scramble_seed=seed).take(count) * tr.input_scale


def broadcast_grad_a(A, B, hp):
    """``matern52_grad_a`` as one (m, n, d) broadcast, the reference its
    per-dimension fill reproduces byte for byte."""
    ls = hp.lengthscales
    r = np.sqrt(_scaled_sqdist(A, B, ls))
    coef = -hp.output_scale_sq * (5.0 / 3.0) * (1.0 + np.sqrt(5.0) * r) * np.exp(-np.sqrt(5.0) * r)
    return coef[:, :, None] * ((A[:, None, :] - B[None, :, :]) / ls**2)


def assert_close(got, want, scale=0.0):
    """Equal to within rounding, relative to the batch's scale: a gradient
    entry that cancels to near zero may move by a rounding of its largest
    terms. The scale is max |want|, or ``scale`` if that is larger."""
    scale = max(scale, np.max(np.abs(want[np.isfinite(want)]), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def tensor_marginal_grads(state, points):
    """The posterior gradients (dmean, dvar) in original units by the
    (m, n, d) kernel-gradient tensor and a ``cho_solve``, the reference the
    GEMM-form contraction reproduces to rounding."""
    hp, tr = state.hyperparams, state.transforms
    Pn = tr.x_to_unit(np.atleast_2d(points))
    G = broadcast_grad_a(Pn, state.Xn, hp)
    Kinv_Ks = cho_solve((state.chol, True), matern52(state.Xn, Pn, hp))
    _, var, _, _ = state.posterior_with_grad(points)
    dmean = np.einsum("mnd,n->md", G, state.alpha)
    dvar = -2.0 * np.einsum("mnd,nm->md", G, Kinv_Ks)
    dvar[var <= state.variance_floor] = 0.0
    scale = 1.0 / tr.input_scale
    return dmean * scale * tr.output_std, dvar * scale * tr.output_std**2


def direct_rff(path, xs, us):
    """A sample path and its design gradient at every xs[i] + us[j] by
    ``cos`` over every (point, feature) argument, shapes (m, n_u) and
    (m, n_u, d): the reference the separable evaluation reproduces."""
    st, hp, tr = path.state, path.state.hyperparams, path.state.transforms
    m, n_u, d = len(xs), len(us), st.dim
    Pn = tr.x_to_unit((xs[:, None, :] + us[None, :, :]).reshape(-1, d))
    amp = np.sqrt(2.0 * hp.output_scale_sq / path.n_features)
    arg = Pn @ path.frequencies.T + path.phases
    vals = hp.constant_mean + amp * np.cos(arg) @ path.weights
    grads = -amp * (np.sin(arg) * path.weights) @ path.frequencies
    vals = vals + matern52(Pn, st.Xn, hp) @ path.update_coef
    grads = grads + np.einsum("mnd,n->md", broadcast_grad_a(Pn, st.Xn, hp), path.update_coef)
    grads = grads * tr.output_std / tr.input_scale
    return tr.y_unstandardize(vals).reshape(m, n_u), grads.reshape(m, n_u, d)


def two_pass_cross_cov(state, points, y):
    """``cross_cov_with_grad`` as two kernel passes: ``posterior_with_grad``,
    then the cross-covariance from its own kernel block, gradient tensor and
    solve."""
    hp, tr = state.hyperparams, state.transforms
    Pn = tr.x_to_unit(np.atleast_2d(points))
    yn = tr.x_to_unit(np.asarray(y, float).reshape(1, -1))
    kty = matern52(Pn, yn, hp)[:, 0]
    dk_dt = matern52_grad_a(Pn, yn, hp)[:, 0, :]
    dk_dy = -dk_dt
    Kt = matern52(state.Xn, Pn, hp)
    w_y = cho_solve((state.chol, True), matern52(state.Xn, yn, hp)[:, 0])
    kty = kty - Kt.T @ w_y
    dk_dt = dk_dt - np.einsum("mnd,n->md", matern52_grad_a(Pn, state.Xn, hp), w_y)
    Gy = matern52_grad_a(yn, state.Xn, hp)[0]
    dk_dy = dk_dy - cho_solve((state.chol, True), Kt).T @ Gy
    scale = 1.0 / tr.input_scale
    s2 = tr.output_std**2
    return (
        *state.posterior_with_grad(points), kty * s2, dk_dt * scale * s2, dk_dy * scale * s2
    )


def prior_cross_scales(state, points, y):
    """max |k(t, y)| and max |d k(t, y) / d t| over the batch, original
    units: the size of the terms of which k_n(t, y) and its gradients are the
    difference. Near a training input y those are near zero, and any change
    in the order of the sums moves them by roundings of this size."""
    hp, tr = state.hyperparams, state.transforms
    Pn, yn = tr.x_to_unit(np.atleast_2d(points)), tr.x_to_unit(np.reshape(y, (1, -1)))
    s2 = tr.output_std**2
    grad = matern52_grad_a(Pn, yn, hp)[:, 0, :] / tr.input_scale
    return np.max(matern52(Pn, yn, hp)) * s2, np.max(np.abs(grad)) * s2


def assert_cross_cov_close(state, points, y):
    """The fused pass against ``two_pass_cross_cov``: the marginal runs the
    same code and is equal; k_n and its gradients agree to rounding at the
    size of their terms."""
    fused = state.cross_cov_with_grad(points, y)
    want = two_pass_cross_cov(state, points, y)
    for got, ref in zip(fused[:4], want[:4], strict=True):
        np.testing.assert_array_equal(got, ref)
    k_scale, grad_scale = prior_cross_scales(state, points, y)
    for got, ref, scale in zip(fused[4:], want[4:], (k_scale, grad_scale, grad_scale)):
        assert_close(got, ref, scale)
    return fused


class TestKernel:
    def test_zero_distance(self):
        hp = unit_hp(s2=3.5)
        a = np.array([0.2, 0.9])
        assert abs(matern52(a, a, hp)[0, 0] - 3.5) < 1e-14

    def test_one_lengthscale_apart(self):
        # k(r=1)/s^2 = (1 + sqrt5 + 5/3) e^{-sqrt5}
        hp = unit_hp(s2=2.0, ls=0.25)
        a, b = np.array([0.1, 0.1]), np.array([0.35, 0.1])
        want = 2.0 * (1 + np.sqrt(5) + 5 / 3) * np.exp(-np.sqrt(5))
        assert abs(matern52(a, b, hp)[0, 0] - want) < 1e-12
        assert abs(want / 2.0 - 0.52399411) < 1e-7

    def test_long_distance_decay(self):
        hp = unit_hp(s2=1.0, ls=0.05)
        assert matern52(np.array([0.0, 0.0]), np.array([1.0, 0.0]), hp)[0, 0] < 1e-15

    def test_symmetry(self):
        hp = unit_hp()
        A = np.random.default_rng(0).uniform(size=(6, 2))
        K = matern52(A, A, hp)
        np.testing.assert_allclose(K, K.T, atol=1e-14)

    def test_gradient_matches_fd(self):
        hp = unit_hp(s2=1.3, ls=0.4)
        rng = np.random.default_rng(1)
        A, B = rng.uniform(size=(3, 2)), rng.uniform(size=(4, 2))
        G = matern52_grad_a(A, B, hp)
        for i in range(3):
            for j in range(4):
                err = fd_gradient_error(
                    lambda a, j=j: matern52(a[None, :], B[j][None, :], hp)[0, 0],
                    A[i],
                    G[i, j],
                    np.ones(2),
                )
                assert err < 1e-6

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            GPHyperparams(0.0, np.array([0.1]), 0.0)
        with pytest.raises(ValueError):
            GPHyperparams(1.0, np.array([-0.1]), 0.0)


class TestFitMap:
    def test_single_observation_lengthscale_is_prior_mode(self):
        # One point carries no lengthscale information, so the MAP estimate
        # is the prior mode (shape-1)/rate = 0.2.
        state = fit_map(np.array([[0.5, 0.5]]), np.array([1.0]), bounds=[[0, 1], [0, 1]])
        np.testing.assert_allclose(state.hyperparams.lengthscales, 0.2, atol=1e-3)

    def test_constant_targets_survive_standardization(self):
        pts = SobolStream(2, scramble_seed=0).take(8)
        state = fit_map(pts, np.full(8, 3.0), bounds=[[0, 1], [0, 1]])
        assert np.isfinite(state.hyperparams.output_scale_sq)
        assert np.all(np.isfinite(state.hyperparams.lengthscales))

    def test_recovers_lengthscale_bracket(self):
        hp = unit_hp(s2=1.0, ls=0.3)
        pts = SobolStream(2, scramble_seed=2).take(20)
        prior = prior_state(hp, [[0, 1], [0, 1]])
        path = prior.draw_rff_path(2048, seed=5)
        state = fit_map(pts, path.evaluate(pts), bounds=[[0, 1], [0, 1]], seed=0)
        assert np.all(state.hyperparams.lengthscales >= 0.1)
        assert np.all(state.hyperparams.lengthscales <= 0.9)

    def test_determinism(self):
        pts = SobolStream(2, scramble_seed=4).take(10)
        v = np.sin(5 * pts[:, 0]) + pts[:, 1]
        a = fit_map(pts, v, bounds=[[0, 1], [0, 1]], seed=7)
        b = fit_map(pts, v, bounds=[[0, 1], [0, 1]], seed=7)
        assert a.hyperparams.output_scale_sq == b.hyperparams.output_scale_sq
        assert np.array_equal(a.hyperparams.lengthscales, b.hyperparams.lengthscales)
        assert a.hyperparams.constant_mean == b.hyperparams.constant_mean

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_map(np.zeros((0, 2)), np.zeros(0), bounds=[[0, 1], [0, 1]])

    def test_jitter_escalates_when_no_start_survives(self, monkeypatch):
        # Every Cholesky factorization fails without jitter: each start is
        # abandoned, and the fit is retried at the next jitter level.
        def failing_without_jitter(theta, Xn, zc_raw, jitter):
            if jitter == 0.0:
                return np.inf, np.zeros_like(theta)
            return _nll_and_grad(theta, Xn, zc_raw, jitter)

        monkeypatch.setattr(surrogate, "_nll_and_grad", failing_without_jitter)
        prob = get_problem("branin-2d")
        Y, v = initial_design(prob, seed=1)
        state = fit_map(Y, v, bounds=prob.bounds, seed=0)
        assert state.jitter == 1e-8
        assert np.all(np.isfinite(state.posterior(Y)[1]))

    @pytest.mark.parametrize("name, n", [("branin-2d", 25), ("hartmann-6d", 30)])
    def test_map_objective_gradient_matches_fd(self, name, n):
        # At points around the fitted hyperparameters, not at them: at the
        # MAP the gradient is near zero, below the differences' rounding.
        _, state = fitted(name, n)
        hp, d = state.hyperparams, state.dim
        zc_raw = state.transforms.y_standardize(state.train_targets)
        theta = np.concatenate(
            [[np.log(hp.output_scale_sq)], np.log(hp.lengthscales), [hp.constant_mean]]
        )
        offsets = np.random.default_rng(d).uniform(-0.5, 0.5, size=(3, d + 2))
        for jitter in (0.0, 1e-6):
            for th in theta + offsets:
                _, grad = _nll_and_grad(th, state.Xn, zc_raw, jitter)
                err = fd_gradient_error(
                    lambda t: _nll_and_grad(t, state.Xn, zc_raw, jitter)[0], th, grad, 1.0
                )
                assert err < 1e-3


class TestPosterior:
    def test_near_interpolation_at_training_inputs(self, branin_state):
        mean, _ = branin_state.posterior(branin_state.train_inputs)
        resid = np.abs(mean - branin_state.train_targets)
        assert np.max(resid) < 2e-2 * branin_state.transforms.output_std

    def test_prior_reduction(self):
        hp = unit_hp(s2=4.0)
        tr = Transforms(np.zeros(2), np.ones(2), 1.5, 2.0)
        state = SurrogateState(np.zeros((0, 2)), np.zeros(0), tr, hp)
        mean, var = state.posterior(np.array([[0.3, 0.3], [0.9, 0.1]]))
        np.testing.assert_allclose(mean, 1.5)
        np.testing.assert_allclose(var, 4.0 * 2.0**2)

    def test_variance_reduction_between_points(self):
        hp = unit_hp(s2=1.0, ls=0.4)
        tr = Transforms(np.zeros(2), np.ones(2), 0.0, 1.0)
        state = SurrogateState(
            np.array([[0.3, 0.5], [0.7, 0.5]]), np.array([0.0, 1.0]), tr, hp
        )
        _, var = state.posterior(np.array([[0.5, 0.5]]))
        assert var[0] < 1.0

    def test_posterior_gradients_match_fd(self, branin_state):
        rng = np.random.default_rng(3)
        lo = branin_state.transforms.input_lo
        span = branin_state.transforms.input_scale
        for _ in range(20):
            x = lo + rng.uniform(size=2) * span
            mean, var, dmean, dvar = branin_state.posterior_with_grad(x[None, :])
            err_m = fd_gradient_error(
                lambda p: branin_state.posterior(p[None, :])[0][0], x, dmean[0], span
            )
            err_v = fd_gradient_error(
                lambda p: branin_state.posterior(p[None, :])[1][0], x, dvar[0], span
            )
            assert err_m < 1e-4 and err_v < 1e-4

    def test_cross_cov_grads_match_fd(self, branin_state):
        rng = np.random.default_rng(4)
        lo = branin_state.transforms.input_lo
        span = branin_state.transforms.input_scale
        for _ in range(10):
            t = lo + rng.uniform(size=2) * span
            y = lo + rng.uniform(size=2) * span
            *_, dk_dt, dk_dy = branin_state.cross_cov_with_grad(t[None, :], y)
            err_t = fd_gradient_error(
                lambda p: branin_state.cross_cov_with_grad(p[None, :], y)[4][0],
                t,
                dk_dt[0],
                span,
            )
            err_y = fd_gradient_error(
                lambda p: branin_state.cross_cov_with_grad(t[None, :], p)[4][0],
                y,
                dk_dy[0],
                span,
            )
            assert err_t < 1e-4 and err_y < 1e-4


class TestFusedPass:
    @pytest.mark.parametrize("d", [2, 6])
    def test_grad_a_per_dimension_equals_broadcast(self, d):
        hp = GPHyperparams(1.7, np.linspace(0.2, 0.6, d), 0.0)
        rng = np.random.default_rng(d)
        A, B = rng.uniform(size=(300, d)), rng.uniform(size=(40, d))
        np.testing.assert_array_equal(matern52_grad_a(A, B, hp), broadcast_grad_a(A, B, hp))

    @pytest.mark.parametrize("budget", [numerics.ELEMENT_BUDGET, 2**21, 2**10])
    def test_posterior_with_grad_shares_mean_and_variance(
        self, branin_state, noiseless_state, monkeypatch, budget
    ):
        monkeypatch.setattr(numerics, "ELEMENT_BUDGET", budget)  # 2^21: one block; 2^10: many
        for st in (branin_state, noiseless_state):
            pts = np.vstack([st.train_inputs, box_points(st, 300, 2)])
            for batch in (pts, pts[:1], pts[-1:]):  # one row: a matrix-vector product
                with_grad = st.posterior_with_grad(batch)
                for got, want in zip(with_grad[:2], st.posterior(batch), strict=True):
                    np.testing.assert_array_equal(got, want)

    def test_gemm_gradients_match_tensor_reference(self, branin_state, noiseless_state):
        # Training inputs included: there P - X_n cancels in the product form.
        for st in (branin_state, noiseless_state):
            pts = np.vstack([st.train_inputs, box_points(st, 2048, 5)])
            _, _, dmean, dvar = st.posterior_with_grad(pts)
            for got, want in zip((dmean, dvar), tensor_marginal_grads(st, pts), strict=True):
                assert_close(got, want)

    def test_separable_rff_matches_direct_cos(self, branin_state):
        u = 0.8 * (SobolStream(2, scramble_seed=2).take(64) - 0.5)
        xs = np.vstack([branin_state.train_inputs[:5], box_points(branin_state, 40, 3)])
        path = branin_state.draw_rff_path(1024, seed=4)
        vals, grads = direct_rff(path, xs, u)
        assert_close(path.evaluate(xs, u), vals)
        for got, want in zip(path.evaluate_with_grad(xs, u), (vals, grads), strict=True):
            assert_close(got, want)
        plain_vals, plain_grads = direct_rff(path, xs, np.zeros((1, 2)))
        assert_close(path.evaluate(xs), plain_vals[:, 0])
        assert_close(path.evaluate_with_grad(xs)[1], plain_grads[:, 0])

    def test_cached_inverse_solves_like_cho_solve(self, branin_state):
        once = refit_on_fantasy(branin_state, np.array([1.0, 3.0]), 0.7)
        twice = refit_on_fantasy(once, np.array([-2.0, 11.0]), -0.4)
        for st in (branin_state, once, twice):
            eye = np.eye(st.n)
            assert_close(st.chol_inv, solve_triangular(st.chol, eye, lower=True))
            B = matern52(st.Xn, st.transforms.x_to_unit(box_points(st, 64, 7)), st.hyperparams)
            assert_close(st.kinv(B), cho_solve((st.chol, True), B))

    def test_cross_cov_equals_two_passes(self, branin_state):
        pts = box_points(branin_state, 2048, 5)
        for y in (pts[7], np.array([2.5, 7.5]), branin_state.train_inputs[3]):
            assert_cross_cov_close(branin_state, pts, y)

    def test_cross_cov_equals_two_passes_at_variance_floor(self, noiseless_state):
        st = noiseless_state
        pts = np.vstack([st.train_inputs, box_points(st, 20, 1)])
        fused = assert_cross_cov_close(st, pts, st.train_inputs[0])
        assert np.any(fused[1] == st.variance_floor)  # the clamped mask applies

    def test_fantasy_unchanged_by_fusion_at_variance_floor(self, noiseless_state, monkeypatch):
        # Perturbations include zero, so some perturbed designs are training
        # inputs, where the fantasy variance is degenerate.
        st = noiseless_state
        u = np.vstack([np.zeros((1, 2)), 0.05 * SobolStream(2, scramble_seed=3).take(7) - 0.025])
        sample = ISSample(u, np.zeros(8))
        xs, z = st.train_inputs[:4], np.array([-1.0, -0.2, 0.4, 1.3])
        args = (st, np.array([0.52, 0.47]), z, xs, sample, [[0, 1], [0, 1]], 0.05, 0.4)
        fused = _fantasy_log_p(*args)
        monkeypatch.setattr(SurrogateState, "cross_cov_with_grad", two_pass_cross_cov)
        for got, want in zip(fused, _fantasy_log_p(*args), strict=True):
            np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
            assert_close(got, want)


class TestBlocks:
    """Batches larger than one block agree with a single pass over them."""

    def blocked_and_whole(self, monkeypatch, fn):
        blocked = fn()  # the default budget
        monkeypatch.setattr(numerics, "ELEMENT_BUDGET", 2**24)  # one block
        whole = fn()
        monkeypatch.undo()
        return blocked, whole

    @pytest.mark.parametrize("m", [3000, 4096])
    def test_posterior_calls(self, branin_state, branin_problem, monkeypatch, m):
        prob = branin_problem
        pts = box_points(branin_state, m, 6)
        y = np.array([1.0, 4.0])
        path = branin_state.draw_rff_path(512, seed=4)
        u = SobolStream(2, scramble_seed=5)
        sample = draw_is_sample(prob.perturb, prob.default_tau, 1024, u)
        grid = (sample, prob.bounds, smoothing_width(prob.bounds), prob.c)
        assert numerics.ELEMENT_BUDGET // (len(sample) * 2) < 80  # candidates per block
        for fn in (
            lambda: branin_state.posterior(pts),
            lambda: branin_state.posterior_with_grad(pts),
            lambda: branin_state.cross_cov_with_grad(pts, y),
            lambda: (path.evaluate(pts),),
            lambda: path.evaluate_with_grad(pts),
            lambda: (estimate_pn_batch(branin_state, pts[:80], *grid),),
        ):
            blocked, whole = self.blocked_and_whole(monkeypatch, fn)
            for got, want in zip(blocked, whole, strict=True):
                # Relative to the batch's scale: a gradient entry that cancels
                # to near zero may move by a rounding of its largest terms.
                scale = np.max(np.abs(want))
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    def test_rff_evaluate_memory_is_bounded(self):
        # One pass over 2^16 points builds (2^16 x 1024) float64 feature
        # arrays, 512 MB each; in blocks the peak stays near the budget.
        hp = GPHyperparams(100.0, np.full(2, 0.28), 0.0)
        path = prior_state(hp, [[0, 1], [0, 1]]).draw_rff_path(1024, seed=145)
        pts = SobolStream(2, scramble_seed=1).take(2**16)
        tracemalloc.start()
        try:
            vals = path.evaluate(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert vals.shape == (2**16,) and np.all(np.isfinite(vals))
        assert peak < 64 * 2**20


class TestFantasize:
    """The rank-one fantasy update the knowledge gradient runs, against a
    refit on the fantasy observation, by both routes that feed it."""

    def test_zero_z_preserves_mean(self, branin_state):
        y = np.array([2.0, 8.0])
        m0, _ = branin_state.posterior(y[None, :])
        for want_grad in (False, True):
            m1, _ = fantasy_marginal(branin_state, y[None, :], y, 0.0, want_grad)
            assert abs(m1[0] - m0[0]) < 1e-8 * branin_state.transforms.output_std

    def test_variance_collapses_to_noise(self, branin_state):
        y = np.array([-3.0, 12.0])
        noise = NOISE_VARIANCE * branin_state.transforms.output_std**2
        for want_grad in (False, True):
            _, var = fantasy_marginal(branin_state, y[None, :], y, 1.3, want_grad)
            assert var[0] <= noise * (1 + 1e-6) + 1e-12

    def test_matches_refit_at_fifty_points(self, branin_state):
        y = np.array([1.0, 3.0])
        z = 0.7
        refit = refit_on_fantasy(branin_state, y, z)
        pts = box_points(branin_state, 50, 9)
        m_r, v_r = refit.posterior(pts)
        scale = branin_state.transforms.output_std
        for want_grad in (False, True):
            m_f, v_f = fantasy_marginal(branin_state, pts, y, z, want_grad)
            assert np.max(np.abs(m_f - m_r)) < 1e-6 * scale
            assert np.max(np.abs(v_f - v_r)) < 1e-6 * scale**2


class TestRFFPath:
    def test_path_interpolates_training_targets(self, branin_state):
        for seed in range(5):
            path = branin_state.draw_rff_path(1024, seed=seed)
            vals = path.evaluate(branin_state.train_inputs)
            resid = np.abs(vals - branin_state.train_targets)
            # The residual at a training point is essentially the drawn noise
            # realization; bound the max over 25 points x 5 seeds at 5 sigma.
            assert np.max(resid) < 0.05 * branin_state.transforms.output_std

    def test_path_mean_matches_posterior_mean(self, branin_state):
        x = np.array([[0.0, 5.0]])
        vals = np.array(
            [branin_state.draw_rff_path(1024, seed=s).evaluate(x)[0] for s in range(200)]
        )
        mean, var = branin_state.posterior(x)
        se = np.sqrt(var[0] / 200)
        assert abs(vals.mean() - mean[0]) < 3 * se + 0.05 * np.sqrt(var[0])

    def test_prior_path_tail_bound(self):
        hp = unit_hp(s2=4.0)
        state = prior_state(hp, [[0, 1], [0, 1]])
        pts = SobolStream(2).take(256)
        for seed in range(5):
            vals = state.draw_rff_path(1024, seed=seed).evaluate(pts)
            assert np.max(np.abs(vals)) < 6 * 2.0

    def test_determinism(self, branin_state):
        pts = SobolStream(2, scramble_seed=1).take(10) * 10
        a = branin_state.draw_rff_path(256, seed=3).evaluate(pts)
        b = branin_state.draw_rff_path(256, seed=3).evaluate(pts)
        np.testing.assert_array_equal(a, b)

    def test_gradient_matches_fd(self, branin_state):
        path = branin_state.draw_rff_path(512, seed=2)
        rng = np.random.default_rng(6)
        lo = branin_state.transforms.input_lo
        span = branin_state.transforms.input_scale
        for _ in range(10):
            x = lo + rng.uniform(size=2) * span
            _, grad = path.evaluate_with_grad(x[None, :])
            err = fd_gradient_error(
                lambda p: path.evaluate(p[None, :])[0], x, grad[0], span
            )
            assert err < 1e-4
