"""Point-selection strategies: Thompson sampling, both knowledge-gradient
variants, the limit-state cascade, expected feasibility, expected improvement
and the Sobol' baseline."""

import dataclasses
import functools
import logging

import numpy as np
import pytest
from scipy.special import log_ndtr

import relbo.acquisition as acquisition
import relbo.reliability as reliability
from conftest import fd_gradient_error
from reference import kg_discrete_value
from relbo.acquisition import (
    AcqContext,
    AcquisitionSpec,
    IterationStreams,
    _FantasyScan,
    _fantasy_log_p,
    _value_from_log_p,
    egra_next,
    ei_next,
    expected_feasibility,
    expected_improvement,
    hc_next,
    kg_discrete_next,
    kg_oneshot_next,
    next_point,
    oneshot_objective,
    sobol_next,
    ts_mr_next,
)
from relbo.harness import _child_seed, initial_design
from relbo.numerics import SobolStream, gaussian_qmc, gaussian_stream_dim
from relbo.optimizers import multistart_qn
from relbo.problems import Problem, get_problem, make_gp_problem
from relbo.reliability import (
    PerturbationModel,
    draw_is_sample,
    smooth_feasibility,
    smoothing_width,
)
from relbo.surrogate import GPHyperparams, fit_map, prior_state

SMALL = dict(n_u=32, n_v=8, n_x=128, n_raw=64, n_restarts=4)


def small_spec(kind, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return AcquisitionSpec(kind, **kwargs)


def u_stream(d, seed=0):
    return SobolStream(gaussian_stream_dim(d), scramble_seed=seed)


def context(state, problem, spec, seed, history=None, sobol_seed=0):
    """A strategy's input: ``history`` defaults to the state's training data."""
    Y, v = history if history is not None else (state.train_inputs, state.train_targets)
    streams = IterationStreams.from_seed(seed, problem.dim)
    return AcqContext(state, problem, spec, streams, Y, v, sobol_seed)


def box_problem(bounds, c=0.0, n_0=2, delta_band=10.0):
    """A problem on ``bounds`` with threshold ``c`` and the cascade's band
    half-width ``delta_band``; strategies never call its function."""
    bounds = np.asarray(bounds, float)
    diag = float(np.linalg.norm(bounds[:, 1] - bounds[:, 0]))
    return Problem(
        "box", len(bounds), bounds, c, PerturbationModel(np.full(len(bounds), 0.05)),
        n_0=n_0, eps_s=0.01 * diag, delta_band=delta_band, mode="extreme",
        _fn=lambda Y: np.sum(Y, axis=1),
    )


@pytest.fixture(scope="module")
def branin_setup(branin_state, branin_problem):
    spec = small_spec("kg_mr_discrete")
    streams = IterationStreams.from_seed(11, 2)
    is_sample = draw_is_sample(
        branin_problem.perturb, branin_problem.default_tau, spec.n_u, streams.u_stream
    )
    z_sample = gaussian_qmc(streams.z_stream, spec.n_v, np.ones(1))[:, 0]
    x_disc = branin_problem.bounds[:, 0] + streams.x_stream.take(spec.n_x) * (
        branin_problem.bounds[:, 1] - branin_problem.bounds[:, 0]
    )
    return branin_state, branin_problem, spec, is_sample, z_sample, x_disc


class TestSpecAndStreams:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionSpec("gradient_descent")

    def test_defaults(self):
        spec = AcquisitionSpec("ei")
        assert (spec.n_u, spec.n_v, spec.n_x) == (64, 64, 512)
        assert (spec.rho, spec.kappa) == (0.01, 2.0)

    def test_raw_count_dimension_default(self):
        spec = AcquisitionSpec("ei")
        assert spec.raw_count(2) == 512
        assert spec.raw_count(6) == 1024
        assert AcquisitionSpec("ei", n_raw=99).raw_count(6) == 99

    @pytest.mark.parametrize(
        "key, value", [("rho", 0.0), ("rho", -0.01), ("rho", np.nan), ("kappa", 0.0),
                       ("kappa", -2.0)],
    )
    def test_bad_smoothing_and_cascade_knobs_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            AcquisitionSpec("hc", **{key: value})

    def test_ts_mr_restarts_within_perturbation_candidates(self):
        # Stage 2 Boltzmann-selects its restarts from u = 0 and 64 + 64 draws.
        assert AcquisitionSpec("ts_mr", n_restarts=129).n_restarts == 129
        with pytest.raises(ValueError, match="n_restarts"):
            AcquisitionSpec("ts_mr", n_raw=512, n_restarts=130)
        assert AcquisitionSpec("ei", n_raw=512, n_restarts=130).n_restarts == 130

    def test_streams_deterministic(self):
        a = IterationStreams.from_seed(5, 3)
        b = IterationStreams.from_seed(5, 3)
        np.testing.assert_array_equal(a.u_stream.take(8), b.u_stream.take(8))
        np.testing.assert_array_equal(a.x_stream.take(8), b.x_stream.take(8))
        assert a.path_seed == b.path_seed and a.restart_seed == b.restart_seed


class TestThompson:
    def test_returns_point_in_box(self, branin_state, branin_problem):
        spec = small_spec("ts_mr")
        y, diag = ts_mr_next(context(branin_state, branin_problem, spec, 0))
        assert np.all(y >= branin_problem.bounds[:, 0])
        assert np.all(y <= branin_problem.bounds[:, 1])
        assert diag.nominal is not None and diag.perturbation is not None

    def test_bit_identical_across_invocations(self, branin_state, branin_problem):
        spec = small_spec("ts_mr")
        y1, _ = ts_mr_next(context(branin_state, branin_problem, spec, 3))
        y2, _ = ts_mr_next(context(branin_state, branin_problem, spec, 3))
        np.testing.assert_array_equal(y1, y2)

    def test_constant_mean_at_threshold_selects_zero_perturbation(self):
        # With mu identically c the indicator variance is constant, so the
        # perturbation stage maximizes the density alone: u = 0, y = x.
        prob = get_problem("quadratic-2d")
        hp = GPHyperparams(1.0, np.array([0.3, 0.3]), 0.0)
        state = prior_state(hp, prob.bounds, output_mean=prob.c, output_std=1.0)
        spec = small_spec("ts_mr")
        y, diag = ts_mr_next(context(state, prob, spec, 4))
        assert np.linalg.norm(diag.perturbation) < 1e-4
        np.testing.assert_allclose(y, diag.nominal, atol=1e-4)

    def test_locality_on_gp_problem(self):
        prob = make_gp_problem(2)
        pts = SobolStream(2, scramble_seed=21).take(20)
        state = fit_map(pts, prob.evaluate(pts), bounds=prob.bounds, seed=0)
        spec = small_spec("ts_mr")
        sigma = float(prob.perturb.sigmas[0])
        close = 0
        trials = 50
        for seed in range(trials):
            y, diag = ts_mr_next(context(state, prob, spec, seed))
            if np.linalg.norm(y - diag.nominal) <= 3 * sigma * np.sqrt(2):
                close += 1
        assert close >= 0.8 * trials


class TestDiscreteKG:
    def test_scan_matches_reference_route(self, branin_setup):
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        scan = _FantasyScan(state, x_disc, z_sample, is_sample, prob.bounds, prob.c, prob.use_log)
        rng = np.random.default_rng(0)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        for _ in range(10):
            y = prob.bounds[:, 0] + rng.uniform(size=2) * span
            fast, _ = scan.value_at(y)
            slow = kg_discrete_value(
                state, y, prob.use_log, x_disc, z_sample, is_sample, prob.bounds, prob.c
            )
            assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow))

    @pytest.mark.parametrize("name, n", [("branin-2d", 30), ("hartmann-6d", 40)])
    def test_scan_equals_fantasy_log_p_bytewise(self, name, n):
        # The scan and the one-shot/envelope route form k_n(t, y) alike, so at
        # the scan's per-fantasy best designs they give the same log P, byte
        # for byte, at the kg-branin benchmark's sample sizes.
        prob, state = fitted(name, n)
        bounds, span = prob.bounds, prob.bounds[:, 1] - prob.bounds[:, 0]
        spec = small_spec("kg_mr_discrete", n_u=64, n_v=32, n_x=512)
        streams = IterationStreams.from_seed(11, prob.dim)
        is_sample = draw_is_sample(prob.perturb, prob.default_tau, spec.n_u, streams.u_stream)
        z = gaussian_qmc(streams.z_stream, spec.n_v, np.ones(1))[:, 0]
        x_disc = bounds[:, 0] + streams.x_stream.take(spec.n_x) * span
        scan = _FantasyScan(state, x_disc, z, is_sample, bounds, prob.c, prob.use_log)
        sites = bounds[:, 0] + SobolStream(prob.dim, scramble_seed=5).take(16) * span
        for delta in (0.0, smoothing_width(bounds)):
            for y in sites:
                grid = scan.log_p_at(y, delta)
                argbest = np.argmin(grid, axis=1)
                log_p, _, _ = _fantasy_log_p(
                    state, y, z, x_disc[argbest], is_sample, bounds, delta, prob.c
                )
                np.testing.assert_array_equal(log_p, grid[np.arange(len(z)), argbest])

    def test_no_gain_at_training_point(self, branin_setup):
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        scan = _FantasyScan(state, x_disc, z_sample, is_sample, prob.bounds, prob.c, prob.use_log)
        val, _ = scan.value_at(state.train_inputs[3])
        assert -1e-3 <= val <= 1e-3

    def test_lemma_nonnegative_over_random_sites(self, branin_setup):
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        scan = _FantasyScan(state, x_disc, z_sample, is_sample, prob.bounds, prob.c, prob.use_log)
        ys = prob.bounds[:, 0] + SobolStream(2, scramble_seed=31).take(100) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        vals = scan.scan(ys)
        assert np.all(vals >= -1e-2)

    def test_envelope_gradient_matches_fd(self, branin_setup):
        # With the per-fantasy best grid designs held fixed, the envelope
        # gradient is the gradient of the fantasy-averaged value at them.
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        scan = _FantasyScan(state, x_disc, z_sample, is_sample, prob.bounds, prob.c, prob.use_log)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        ys = prob.bounds[:, 0] + SobolStream(2, scramble_seed=43).take(8) * span
        checked = 0
        for y in ys:
            value, grad = scan.value_and_grad(y)
            if not np.isfinite(value):
                continue
            xs = x_disc[scan.value_at(y)[1]]

            def averaged(site):
                log_p, _, _ = _fantasy_log_p(
                    state, site, z_sample, xs, is_sample, prob.bounds, 0.0, prob.c
                )
                return float(np.mean(_value_from_log_p(log_p, prob.use_log)))

            assert fd_gradient_error(averaged, y, grad, span) < 1e-3
            checked += 1
        assert checked >= 5

    def test_antithetic_qmc_matches_plain_mc(self, branin_state, branin_problem):
        prob = branin_problem
        spec = small_spec("kg_mr_discrete", n_x=64, n_u=32)
        streams = IterationStreams.from_seed(17, 2)
        is_sample = draw_is_sample(prob.perturb, prob.default_tau, spec.n_u, streams.u_stream)
        x_disc = prob.bounds[:, 0] + streams.x_stream.take(spec.n_x) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        y = np.array([1.0, 4.0])

        z_half = gaussian_qmc(streams.z_stream, 256, np.ones(1))[:, 0]
        z_anti = np.concatenate([z_half, -z_half])
        scan = _FantasyScan(
            branin_state, x_disc, z_anti, is_sample, prob.bounds, prob.c, prob.use_log
        )
        qmc_val, _ = scan.value_at(y)

        rng = np.random.default_rng(5)
        batch_vals = []
        for _ in range(20):
            z_mc = rng.standard_normal(500)
            s = _FantasyScan(
                branin_state, x_disc, z_mc, is_sample, prob.bounds, prob.c, prob.use_log
            )
            batch_vals.append(s.value_at(y)[0])
        batch_vals = np.asarray(batch_vals)
        se = batch_vals.std(ddof=1) / np.sqrt(len(batch_vals))
        assert abs(qmc_val - batch_vals.mean()) < 3 * se + 1e-6

    def test_next_point_in_box_and_deterministic(self, branin_state, branin_problem):
        spec = small_spec("kg_mr_discrete")
        y1, d1 = kg_discrete_next(context(branin_state, branin_problem, spec, 7))
        y2, d2 = kg_discrete_next(context(branin_state, branin_problem, spec, 7))
        np.testing.assert_array_equal(y1, y2)
        assert d1.value == d2.value
        assert np.all(y1 >= branin_problem.bounds[:, 0])
        assert np.all(y1 <= branin_problem.bounds[:, 1])
        assert d1.value >= -1e-2


class TestKeptRowScan:
    """The candidate scan forms its fantasy update only at the perturbed grid
    points inside the box (iota > 0), point-major."""

    def scan(self, name, n):
        prob, state = fitted(name, n)
        bounds, span = prob.bounds, prob.bounds[:, 1] - prob.bounds[:, 0]
        spec = small_spec("kg_mr_discrete")
        streams = IterationStreams.from_seed(11, prob.dim)
        is_sample = draw_is_sample(prob.perturb, prob.default_tau, spec.n_u, streams.u_stream)
        z = gaussian_qmc(streams.z_stream, spec.n_v, np.ones(1))[:, 0]
        x_disc = bounds[:, 0] + streams.x_stream.take(spec.n_x) * span
        scan = _FantasyScan(state, x_disc, z, is_sample, bounds, prob.c, prob.use_log)
        kept = np.count_nonzero(smooth_feasibility(scan.pts, bounds, 0.0) > 0.0)
        assert 0 < kept < len(scan.pts)
        sites = bounds[:, 0] + SobolStream(prob.dim, scramble_seed=5).take(4) * span
        return scan, kept, sites

    @pytest.mark.parametrize("name, n", [("branin-2d", 30), ("hartmann-6d", 40)])
    def test_update_formed_at_exactly_the_kept_rows(self, name, n, monkeypatch):
        scan, kept, sites = self.scan(name, n)
        shapes, real = [], acquisition._fantasy_marginal

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(acquisition, "_fantasy_marginal", spy)
        for delta in (0.0, smoothing_width(scan.bounds)):
            for y in sites:
                scan.log_p_at(y, delta)
        assert shapes == [(kept, len(scan.z))] * (2 * len(sites))

    def test_log_ndtr_reads_each_points_fantasies_together(self, monkeypatch):
        """log_ndtr's input h, (Nv, kept), is F-contiguous, so that each
        point's fantasies lie next to each other. Over the same values in C
        order, log_ndtr took 1.5x as long on 2 CPUs: 1.18 s against 0.79 s
        over the 25.5M elements of the 65 scan calls on a kgd-branin fixture
        (1.08-1.29 s against 0.90-0.93 s over 31.9M elements in a rerun)."""
        scan, kept, sites = self.scan("branin-2d", 30)
        layouts, real = [], reliability.std_normal_log_cdf

        def spy(h):
            layouts.append((h.shape, h.flags.f_contiguous))
            return real(h)

        monkeypatch.setattr(reliability, "std_normal_log_cdf", spy)
        for y in sites:
            scan.value_at(y)
        assert layouts == [((len(scan.z), kept), True)] * len(sites)


class TestOneShotKG:
    def test_joint_gradient_matches_fd(self, branin_setup):
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        delta = smoothing_width(prob.bounds)
        rng = np.random.default_rng(2)
        span = prob.bounds[:, 1] - prob.bounds[:, 0]
        n_v = len(z_sample)
        joint_span = np.tile(span, 1 + n_v)
        for _ in range(5):
            joint = np.tile(prob.bounds[:, 0], 1 + n_v) + rng.uniform(
                size=2 * (1 + n_v)
            ) * joint_span
            val, grad = oneshot_objective(
                state, joint, z_sample, is_sample, prob.bounds, delta, prob.c, True
            )
            if not np.isfinite(val):
                continue
            err = fd_gradient_error(
                lambda j: oneshot_objective(
                    state, j, z_sample, is_sample, prob.bounds, delta, prob.c, True
                )[0],
                joint,
                grad,
                joint_span,
            )
            assert err < 1e-3

    def test_oneshot_dominates_discrete_grid_value(self, branin_setup):
        state, prob, spec, is_sample, z_sample, x_disc = branin_setup
        scan = _FantasyScan(state, x_disc, z_sample, is_sample, prob.bounds, prob.c, prob.use_log)
        y = np.array([0.0, 6.0])
        disc_val, argbest = scan.value_at(y)
        # Seeded from the per-fantasy grid argmaxes, the continuous inner
        # maximization can only improve on the grid maximum (delta = 0 keeps
        # the two objectives identical).
        joint0 = np.concatenate([y, x_disc[argbest].reshape(-1)])
        v0, _ = oneshot_objective(
            state, joint0, z_sample, is_sample, prob.bounds, 0.0, prob.c, True
        )
        assert abs((v0 - scan.baseline) - disc_val) < 1e-8

        joint_bounds = np.vstack([prob.bounds] * (1 + len(z_sample)))
        _, v_opt, _ = multistart_qn(
            lambda j: oneshot_objective(
                state, j, z_sample, is_sample, prob.bounds, 0.0, prob.c, True
            ),
            joint_bounds,
            [joint0],
            sense="max",
            max_iters=60,
        )
        assert v_opt - scan.baseline >= disc_val - 1e-6

    def test_single_zero_fantasy_nonnegative(self, branin_setup):
        state, prob, spec, is_sample, _, x_disc = branin_setup
        scan = _FantasyScan(
            state, x_disc, np.array([0.0]), is_sample, prob.bounds, prob.c, prob.use_log
        )
        ys = prob.bounds[:, 0] + SobolStream(2, scramble_seed=41).take(32) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        vals = scan.scan(ys)
        # A zero fantasy draw leaves the mean unchanged but still shrinks the
        # variance, so the value is only non-negative up to discretization.
        assert np.all(vals >= -1e-2)

    def test_gain_nonnegative_when_inner_search_stops_short(self, branin_problem, monkeypatch):
        # The kg-branin benchmark fixture at seed 3, operation 1, with one
        # restart: 30 observations and the streams run_bo derives for them.
        # Seeded under the hard indicator, the joint search ended below the
        # best grid design's value under the smoothed box indicator; the
        # hard-indicator baseline made this -0.16.
        prob = branin_problem
        design_seed, fill_seed, base_seed = 1308534968, 677816824, 2133761440
        Y, v = initial_design(prob, design_seed)
        fill = prob.bounds[:, 0] + SobolStream(2, scramble_seed=fill_seed).take(
            30 - prob.n_0
        ) * (prob.bounds[:, 1] - prob.bounds[:, 0])
        Y, v = np.vstack([Y, fill]), np.append(v, prob.evaluate(fill))
        state = fit_map(Y, v, bounds=prob.bounds, seed=_child_seed(base_seed, "fit", 30))
        spec = AcquisitionSpec(
            "kg_mr_oneshot", n_u=64, n_v=32, n_x=512, n_raw=64, n_restarts=1
        )
        seed = _child_seed(base_seed, "acq", 30)
        searched = []

        def recording_qn(evaluate, bounds, starts, **kwargs):
            searched.append(starts)
            return multistart_qn(evaluate, bounds, starts, **kwargs)

        monkeypatch.setattr(acquisition, "multistart_qn", recording_qn)
        _, diag = kg_oneshot_next(
            AcqContext(state, prob, spec, IterationStreams.from_seed(seed, 2), Y, v)
        )
        assert diag.value >= -1e-6

        # The search starts at least as high as keeping the best grid design
        # under the smoothing it runs under, in every fantasy.
        streams = IterationStreams.from_seed(seed, 2)
        is_sample = draw_is_sample(prob.perturb, prob.default_tau, spec.n_u, streams.u_stream)
        z = gaussian_qmc(streams.z_stream, spec.n_v, np.ones(1))[:, 0]
        x_disc = prob.bounds[:, 0] + streams.x_stream.take(spec.n_x) * (
            prob.bounds[:, 1] - prob.bounds[:, 0]
        )
        scan = _FantasyScan(state, x_disc, z, is_sample, prob.bounds, prob.c, prob.use_log)
        delta = smoothing_width(prob.bounds)
        keep = np.tile(x_disc[np.argmax(scan.grid_values(delta))], spec.n_v)
        (starts,) = searched
        for start in starts:
            at_start, at_keep = (
                oneshot_objective(state, j, z, is_sample, prob.bounds, delta, prob.c, True)[0]
                for j in (start, np.concatenate([start[:2], keep]))
            )
            assert at_start >= at_keep - 1e-9

    def test_next_point_in_box_and_deterministic(self, branin_state, branin_problem):
        spec = small_spec("kg_mr_oneshot", n_v=4, n_raw=16, n_restarts=2)
        y1, d1 = kg_oneshot_next(context(branin_state, branin_problem, spec, 9))
        y2, d2 = kg_oneshot_next(context(branin_state, branin_problem, spec, 9))
        np.testing.assert_array_equal(y1, y2)
        assert np.all(y1 >= branin_problem.bounds[:, 0])
        assert np.all(y1 <= branin_problem.bounds[:, 1])
        assert d1.value >= -1e-2


@functools.cache
def fitted(name, n):
    """A MAP fit to the initial design plus a Sobol' fill to ``n`` points."""
    prob = get_problem(name)
    Y, v = initial_design(prob, seed=1)
    fill = prob.bounds[:, 0] + SobolStream(prob.dim, scramble_seed=8).take(n - len(v)) * (
        prob.bounds[:, 1] - prob.bounds[:, 0]
    )
    Y, v = np.vstack([Y, fill]), np.append(v, prob.evaluate(fill))
    return prob, fit_map(Y, v, bounds=prob.bounds, seed=0)


class TestRegime:
    """The problem's mode sets the importance-sampling scale tau and the KG
    value function; no spec field can contradict it."""

    @pytest.mark.parametrize("mode, tau, use_log", [("extreme", 3.0, True),
                                                     ("non_extreme", 1.0, False)])
    def test_strategies_follow_the_problems_mode(self, monkeypatch, mode, tau, use_log):
        prob = get_problem("quadratic-2d", mode)
        _, state = fitted("quadratic-2d", 10)
        taus = []

        def recording_draw(perturb, tau, n_u, stream):
            taus.append(tau)
            return draw_is_sample(perturb, tau, n_u, stream)

        monkeypatch.setattr(acquisition, "draw_is_sample", recording_draw)
        ts_mr_next(context(state, prob, AcquisitionSpec("ts_mr"), 0))
        scan, _, _ = acquisition._kg_scan(context(state, prob, small_spec("kg_mr_discrete"), 0))
        assert taus == [tau, tau]
        assert scan.use_log is use_log


class TestSearchGradients:
    """The gradient every non-KG strategy hands the L-BFGS search, checked
    against finite differences at each start of the search."""

    @pytest.mark.parametrize(
        "name, n, kind, overrides, infeasible, rule",
        [
            ("branin-2d", 25, "hc", {}, True, "F"),
            ("branin-2d", 25, "hc", {"delta_band": 1e-9}, False, "TN"),
            ("six-hump-camel-2d", 20, "hc", {"delta_band": 1e-9}, False, "MV"),
            ("branin-2d", 30, "egra", {}, False, "egra"),
            ("hartmann-6d", 30, "egra", {}, False, "egra"),
            ("branin-2d", 30, "ei", {}, False, "ei"),
            ("hartmann-6d", 30, "ei", {}, False, "ei"),
            ("branin-2d", 30, "ts_mr", {}, False, "ts_mr"),
            ("hartmann-6d", 30, "ts_mr", {}, False, "ts_mr"),
        ],
    )
    def test_gradients_match_fd(self, monkeypatch, name, n, kind, overrides, infeasible, rule):
        prob, state = fitted(name, n)
        Y, v = state.train_inputs, state.train_targets
        if infeasible:
            v = np.full(len(v), 1e6)
        searches = []

        def recording_qn(evaluate, bounds, starts, **kwargs):
            searches.append((evaluate, np.asarray(bounds, float), starts))
            return multistart_qn(evaluate, bounds, starts, **kwargs)

        monkeypatch.setattr(acquisition, "multistart_qn", recording_qn)
        prob = dataclasses.replace(prob, **overrides)
        _, diag = next_point(context(state, prob, small_spec(kind), 0, (Y, v)))
        assert diag.rule == rule
        assert searches
        for evaluate, bounds, starts in searches:
            span = bounds[:, 1] - bounds[:, 0]
            for start in starts:
                value, grad = evaluate(start)
                assert np.isfinite(value)
                err = fd_gradient_error(lambda p: evaluate(p)[0], start, grad, span)
                assert err < 1e-3


def fit_1d(xs, vs, bounds=((0.0, 1.0),)):
    return fit_map(
        np.asarray(xs, float)[:, None], np.asarray(vs, float), bounds=np.array(bounds)
    )


class TestDeepTails:
    """hc's rule F and ts_mr's stage 2 take log Phi of the standardized
    deviation h however deep in the tail it lies, with that value's gradient,
    so a search that starts there moves toward the limit state."""

    @pytest.mark.parametrize("kind", ["hc", "ts_mr"])
    def test_value_is_log_phi_of_unclamped_h(self, monkeypatch, kind):
        xs, vs = np.array([0.2, 0.8]), np.array([5.0, 6.0])
        state = fit_1d(xs, vs)
        c = -100.0  # nothing is feasible, so the cascade runs rule F
        problem = box_problem([[0.0, 1.0]], c)
        searches = []

        def recording_qn(evaluate, bounds, starts, **kwargs):
            searches.append((evaluate, np.asarray(bounds, float), starts))
            return multistart_qn(evaluate, bounds, starts, **kwargs)

        monkeypatch.setattr(acquisition, "multistart_qn", recording_qn)
        _, diag = next_point(context(state, problem, small_spec(kind), 5, (xs[:, None], vs)))
        assert diag.rule == {"hc": "F", "ts_mr": "ts_mr"}[kind]
        evaluate, bounds, starts = searches[-1]  # ts_mr: stage 2, over perturbations u
        origin = diag.nominal if kind == "ts_mr" else 0.0
        for start in starts:
            mean, var = state.posterior(origin + start[None, :])
            h = (mean[0] - c) / np.sqrt(var[0])
            assert h > 37.0
            if kind == "hc":
                want = log_ndtr(-h)
            else:
                want = problem.perturb.log_density(start[None, :])[0] + log_ndtr(h) + log_ndtr(-h)
            value, grad = evaluate(start)
            assert value == pytest.approx(want, rel=1e-12)
            span = bounds[:, 1] - bounds[:, 0]
            assert fd_gradient_error(lambda p: evaluate(p)[0], start, grad, span) < 1e-3


class TestCascade:
    def test_feasibility_rule_when_nothing_feasible(self, branin_state, branin_problem):
        history = (branin_state.train_inputs, np.full(branin_state.n, 1e6))
        y, diag = hc_next(context(branin_state, branin_problem, small_spec("hc"), 1, history))
        assert diag.rule == "F"
        assert np.all(y >= branin_problem.bounds[:, 0])
        assert np.all(y <= branin_problem.bounds[:, 1])

    def test_limit_state_rule_matches_grid_scan(self):
        # 1D: mean crosses c at 0.5; with a wide band the limit-state rule
        # maximizes the distance to the two samples at 0.2 and 0.8.
        c = 0.0
        xs = np.array([0.2, 0.8])
        vs = np.array([-0.3, 0.3])  # feasible at 0.2 (v <= c)
        state = fit_1d(xs, vs)
        problem = box_problem([[0.0, 1.0]], c)  # eps_s = 0.01, delta_band = 10
        y, diag = hc_next(context(state, problem, small_spec("hc"), 2, (xs[:, None], vs)))
        assert diag.rule == "LS"
        # Grid-scan oracle of the same criterion.
        grid = np.linspace(0.0, 1.0, 10_001)
        mean, _ = state.posterior(grid[:, None])
        band = np.abs(mean - c) <= 10.0
        dist = np.min(np.abs(grid[:, None] - xs[None, :]), axis=1)
        oracle = np.max(np.where(band, dist, 0.0))
        assert diag.value >= oracle - 0.01

    def test_tunneling_rule_when_band_empty(self):
        # Mean far above c everywhere except nowhere: the limit-state
        # indicator is empty, so the cascade falls through to tunneling.
        xs = np.array([0.2, 0.8])
        vs = np.array([5.0, 6.0])
        state = fit_1d(xs, vs)
        c = 5.2  # 0.2 is feasible; band half-width is tiny
        problem = box_problem([[0.0, 1.0]], c, delta_band=1e-6)
        y, diag = hc_next(context(state, problem, small_spec("hc"), 3, (xs[:, None], vs)))
        assert diag.rule in ("TN", "MV")

    def test_mv_fallback_warns_when_nothing_separated(self, caplog):
        # Samples every 0.01 leave no point eps_s = 0.01 away from all of them.
        xs = np.linspace(0.0, 1.0, 101)
        vs = np.sin(6.0 * xs)  # feasible (v <= 0) beyond x = pi / 6, so rule F is skipped
        state = fit_1d(xs, vs)
        problem = box_problem([[0.0, 1.0]], 0.0, delta_band=1e-9)
        with caplog.at_level(logging.WARNING, logger="relbo.acquisition"):
            _, diag = hc_next(context(state, problem, small_spec("hc"), 4, (xs[:, None], vs)))
        assert diag.rule == "MV"
        assert any("eps_s" in r.message for r in caplog.records)


class TestEgra:
    def test_closed_form_matches_mc_oracle(self):
        rng = np.random.default_rng(0)
        n_mc = 10**6
        z = rng.standard_normal(n_mc)
        for _ in range(50):
            mu = rng.uniform(-3, 3)
            sd = rng.uniform(0.2, 2.0)
            c = rng.uniform(-3, 3)
            kappa = rng.uniform(0.5, 3.0)
            closed, _ = expected_feasibility(np.array([mu]), np.array([sd]), c, kappa)
            closed = float(closed[0])
            draws = np.maximum(kappa * sd - np.abs(c - (mu + sd * z)), 0.0)
            se = draws.std() / np.sqrt(n_mc)
            assert abs(closed - draws.mean()) < 3 * se + 1e-8

    def test_kappa_zero_is_zero(self):
        got, _ = expected_feasibility(np.array([0.3]), np.array([1.0]), 0.0, 0.0)
        assert abs(got[0]) < 1e-14

    def test_far_tail_vanishes(self):
        got, _ = expected_feasibility(np.array([0.0]), np.array([0.1]), 10.0, 2.0)
        assert got[0] < 1e-12

    def test_next_point_in_box(self, branin_state, branin_problem):
        spec = small_spec("egra")
        y, diag = egra_next(context(branin_state, branin_problem, spec, 6))
        assert np.all(y >= branin_problem.bounds[:, 0])
        assert np.all(y <= branin_problem.bounds[:, 1])
        assert diag.value >= 0.0


class TestBaselines:
    def test_ei_closed_form_value(self):
        # mu = incumbent - sd: EI = sd * (Phi(1) + phi(1)).
        from relbo.numerics import std_normal_cdf, std_normal_pdf

        sd = 0.7
        got, _ = expected_improvement(np.array([1.0 - sd]), np.array([sd]), 1.0)
        want = sd * (std_normal_cdf(1.0) + std_normal_pdf(1.0))
        assert abs(got[0] - want) < 1e-12
        rng = np.random.default_rng(1)
        draws = np.maximum(1.0 - (1.0 - sd + sd * rng.standard_normal(10**6)), 0.0)
        se = draws.std() / np.sqrt(10**6)
        assert abs(got[0] - draws.mean()) < 3 * se

    def test_ei_negligible_at_observed_point(self, branin_state):
        history = (branin_state.train_inputs, branin_state.train_targets)
        i = int(np.argmin(branin_state.train_targets))
        mean, var = branin_state.posterior(branin_state.train_inputs[i][None, :])
        sd = np.sqrt(var)
        incumbent = float(np.min(branin_state.train_targets))
        got, _ = expected_improvement(mean, sd, incumbent)
        # The posterior at an observed input retains the observation-noise
        # floor (1% of the output scale), which bounds the residual EI.
        assert got[0] <= 0.02 * branin_state.transforms.output_std

    def test_ei_next_in_box(self, branin_state, branin_problem):
        spec = small_spec("ei")
        y, _ = ei_next(context(branin_state, branin_problem, spec, 8))
        assert np.all(y >= branin_problem.bounds[:, 0])
        assert np.all(y <= branin_problem.bounds[:, 1])

    def test_sobol_sequence_deterministic(self, branin_state):
        # Observation k after the initial design gets point k of the run's
        # scrambled sequence, whatever ran before (a resumed run included).
        bounds = np.array([[0.0, 2.0], [-1.0, 1.0]])
        prob = box_problem(bounds, n_0=3)
        spec = small_spec("sobol")
        stream = SobolStream(2, scramble_seed=5)
        for k in range(5):
            history = (np.zeros((3 + k, 2)), np.zeros(3 + k))
            ya, _ = sobol_next(context(branin_state, prob, spec, k, history, sobol_seed=5))
            yb, _ = sobol_next(context(branin_state, prob, spec, 9, history, sobol_seed=5))
            np.testing.assert_array_equal(ya, yb)
            np.testing.assert_array_equal(ya, bounds[:, 0] + stream.take(1)[0] * 2.0)
            assert np.all(ya >= bounds[:, 0]) and np.all(ya <= bounds[:, 1])
