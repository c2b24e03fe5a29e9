"""Shared fixtures, the finite-difference gradient checker, the fantasy
marginal as the knowledge-gradient strategies compute it, the per-point
log J of the GP estimator and the smoothed box indicator iota.

The checker treats the analytic gradient as the trusted side and finite
differences as the noisy oracle: for each point it sweeps several central
difference steps (scaled to the box size per coordinate) and keeps the best
agreement, since no single step is simultaneously safe from truncation and
cancellation error across all magnitudes.
"""

from __future__ import annotations

import numpy as np
import pytest

from relbo.acquisition import _fantasy_marginal
from relbo.harness import initial_design
from relbo.numerics import SobolStream
from relbo.problems import get_problem
from relbo.reliability import ISSample, _feasibility_parts, estimate_pn_batch
from relbo.surrogate import GPHyperparams, SurrogateState, Transforms, fit_map

FD_STEP_SCALES = (1e-4, 1e-5, 1e-6, 1e-7)


def fd_gradient_error(value_fn, x, grad, ranges, step_scales=FD_STEP_SCALES):
    """Worst-coordinate relative error of ``grad`` against the best central
    finite difference over several step sizes.

    ``ranges`` gives a characteristic length per coordinate (steps are
    ``scale * range``); the error denominator is floored at 1e-8 so that
    near-zero gradient entries compare absolutely.
    """
    x = np.asarray(x, float)
    ranges = np.broadcast_to(np.asarray(ranges, float), x.shape)
    worst = 0.0
    for j in range(len(x)):
        best = np.inf
        for scale in step_scales:
            h = scale * ranges[j]
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (value_fn(xp) - value_fn(xm)) / (2.0 * h)
            denom = max(abs(grad[j]), abs(fd), 1e-8)
            best = min(best, abs(fd - grad[j]) / denom)
        worst = max(worst, best)
    return worst


def fantasy_marginal(state, pts, y, z, want_grad):
    """The posterior (mean, var) at ``pts`` after the fantasy observation
    mu_n(y) + z sqrt(v_n(y)) at ``y``, by ``acquisition._fantasy_marginal``
    fed the way the strategies feed it: from ``cross_cov_with_grad`` and
    ``posterior_with_grad`` with ``want_grad`` (the one-shot objective, its
    final scoring and the envelope gradient), else from ``posterior`` and
    ``cross_cov_at`` (the candidate scan)."""
    y = np.asarray(y, float)
    z = np.full(len(pts), float(z))
    if want_grad:
        mean, var, dmean, dvar, kty, dk_dt, dk_dy = state.cross_cov_with_grad(pts, y)
        _, vy, _, dvy = state.posterior_with_grad(y[None, :])
        grads = (dmean, dvar, dk_dt, dk_dy, dvy[0])
    else:
        mean, var = state.posterior(pts)
        kty = state.cross_cov_at(pts)(y)
        _, vy = state.posterior(y[None, :])
        grads = None
    return _fantasy_marginal(state, z, mean, var, kty, vy[0], grads)[:2]


def log_j_at(state, pts, bounds, delta, c):
    """log J of the GP estimator at each of the points ``pts``: the estimate
    at that design under the one-point importance sample u = 0, weight 1."""
    pts = np.atleast_2d(np.asarray(pts, float))
    origin = ISSample(np.zeros((1, pts.shape[1])), np.zeros(1))
    return estimate_pn_batch(state, pts, origin, bounds, delta, c)


def smooth_feasibility(points, bounds, delta):
    """The smoothed box-membership indicator iota of each point, as the
    estimators form it."""
    return _feasibility_parts(points, bounds, delta, False)[0]


@pytest.fixture(scope="session")
def noiseless_state():
    """A surrogate with a negligible noise variance: at its training inputs
    the posterior variance sits at the floor."""
    X = SobolStream(2, scramble_seed=2).take(12)
    y = np.sin(6.0 * X[:, 0]) + X[:, 1] ** 2
    hp = GPHyperparams(1.0, np.full(2, 0.3), 0.0, noise_variance=1e-14)
    return SurrogateState(X, y, Transforms.from_data(y, [[0, 1], [0, 1]]), hp)


@pytest.fixture(scope="session")
def branin_problem():
    return get_problem("branin-2d")


@pytest.fixture(scope="session")
def branin_state(branin_problem):
    """A 25-point MAP-fitted surrogate of the Branin problem."""
    prob = branin_problem
    Y, v = initial_design(prob, seed=1)
    extra = prob.bounds[:, 0] + SobolStream(2, scramble_seed=8).take(19) * (
        prob.bounds[:, 1] - prob.bounds[:, 0]
    )
    Y = np.vstack([Y, extra])
    v = np.append(v, prob.evaluate(extra))
    return fit_map(Y, v, bounds=prob.bounds, seed=0)


@pytest.fixture(scope="session")
def hartmann_state():
    """A 40-point MAP-fitted surrogate of the hartmann-6d problem."""
    prob = get_problem("hartmann-6d")
    Y, v = initial_design(prob, seed=1)
    fill = prob.bounds[:, 0] + SobolStream(6, scramble_seed=2).take(40 - len(v)) * (
        prob.bounds[:, 1] - prob.bounds[:, 0]
    )
    Y = np.vstack([Y, fill])
    return fit_map(Y, np.append(v, prob.evaluate(fill)), bounds=prob.bounds, seed=3)


@pytest.fixture(scope="session")
def quadratic_problem():
    return get_problem("quadratic-2d")


@pytest.fixture(scope="session")
def quadratic_state(quadratic_problem):
    """A surrogate fitted on a dense design of the quadratic problem."""
    prob = quadratic_problem
    pts = prob.bounds[:, 0] + SobolStream(2, scramble_seed=3).take(60) * (
        prob.bounds[:, 1] - prob.bounds[:, 0]
    )
    return fit_map(pts, prob.evaluate(pts), bounds=prob.bounds, seed=0)
