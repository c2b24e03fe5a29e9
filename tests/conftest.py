"""Shared fixtures, the finite-difference gradient checker and the fantasy
marginal as the knowledge-gradient strategies compute it.

The checker treats the analytic gradient as the trusted side and finite
differences as the noisy oracle: for each point it sweeps several central
difference steps (scaled to the box size per coordinate) and keeps the best
agreement, since no single step is simultaneously safe from truncation and
cancellation error across all magnitudes.
"""

from __future__ import annotations

import numpy as np
import pytest

from relbo.acquisition import _cross_cov, _fantasy_marginal
from relbo.harness import initial_design
from relbo.numerics import SobolStream
from relbo.problems import get_problem
from relbo.surrogate import fit_map, matern52

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
    ``posterior_with_grad`` with ``want_grad`` (the one-shot objective and the
    envelope gradient), else from ``posterior`` and ``_cross_cov`` (the
    candidate scan and the final scoring)."""
    y = np.asarray(y, float)
    z = np.full(len(pts), float(z))
    if want_grad:
        mean, var, dmean, dvar, kty, dk_dt, dk_dy = state.cross_cov_with_grad(pts, y)
        _, vy, _, dvy = state.posterior_with_grad(y[None, :])
        grads = (dmean, dvar, dk_dt, dk_dy, dvy[0])
    else:
        mean, var = state.posterior(pts)
        pts_n = state.transforms.x_to_unit(pts)
        kty = _cross_cov(state, pts_n, matern52(pts_n, state.Xn, state.hyperparams), y)
        _, vy = state.posterior(y[None, :])
        grads = None
    return _fantasy_marginal(state, z, mean, var, kty, vy[0], grads)[:2]


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
