"""Reference implementations that only the tests use: the (m, n, d) kernel
gradient tensor, the refit on a fantasy observation and the route of the
discrete knowledge gradient built on it, the threshold calibration scan, the
regularized lower incomplete gamma function and the curve CSV reader. The
library computes the same quantities by other routes (or not at all); these
are the oracles the tests check it against.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from relbo.acquisition import _value_from_log_p
from relbo.numerics import SobolStream
from relbo.reliability import estimate_pn_batch
from relbo.report import AggregateCurve
from relbo.surrogate import GPHyperparams, SurrogateState, _scaled_sqdist

_SQRT5 = np.sqrt(5.0)


def matern52_grad_a(A, B, hp: GPHyperparams) -> np.ndarray:
    """d k(a_i, b_j) / d a_i, shape (len(A), len(B), d).

    Uses dk/dr = -s^2 (5/3) r (1 + sqrt5 r) exp(-sqrt5 r), which combines with
    dr/da = (a-b)/(l^2 r) to a form with no division by r.
    """
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    ls = hp.lengthscales
    r = np.sqrt(_scaled_sqdist(A, B, ls))
    coef = -hp.output_scale_sq * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)
    ls2 = ls**2
    G = np.empty((len(A), len(B), len(ls)))
    for j in range(len(ls)):  # one dimension at a time: no length-d inner loop
        np.multiply(coef, (A[:, j, None] - B[None, :, j]) / ls2[j], out=G[:, :, j])
    return G


def refit_on_fantasy(state, y, z: float) -> SurrogateState:
    """The brute-force fantasy posterior: append the observation
    mu_n(y) + z sqrt(v_n(y)) at ``y`` and rebuild the whole state with the
    same hyperparameters, transforms and jitter."""
    y = np.asarray(y, float).reshape(-1)
    mean, var = state.posterior(y[None, :])
    return SurrogateState(
        np.vstack([state.train_inputs, y[None, :]]),
        np.append(state.train_targets, mean[0] + z * np.sqrt(var[0])),
        state.transforms,
        state.hyperparams,
        jitter=state.jitter,
    )


def kg_discrete_value(
    state, y, use_log, x_disc, z_sample, is_sample, bounds, c, baseline=None
):
    """One-step expected gain in the best achievable value over a finite
    design grid, from a hypothetical observation at ``y``.

    Reference route: conditions the surrogate on each fantasy observation and
    re-estimates the failure probability over the grid. The bounds smoothing
    is zero here (the grid is fixed, no gradients needed).
    """
    if baseline is None:
        base_log = estimate_pn_batch(state, x_disc, is_sample, bounds, 0.0, c)
        baseline = float(np.max(_value_from_log_p(base_log, use_log)))
    total = 0.0
    for z in z_sample:
        fant = refit_on_fantasy(state, y, float(z))
        log_p = estimate_pn_batch(fant, x_disc, is_sample, bounds, 0.0, c)
        best = np.max(_value_from_log_p(log_p, use_log))
        if best == np.inf:
            return np.inf
        total += best
    return total / len(z_sample) - baseline


def calibrate_threshold(fn, bounds, target_fraction: float, n_scan: int = 2**16):
    """The threshold making ``target_fraction`` of a Sobol' scan of the box
    fail (exceed the threshold): the (1 - fraction)-quantile of the values."""
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target_fraction must be in (0, 1)")
    bounds = np.asarray(bounds, float)
    pts = bounds[:, 0] + SobolStream(len(bounds)).take(n_scan) * (
        bounds[:, 1] - bounds[:, 0]
    )
    vals = np.asarray(fn(pts), float)
    return float(np.quantile(vals, 1.0 - target_fraction))


def regularized_lower_gamma(shape: float, x):
    """P(shape, x), the regularized lower incomplete gamma function."""
    if shape <= 0:
        raise ValueError("shape must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be non-negative")
    return special.gammainc(shape, x)


def read_curves_csv(path):
    """The curves a ``report.write_curves_csv`` file holds."""
    rows = {}
    with open(path) as fh:
        fh.readline()  # header
        for line in fh:
            prob, alg, n, med, lo, up, reps, _ = line.strip().split(",")
            rows.setdefault((prob, alg), []).append(
                (int(n), float(med), float(lo), float(up), int(reps))
            )
    curves = []
    for (prob, alg), data in rows.items():
        data.sort()
        arr = np.array(data, float)
        curves.append(
            AggregateCurve(
                prob, alg, arr[:, 0].astype(int), arr[:, 1], arr[:, 2], arr[:, 3],
                int(arr[0, 4]),
            )
        )
    return curves
