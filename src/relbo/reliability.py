"""Failure-probability estimators.

The surrogate estimators funnel through one smoothed, importance-weighted
qMC sum, log P = log mean(w * J) over the perturbations, J = Phi(h) * iota +
(1 - iota) with h = (mean - c) / sd of a Gaussian marginal: the estimate of
the expected failure probability (the GP posterior or its fantasy update)
and the Thompson-path variant (mean the sample path, variance rho^2). One
function, ``_log_p``, standardizes any source's (mean, var) into h and turns
it into log P and its gradient. J = 1 wherever iota = 0, so a value-only
source forms its marginal only at the perturbed points with iota > 0. All
accumulation happens in log-space so that probabilities far below 1e-8
neither underflow nor lose their gradients.

``evaluate_true_failure``, the ground truth that scores recommendations, is
not that sum: it is the linear mean of w * 1[fail] on the true function, and
a perturbed point on the closed box is inside there, where ``_log_p``'s hard
indicator (delta = 0) keeps only the open interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .numerics import (
    SobolStream,
    check_sizes,
    concat_blocks,
    gaussian_qmc,
    gaussian_stream_dim,
    in_blocks,
    parallel_map,
    row_blocks,
    std_normal_log_cdf,
    std_normal_log_pdf,
)
from .surrogate import RFFPath, SurrogateState

_LOG_2PI = np.log(2.0 * np.pi)
_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class PerturbationModel:
    """Additive diagonal-Gaussian perturbation: y = x + u, u ~ N(0, diag(sigmas^2))."""

    sigmas: np.ndarray  # (d,), design units

    def __post_init__(self):
        object.__setattr__(self, "sigmas", np.atleast_1d(np.asarray(self.sigmas, float)))
        if np.any(self.sigmas <= 0):
            raise ValueError("perturbation scales must be positive")

    @property
    def dim(self) -> int:
        return len(self.sigmas)

    def log_density(self, u) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, float))
        z = u / self.sigmas
        return -0.5 * np.sum(z**2, axis=1) - np.sum(np.log(self.sigmas)) - 0.5 * self.dim * _LOG_2PI


@dataclass(frozen=True)
class ISSample:
    """qMC perturbation draws from N(0, tau^2 Sigma_u) with log p/q weights."""

    points: np.ndarray  # (N, d)
    log_weights: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.points)


def draw_is_sample(
    perturb: PerturbationModel, tau: float, n_u: int, stream: SobolStream
) -> ISSample:
    """Draw an importance sample of size ``n_u`` (a power of two for qMC
    balance) from the inflated distribution N(0, tau^2 Sigma_u)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    check_sizes({"n_u": n_u}, qmc=("n_u",))
    u = gaussian_qmc(stream, n_u, tau * perturb.sigmas)
    z = u / perturb.sigmas
    # log p(u) - log q(u) for the diagonal Gaussian pair
    log_w = perturb.dim * np.log(tau) + 0.5 * np.sum(z**2, axis=1) * (1.0 / tau**2 - 1.0)
    return ISSample(u, log_w)


# -- bounds smoothing ------------------------------------------------------


def smoothing_width(bounds) -> float:
    """The bounds-smoothing width delta: 5% of the box's shortest side, at most 0.1."""
    bounds = np.asarray(bounds, float)
    return min(0.05 * float(np.min(bounds[:, 1] - bounds[:, 0])), 0.1)


def _ramp(z):
    """G(z) = P(1/2, z/(1-z)) on (0,1), clamped to {0,1} outside."""
    out = np.clip(np.asarray(z, float), 0.0, 1.0)
    out += 0.0  # clip keeps -0.0; G(-0.0) is +0.0
    mid = (out > 0) & (out < 1)
    zm = out[mid]
    out[mid] = gammainc(0.5, zm / (1.0 - zm))
    return out


def _ramp_grad(z):
    """dG/dz; zero outside (0,1), one-sided limits at the kinks."""
    z = np.asarray(z, float)
    out = np.zeros_like(z)
    mid = (z > 0) & (z < 1)
    zm = z[mid]
    w = zm / (1.0 - zm)
    # Gamma(1/2, 1) density at w, times dw/dz = (1-z)^-2
    out[mid] = np.exp(-w) / (np.sqrt(w) * _SQRT_PI) / (1.0 - zm) ** 2
    return out


def _feasibility_parts(points, bounds, delta, want_grad):
    """Smoothed box-membership indicator iota in [0, 1], zero on and outside
    the boundary (delta = 0: the hard interior indicator), and with
    ``want_grad`` its (m, d) gradient (None otherwise)."""
    P = np.atleast_2d(np.asarray(points, float))
    bounds = np.asarray(bounds, float)
    a, b = bounds[:, 0], bounds[:, 1]
    if np.any(a >= b):
        raise ValueError("degenerate bounds")
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    m, d = P.shape
    if delta == 0.0:
        inside = np.all((P > a) & (P < b), axis=1)
        iota = inside.astype(float)
        return (iota, np.zeros((m, d))) if want_grad else (iota, None)
    za = (P - a) / delta
    zb = (b - P) / delta
    Ga, Gb = _ramp(za), _ramp(zb)
    factors = Ga * Gb  # (m, d)
    iota = np.prod(factors, axis=1)
    if not want_grad:
        return iota, None
    grad = np.zeros((m, d))
    pos = iota > 0.0
    if np.any(pos):
        # d iota / d p_j = iota * (Ga'/Ga - Gb'/Gb) / delta, valid where all
        # factors are positive; gradient is defined as zero elsewhere.
        dGa, dGb = _ramp_grad(za[pos]), _ramp_grad(zb[pos])
        grad[pos] = iota[pos, None] * (dGa / Ga[pos] - dGb / Gb[pos]) / delta
    return iota, grad


# -- the log-space estimator core -----------------------------------------


def log_mean_wj(log_w, log_j, dlog_j=None):
    """log mean(w * J) over the last (importance-sample) axis, and its gradient.

    ``log_j`` has shape (..., n_u) and ``dlog_j``, when given, (..., n_u, k).
    The gradient is the softmax-weighted mean of d log J, shape (..., k).
    Where every term underflows the log-mean is -inf and the gradient zero.
    Returns (log_mean, grad or None).
    """
    terms = log_w + log_j
    lse = _logsumexp(terms)
    log_mean = lse - np.log(terms.shape[-1])
    if dlog_j is None:
        return log_mean, None
    finite = np.isfinite(log_mean)
    with np.errstate(invalid="ignore"):
        soft = np.where(finite[..., None], np.exp(terms - lse[..., None]), 0.0)
    grad = np.matmul(soft[..., None, :], dlog_j)[..., 0, :]
    return log_mean, np.where(finite[..., None], grad, 0.0)


def _logsumexp(terms):
    """log sum exp(terms) over the last axis, by scipy.special.logsumexp's
    algorithm in fewer passes: the maxima are left out of the shifted sum s,
    and the result is log1p(s / m) + log m + max for m tied maxima. A row of
    -inf gives -inf. ``terms`` holds no +inf or NaN."""
    top = np.max(terms, axis=-1, keepdims=True)
    at_top = terms == top
    with np.errstate(invalid="ignore"):  # -inf - -inf in all -inf rows
        shifted = np.exp(terms - top)
    shifted[at_top] = 0.0
    m = np.count_nonzero(at_top, axis=-1).astype(float)
    s = np.sum(shifted, axis=-1)
    return np.log1p(s / m) + np.log(m) + top[..., 0]


def _log_p(marginal_at, floor, c, pts, is_sample, bounds, delta, want_grad):
    """log P = log mean(w * J) over the perturbations of each design, for J =
    Phi(h) * iota + (1 - iota) at the perturbed grid ``pts`` (design-major,
    as from :func:`perturbed_grid`) and iota its smoothed box indicator, and
    the gradient of log P. This is the only code that standardizes: h = (mean
    - c) / sigma, sigma = sqrt(max(var, floor)). Where var is at the floor
    Phi(h) degenerates to the indicator of h >= 0. The ratios of d log J to
    dh and to d iota are computed stably in the deep tail.

    ``marginal_at(sel)`` gives a source's (mean, var) at the points ``sel``
    selects on the last axis: every point with ``want_grad``, else those with
    iota > 0 (J = 1 elsewhere, whatever the source), and only there does a
    value-only source form its marginal. With ``want_grad`` (dmean, dvar)
    follow, one row per point. Without gradients the marginal may carry
    leading axes over the point axis (one row per fantasy, say), and log P
    keeps them. The k columns of the gradients may run past the d
    coordinates of a point (derivatives w.r.t. a fantasy site, say); iota
    enters only the first d.

    Returns (log_p (..., m), grad (m, k) or None).
    """
    n_u = len(is_sample)
    iota, diota = _feasibility_parts(pts, bounds, delta, want_grad)
    sel = slice(None) if want_grad else iota > 0.0
    mean, var, *dmarginal = marginal_at(sel)
    sigma = np.sqrt(np.maximum(var, floor))
    h = (mean - c) / sigma
    deg = var <= floor * (1.0 + 1e-6)
    if want_grad:
        dmean, dvar = dmarginal
        sigma = np.reshape(sigma, (-1, 1))  # var may be one value for every point
        with np.errstate(invalid="ignore"):
            dh = np.nan_to_num((dmean - h[:, None] * (dvar / (2.0 * sigma))) / sigma, nan=0.0)
    # Free the marginal before log J and the reduction allocate as much.
    del mean, var, sigma, dmarginal
    iota = iota[sel]
    log_phi = std_normal_log_cdf(h)
    if np.any(deg):
        log_phi = np.where(deg, np.where(h >= 0.0, 0.0, -np.inf), log_phi)
    log_j = log_phi
    if want_grad or delta > 0.0:  # else the kept iota are all 1
        with np.errstate(divide="ignore"):
            log_iota, log_ciota = np.log(iota), np.log1p(-iota)
        log_j = np.logaddexp(log_phi + log_iota, log_ciota)
    if not want_grad:
        out = np.zeros((*h.shape[:-1], len(sel)))
        out[..., sel] = log_j
        # Free what the reduction does not read before it allocates as much.
        del h, deg, log_phi, log_j, iota, sel
        log_iota = log_ciota = None
        return log_mean_wj(is_sample.log_weights, out.reshape(*out.shape[:-1], -1, n_u))[0], None
    # log J is -inf only where iota = 1 and Phi(h) = 0, and there both ratios
    # are zero. Wherever iota < 1, J >= 1 - iota >= 1.1e-16, so dividing by J
    # is safe exactly where ratio_iota is kept.
    with np.errstate(all="ignore"):
        ratio_h = np.where(
            np.isfinite(log_j), np.exp(log_iota + std_normal_log_pdf(h) - log_j), 0.0
        )
        ratio_iota = np.where(iota < 1.0, (np.exp(log_phi) - 1.0) / np.exp(log_j), 0.0)
    if np.any(deg):
        ratio_h = np.where(deg, 0.0, ratio_h)
    dlog_j = ratio_h[:, None] * dh
    dlog_j[:, : diota.shape[1]] += ratio_iota[:, None] * diota
    return log_mean_wj(
        is_sample.log_weights, log_j.reshape(-1, n_u), dlog_j.reshape(-1, n_u, dh.shape[1])
    )


def _path_log_p(path, xs, is_sample, bounds, delta, c, rho, want_grad):
    """log P for a sample path at each design in ``xs``, (m,), and its gradient
    w.r.t. the design, (m, d): the path is the mean of a marginal of variance
    rho^2 and no floor, so h = (path - c) / rho, as sqrt(rho^2) = rho exactly."""
    xs = np.atleast_2d(np.asarray(xs, float))
    # Evaluated before the perturbed grid exists, which would add to its peak memory.
    if want_grad:
        vals, dvals = path.evaluate_with_grad(xs, is_sample.points)
        grads = (dvals.reshape(-1, xs.shape[1]), 0.0)
    else:
        vals, grads = path.evaluate(xs, is_sample.points), ()
    pts = perturbed_grid(xs, is_sample)
    return _log_p(
        lambda sel: (vals.reshape(-1)[sel], rho**2, *grads), 0.0, c, pts, is_sample, bounds,
        delta, want_grad,
    )


def perturbed_grid(xs, is_sample):
    """Every design in ``xs`` plus every perturbation, shape (m * n_u, d)."""
    xs = np.atleast_2d(np.asarray(xs, float))
    return (xs[:, None, :] + is_sample.points[None, :, :]).reshape(-1, xs.shape[1])


# -- the smoothed, importance-weighted estimators --------------------------


def estimate_pn(
    state: SurrogateState, x, is_sample: ISSample, bounds, delta: float, c: float
) -> tuple[float, np.ndarray]:
    """Smoothed, importance-weighted qMC estimate of the log expected failure
    probability at nominal design ``x`` (-inf when every term underflows),
    and its exact gradient: (log_p, grad_log_p). The box indicator is
    smoothed by width ``delta`` (0: hard; see :func:`smoothing_width`).
    """
    pts = perturbed_grid(np.reshape(x, (1, -1)), is_sample)
    log_p, grad = _log_p(
        lambda sel: state.posterior_with_grad(pts), state.variance_floor, c, pts, is_sample,
        bounds, delta, True,
    )
    return float(log_p[0]), grad[0]


def estimate_ptilde(
    path: RFFPath, x, is_sample: ISSample, bounds, delta: float, c: float, rho: float
) -> tuple[float, np.ndarray]:
    """(log_p, grad_log_p) of the failure probability of a posterior sample
    path, with the box indicator smoothed by width ``delta`` and the
    threshold indicator by Phi((path - c) / rho)."""
    xs = np.reshape(x, (1, -1))
    log_p, grad = _path_log_p(path, xs, is_sample, bounds, delta, c, rho, True)
    return float(log_p[0]), grad[0]


def estimate_pn_batch(
    state: SurrogateState, xs: np.ndarray, is_sample: ISSample, bounds, delta: float, c: float
) -> np.ndarray:
    """log P_hat at each of a batch of nominal designs (no gradients).

    Vectorized over blocks of candidates, one thread per CPU, so each thread
    builds the perturbed grid of one block at a time; equal to looping
    :func:`estimate_pn`.
    """

    def block(xs):
        pts = perturbed_grid(xs, is_sample)
        return _log_p(
            lambda sel: state.posterior(pts[sel]), state.variance_floor, c, pts, is_sample,
            bounds, delta, False,
        )[0]

    xs = np.atleast_2d(np.asarray(xs, float))
    return concat_blocks(parallel_map(block, row_blocks(xs, len(is_sample) * xs.shape[1])))


def estimate_ptilde_batch(path, xs, is_sample, bounds, delta, c, rho) -> np.ndarray:
    """log of the path failure probability at a batch of nominal designs."""
    return _path_log_p(path, xs, is_sample, bounds, delta, c, rho, False)[0]


def evaluate_true_failure(
    problem,
    x,
    n_u: int = 2**20,
    seed: int = 20_20,
) -> float:
    """Ground-truth scoring estimator: importance-weighted qMC with hard
    indicators on the true function. ``problem`` provides evaluate_unchecked,
    bounds, threshold, perturbation model and importance-sampling scale tau."""
    perturb = problem.perturb
    stream = SobolStream(gaussian_stream_dim(perturb.dim), scramble_seed=seed)
    sample = draw_is_sample(perturb, problem.default_tau, n_u, stream)
    x = np.asarray(x, float)
    y_pts = x + sample.points
    bounds = np.asarray(problem.bounds, float)
    inside = np.all((y_pts >= bounds[:, 0]) & (y_pts <= bounds[:, 1]), axis=1)
    fail = ~inside
    if np.any(inside):
        fv = in_blocks(problem.evaluate_unchecked, y_pts[inside], perturb.dim)
        fail[inside] = fv >= problem.c
    w = np.exp(sample.log_weights)
    return float(np.mean(w * fail))
