"""Failure-probability estimators.

Everything funnels through the same smoothed, importance-weighted qMC sum:
the surrogate-based estimate of the expected failure probability (and its
negative log), the Thompson-path variant, and the hard-indicator ground-truth
evaluator used for scoring recommendations. All accumulation happens in
log-space so that probabilities far below 1e-8 neither underflow nor lose
their gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .numerics import (
    SobolStream,
    gaussian_qmc,
    in_blocks,
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

    def combine(self, x, u):
        """g(x, u) = x + u (fixed additive for all shipped problems)."""
        return np.asarray(x, float) + np.asarray(u, float)


@dataclass(frozen=True)
class ISSample:
    """qMC perturbation draws from N(0, tau^2 Sigma_u) with log p/q weights."""

    points: np.ndarray  # (N, d)
    log_weights: np.ndarray  # (N,)
    tau: float

    def __len__(self) -> int:
        return len(self.points)


def draw_is_sample(
    perturb: PerturbationModel, tau: float, n_u: int, stream: SobolStream
) -> ISSample:
    """Draw an importance sample of size ``n_u`` (a power of two for qMC
    balance) from the inflated distribution N(0, tau^2 Sigma_u)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if n_u & (n_u - 1):
        raise ValueError("n_u must be a power of two")
    u = gaussian_qmc(stream, n_u, np.zeros(perturb.dim), tau * perturb.sigmas)
    z = u / perturb.sigmas
    # log p(u) - log q(u) for the diagonal Gaussian pair
    log_w = perturb.dim * np.log(tau) + 0.5 * np.sum(z**2, axis=1) * (1.0 / tau**2 - 1.0)
    return ISSample(u, log_w, tau)


@dataclass(frozen=True)
class SmoothingConfig:
    """Bounds-smoothing width (design units) and the Thompson threshold width."""

    delta: float
    rho: float = 0.01

    def __post_init__(self):
        if self.delta < 0 or self.rho <= 0:
            raise ValueError("delta must be >= 0 and rho > 0")

    @classmethod
    def for_box(cls, bounds, rho: float = 0.01):
        """Smoothing width 5% of the box's shortest side, at most 0.1."""
        bounds = np.asarray(bounds, float)
        lmin = float(np.min(bounds[:, 1] - bounds[:, 0]))
        return cls(min(0.05 * lmin, 0.1), rho)


# -- bounds smoothing ------------------------------------------------------


def _ramp(z):
    """G(z) = P(1/2, z/(1-z)) on (0,1), clamped to {0,1} outside."""
    z = np.asarray(z, float)
    out = np.empty_like(z)
    out[z <= 0] = 0.0
    out[z >= 1] = 1.0
    mid = (z > 0) & (z < 1)
    zm = z[mid]
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


def smooth_feasibility(points, bounds, delta: float) -> np.ndarray:
    """Smoothed box-membership indicator in [0, 1].

    Exactly zero on and outside the box boundary for any delta; delta = 0
    gives the hard indicator of the box interior.
    """
    return _feasibility_parts(points, bounds, delta, want_grad=False)[0]


def _feasibility_parts(points, bounds, delta, want_grad):
    P = np.atleast_2d(np.asarray(points, float))
    bounds = np.asarray(bounds, float)
    a, b = bounds[:, 0], bounds[:, 1]
    if np.any(a >= b):
        raise ValueError("degenerate bounds")
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


def _phi_terms(state, mean, var, c):
    """(log Phi(h), h, sigma, degenerate-mask) for h = (mean - c)/sigma.

    At the posterior-variance floor the value degenerates to the hard
    indicator of mean >= c. ``var`` may broadcast against ``mean``.
    """
    floor = state.variance_floor
    deg = var <= floor * (1.0 + 1e-6)
    sigma = np.sqrt(np.maximum(var, floor))
    h = (mean - c) / sigma
    log_phi = std_normal_log_cdf(h)
    if np.any(deg):
        log_phi = np.where(deg, np.where(mean >= c, 0.0, -np.inf), log_phi)
    return log_phi, h, sigma, deg


def _smoothed_log_terms(log_phi, h, iota, want_grad, degenerate=None):
    """log J for J = Phi(h)*iota + (1-iota), plus the two gradient ratios.

    Returns (log_j, ratio_h, ratio_iota): d log J = ratio_h * dh + ratio_iota
    * diota, with both ratios computed stably in the deep tail.
    """
    with np.errstate(divide="ignore"):
        log_iota = np.where(iota > 0.0, np.log(np.maximum(iota, 1e-300)), -np.inf)
        log_ciota = np.where(iota < 1.0, np.log1p(-np.minimum(iota, 1.0 - 1e-17)), -np.inf)
    log_j = np.logaddexp(log_phi + log_iota, log_ciota)
    if not want_grad:
        return log_j, None, None
    pdf_log = std_normal_log_pdf(h)
    with np.errstate(invalid="ignore"):
        ratio_h = np.where(
            np.isfinite(log_phi + log_iota),
            np.exp(np.where(np.isfinite(log_iota), log_iota, 0.0) + pdf_log - log_j),
            0.0,
        )
    ratio_h = np.nan_to_num(ratio_h, nan=0.0)
    if degenerate is not None:
        ratio_h = np.where(degenerate, 0.0, ratio_h)
    j_safe = np.exp(np.maximum(log_j, -700.0))
    phi = np.exp(log_phi)
    ratio_iota = np.where(iota < 1.0, (phi - 1.0) / j_safe, 0.0)
    return log_j, ratio_h, ratio_iota


def _gp_log_j(state, xs, is_sample, bounds, smoothing, c, want_grad):
    """log J under the GP posterior marginal at every design in ``xs`` plus
    every perturbation, shape (m, n_u), and d log J / d design, (m, n_u, d)."""
    pts = perturbed_grid(xs, is_sample)
    if want_grad:
        marginal = state.posterior_with_grad(pts)
    else:
        marginal = (*state.posterior(pts), None, None)
    log_j, dlog_j = _gp_marginal_log_j(state, *marginal, pts, bounds, smoothing, c)
    shape = (len(pts) // len(is_sample), len(is_sample))
    return log_j.reshape(shape), None if dlog_j is None else dlog_j.reshape(*shape, -1)


def _gp_marginal_log_j(state, mean, var, dmean, dvar, pts, bounds, smoothing, c):
    """``_gp_log_j`` from a posterior marginal already computed at ``pts``.

    Without gradients ``mean`` and ``var`` may carry leading axes over the
    point axis (one row per fantasy, say), and log Phi is evaluated only where
    the box indicator is positive: J = 1 elsewhere, whatever the posterior.
    d log J is computed (and returned) when ``dmean`` is given. Its columns
    may run past the d coordinates of a point (derivatives w.r.t. a fantasy
    site, say); the indicator enters only the first d.
    """
    want_grad = dmean is not None
    iota, diota = _feasibility_parts(pts, bounds, smoothing.delta, want_grad)
    if not want_grad:
        keep = iota > 0.0
        log_j = np.zeros_like(mean)
        log_phi, h, _, _ = _phi_terms(state, mean[..., keep], var[..., keep], c)
        if smoothing.delta > 0.0:  # at delta = 0 the kept iota are all 1
            log_phi = _smoothed_log_terms(log_phi, h, iota[keep], False)[0]
        log_j[..., keep] = log_phi
        return log_j, None
    log_phi, h, sigma, deg = _phi_terms(state, mean, var, c)
    log_j, ratio_h, ratio_iota = _smoothed_log_terms(log_phi, h, iota, True, degenerate=deg)
    dsigma = dvar / (2.0 * sigma[:, None])
    with np.errstate(invalid="ignore"):
        dh = np.nan_to_num((dmean - h[:, None] * dsigma) / sigma[:, None], nan=0.0)
    dlog_j = ratio_h[:, None] * dh
    dlog_j[:, : pts.shape[1]] += ratio_iota[:, None] * diota
    return log_j, dlog_j


def _rff_log_j(path, xs, is_sample, bounds, smoothing, c, want_grad):
    """log J for a sample path at every design in ``xs`` plus every
    perturbation, the threshold smoothed by Phi((path - c) / rho), shape
    (m, n_u), and d log J / d design, (m, n_u, d)."""
    xs = np.atleast_2d(np.asarray(xs, float))
    if want_grad:
        vals, dvals = path.evaluate_with_grad(xs, is_sample.points)
    else:
        vals = path.evaluate(xs, is_sample.points)
    h = (vals - c) / smoothing.rho
    log_phi = std_normal_log_cdf(h)
    pts = perturbed_grid(xs, is_sample)
    iota, diota = _feasibility_parts(pts, bounds, smoothing.delta, want_grad)
    iota = iota.reshape(vals.shape)
    log_j, ratio_h, ratio_iota = _smoothed_log_terms(log_phi, h, iota, want_grad)
    if not want_grad:
        return log_j, None
    dh = dvals / smoothing.rho
    return log_j, ratio_h[..., None] * dh + ratio_iota[..., None] * diota.reshape(dh.shape)


def perturbed_grid(xs, is_sample):
    """Every design in ``xs`` plus every perturbation, shape (m * n_u, d)."""
    xs = np.atleast_2d(np.asarray(xs, float))
    return (xs[:, None, :] + is_sample.points[None, :, :]).reshape(-1, xs.shape[1])


# -- the smoothed, importance-weighted estimators --------------------------


@dataclass(frozen=True)
class PnEstimate:
    p: float
    log_p: float  # -inf when every term underflows
    r: float  # -log p; +inf sentinel when p == 0
    grad_log_p: np.ndarray | None  # d log p / d x


def _estimate(log_j_fn, model, x, is_sample, bounds, smoothing, c, want_grad):
    xs = np.asarray(x, float).reshape(1, -1)
    log_j, dlog_j = log_j_fn(model, xs, is_sample, bounds, smoothing, c, want_grad)
    log_p, grad = log_mean_wj(
        is_sample.log_weights, log_j[0], None if dlog_j is None else dlog_j[0]
    )
    log_p = float(log_p) if np.isfinite(log_p) else -np.inf
    return PnEstimate(float(np.exp(log_p)), log_p, -log_p, grad)


def _estimate_batch(log_j_fn, model, xs, is_sample, bounds, smoothing, c):
    log_j, _ = log_j_fn(model, xs, is_sample, bounds, smoothing, c, False)
    return log_mean_wj(is_sample.log_weights, log_j)[0]


def estimate_pn(
    state: SurrogateState,
    x,
    is_sample: ISSample,
    bounds,
    smoothing: SmoothingConfig,
    c: float,
    want_grad: bool = True,
) -> PnEstimate:
    """Smoothed, importance-weighted qMC estimate of the expected failure
    probability at nominal design ``x``, with the exact gradient of its log.
    """
    return _estimate(_gp_log_j, state, x, is_sample, bounds, smoothing, c, want_grad)


def estimate_ptilde(
    path: RFFPath,
    x,
    is_sample: ISSample,
    bounds,
    smoothing: SmoothingConfig,
    c: float,
    want_grad: bool = True,
) -> PnEstimate:
    """Failure probability of a posterior sample path, with the threshold
    indicator smoothed by Phi((path - c) / rho)."""
    return _estimate(_rff_log_j, path, x, is_sample, bounds, smoothing, c, want_grad)


def estimate_pn_batch(
    state: SurrogateState,
    xs: np.ndarray,
    is_sample: ISSample,
    bounds,
    smoothing: SmoothingConfig,
    c: float,
) -> np.ndarray:
    """log P_hat at each of a batch of nominal designs (no gradients).

    Vectorized across candidates; equal to looping :func:`estimate_pn`.
    """
    return _estimate_batch(_gp_log_j, state, xs, is_sample, bounds, smoothing, c)


def estimate_ptilde_batch(path, xs, is_sample, bounds, smoothing, c) -> np.ndarray:
    """log of the path failure probability at a batch of nominal designs."""
    return _estimate_batch(_rff_log_j, path, xs, is_sample, bounds, smoothing, c)


def evaluate_true_failure(
    problem,
    x,
    n_u: int = 2**20,
    tau: float | None = None,
    seed: int = 20_20,
) -> float:
    """Ground-truth scoring estimator: importance-weighted qMC with hard
    indicators on the true function. ``problem`` provides evaluate_unchecked,
    bounds, threshold and perturbation model."""
    perturb = problem.perturb
    if tau is None:
        tau = problem.default_tau
    stream = SobolStream(2 * ((perturb.dim + 1) // 2), scramble_seed=seed)
    sample = draw_is_sample(perturb, tau, n_u, stream)
    x = np.asarray(x, float)
    y_pts = x + sample.points
    bounds = np.asarray(problem.bounds, float)
    inside = np.all((y_pts >= bounds[:, 0]) & (y_pts <= bounds[:, 1]), axis=1)
    fail = ~inside
    if problem.c == -np.inf:
        fail = np.ones_like(fail)
    elif np.any(inside) and np.isfinite(problem.c):
        fv = in_blocks(problem.evaluate_unchecked, y_pts[inside], perturb.dim)
        fail[inside] = fv >= problem.c
    w = np.exp(sample.log_weights)
    return float(np.mean(w * fail))
