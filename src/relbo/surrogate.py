"""Gaussian-process surrogate of the black-box objective.

Matern-5/2 ARD kernel, exact inference via Cholesky with a cached inverse
factor, MAP hyperparameter fitting under gamma priors, and pathwise sample
functions via random Fourier features. Conditioning on a fantasy observation
is the acquisition's closed-form rank-one update of a posterior marginal; no
state is rebuilt for it.

Internally all computation uses normalized inputs (box mapped to [0,1]^d)
and standardized outputs (zero mean, unit variance); the public API works
in original units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.linalg.blas import dgemm

from .numerics import in_blocks
from .optimizers import multistart_qn

NOISE_VARIANCE = 0.01**2  # standardized units, never fitted
NUGGET = 1e-12  # posterior-variance floor, standardized units
OUTPUT_STD_FLOOR = 1e-8
MAP_RESTARTS = 5  # prior draws after the prior-mode start of fit_map

# Gamma priors (shape, rate) on the hyperparameters.
PRIOR_OUTPUT_SCALE_SQ = (2.0, 0.15)
PRIOR_LENGTHSCALE = (3.0, 10.0)

_SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class GPHyperparams:
    output_scale_sq: float
    lengthscales: np.ndarray  # (d,), normalized-input units
    constant_mean: float  # standardized-output units
    noise_variance: float = NOISE_VARIANCE

    def __post_init__(self):
        object.__setattr__(
            self, "lengthscales", np.atleast_1d(np.asarray(self.lengthscales, float))
        )
        if self.output_scale_sq <= 0 or np.any(self.lengthscales <= 0):
            raise ValueError("output scale and lengthscales must be positive")


@dataclass(frozen=True)
class Transforms:
    """Per-coordinate affine input map to [0,1]^d plus output standardization."""

    input_lo: np.ndarray
    input_hi: np.ndarray
    output_mean: float
    output_std: float

    @classmethod
    def from_data(cls, targets, bounds):
        """Map the box ``bounds`` to [0,1]^d and standardize the targets."""
        bounds = np.asarray(bounds, float)
        lo, hi = bounds[:, 0], bounds[:, 1]
        hi = np.where(hi > lo, hi, lo + 1.0)
        sd = float(np.std(targets))
        return cls(lo, hi, float(np.mean(targets)), max(sd, OUTPUT_STD_FLOOR))

    @property
    def input_scale(self):
        return self.input_hi - self.input_lo

    def x_to_unit(self, x):
        return (np.asarray(x, float) - self.input_lo) / self.input_scale

    def y_standardize(self, v):
        return (np.asarray(v, float) - self.output_mean) / self.output_std

    def y_unstandardize(self, v):
        return np.asarray(v, float) * self.output_std + self.output_mean


def _scaled_sqdist(A, B, ls):
    """Pairwise squared ARD distance between rows of A and B."""
    As, Bs = A / ls, B / ls
    d2 = np.sum(As**2, axis=1)[:, None] + np.sum(Bs**2, axis=1)[None, :]
    cross = As @ Bs.T
    cross *= 2.0
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def _matern_block(A, B, hp: GPHyperparams, want_coef=False):
    """Matern-5/2 kernel block between rows of A and B (normalized coords)
    from one distance pass and, with ``want_coef``, the coefficient C of its
    gradient: d k(a_i, b_j) / d a_i = C_ij (a_i - b_j) / l^2 (None otherwise).

    C = -s^2 (5/3) (1 + sqrt5 r) exp(-sqrt5 r) is dk/dr divided by r, so the
    gradient has no division by r.
    """
    s2 = hp.output_scale_sq
    r = _scaled_sqdist(np.atleast_2d(A), np.atleast_2d(B), hp.lengthscales)
    np.sqrt(r, out=r)
    # In place, in the order of s2 (1 + sqrt5 r + 5 r^2 / 3) exp(-sqrt5 r).
    e = np.multiply(r, -_SQRT5)
    np.exp(e, out=e)
    k = np.multiply(r, _SQRT5)
    k += 1.0
    coef = None
    if want_coef:
        coef = np.multiply(k, -s2 * (5.0 / 3.0))
        coef *= e
    np.multiply(r, r, out=r)
    r *= 5.0
    r /= 3.0
    k += r
    k *= s2
    k *= e
    return k, coef


def matern52(A, B, hp: GPHyperparams) -> np.ndarray:
    """Matern-5/2 kernel matrix between rows of A and B (normalized coords)."""
    return _matern_block(A, B, hp)[0]


def _scipy_matmul(A, B):
    """A @ B by SciPy's BLAS, which also factors K, in place of NumPy's: the
    two load separate OpenBLAS builds, each with its own worker threads, and
    with 2 BLAS threads on 2 CPUs the posterior's products ran slower through
    NumPy's (``kg_oneshot_next`` on a branin-2d n=30 fit: 11.8-14.3 s, against
    8.5-8.7 s through SciPy's). It also fixes the bytes: for a one-row A,
    as every L-BFGS evaluation's posterior has, NumPy's product differs from
    SciPy's in the last bits (up to 1.4e-14 at n = 80), at one BLAS thread as
    at two, and ``A @ B`` here moves golden digests. The transposes hand
    C-contiguous operands to the Fortran routine without a copy."""
    return dgemm(1.0, B.T, A.T).T


def _contract(C, w, P, X, ls2):
    """sum_n C[m, n] w[n] (P[m] - X[n]) / l^2 for an (m, n) coefficient
    matrix C and weights w (all ones when None): (rowsum(C w) P - (C w) X) /
    l^2, both terms from one product C [w | w X]. ``P`` may be one row."""
    w = np.ones(len(X)) if w is None else w
    CW = C @ np.column_stack([w, w[:, None] * X])
    return (CW[:, :1] * P - CW[:, 1:]) / ls2


class SurrogateState:
    """Immutable posterior belief over the black-box function.

    Construct via :func:`fit_map` or :func:`prior_state`, or directly from
    data and fixed hyperparameters. Holds the Cholesky factor L of the kernel
    matrix, its inverse L^-1 and K^-1 (y - m), from which every posterior
    block is one product.
    """

    def __init__(self, train_inputs, train_targets, transforms, hyperparams, jitter=0.0):
        self.train_inputs = np.atleast_2d(np.asarray(train_inputs, float))
        self.train_targets = np.atleast_1d(np.asarray(train_targets, float))
        self.transforms = transforms
        self.hyperparams = hyperparams
        self.jitter = jitter
        self._build()

    def _build(self):
        hp, tr = self.hyperparams, self.transforms
        self.Xn = tr.x_to_unit(self.train_inputs)
        zc = tr.y_standardize(self.train_targets) - hp.constant_mean
        K = matern52(self.Xn, self.Xn, hp)
        K[np.diag_indices_from(K)] += hp.noise_variance + self.jitter
        self.chol = cholesky(K, lower=True)
        self.chol_inv = solve_triangular(self.chol, np.eye(self.n), lower=True)
        self.alpha = cho_solve((self.chol, True), zc)
        self._zc = zc
        # The (n, n + 1) right-hand side every posterior block is multiplied
        # by: [alpha | L^-T]. One product with the (m, n) kernel block gives
        # the mean and L^-1 k. One wide product in place of two narrow ones
        # also spares a small batch the start-up of a multithreaded BLAS call
        # per product.
        self._rhs = np.hstack([self.alpha[:, None], self.chol_inv.T])

    def kinv(self, b):
        """K^-1 b = L^-T (L^-1 b) by the cached L^-1, for b of shape (n,) or
        (n, k)."""
        return self.chol_inv.T @ (self.chol_inv @ b)

    @property
    def n(self) -> int:
        return len(self.train_targets)

    @property
    def dim(self) -> int:
        return len(self.transforms.input_lo)

    @property
    def variance_floor(self) -> float:
        """The posterior-variance floor in original units: ``posterior`` and
        ``posterior_with_grad`` never return a variance below it."""
        return NUGGET * self.transforms.output_std**2

    # -- posterior ---------------------------------------------------------

    def posterior(self, points):
        """Marginal posterior mean and variance at ``points``, original units,
        each of shape (m,)."""
        tr = self.transforms
        Pn = tr.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        mean_std, var_std = in_blocks(self._marginal, Pn, self._rhs.shape[1])
        return tr.y_unstandardize(mean_std), var_std * tr.output_std**2

    def posterior_with_grad(self, points):
        """Marginal posterior at ``points`` plus gradients w.r.t. the points.

        Returns (mean, var, dmean, dvar) with dmean, dvar of shape (m, d),
        all in original units. The mean and variance are those of
        :meth:`posterior`, byte for byte.
        """
        Pn = self.transforms.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        parts = in_blocks(lambda B: self._marginal(B, True)[:4], Pn, self._rhs.shape[1])
        return self._grad_units(*parts)

    def _marginal(self, Pn, want_grad=False):
        """Standardized marginal (mean, var) at normalized points. With
        ``want_grad`` it is followed by (dmean, dvar) and by the (m, n)
        kernel gradient coefficient, K^-1 k = L^-T (L^-1 k) and kernel block
        k they come from, each (m, 0) without training data.

        Both modes take the same product of the kernel block with the cached
        right-hand side, so the mean and var = s^2 - |L^-1 k|^2 do not depend
        on the mode; each gradient is one ``_contract``.
        """
        hp = self.hyperparams
        Kt, coef = _matern_block(Pn, self.Xn, hp, want_grad)  # (m, n)
        KR = _scipy_matmul(Kt, self._rhs)
        V = KR[:, 1:]  # rows (L^-1 k)^T
        var_std = hp.output_scale_sq - np.einsum("mn,mn->m", V, V)
        clamped = var_std <= NUGGET
        mean_std, var_std = hp.constant_mean + KR[:, 0], np.maximum(var_std, NUGGET)
        if not want_grad:
            return mean_std, var_std
        Kinv_Kt = _scipy_matmul(V, self.chol_inv)  # rows (K^-1 k)^T
        ls2 = hp.lengthscales**2
        dmean_std = _contract(coef, self.alpha, Pn, self.Xn, ls2)
        dvar_std = -2.0 * _contract(coef * Kinv_Kt, None, Pn, self.Xn, ls2)
        dvar_std[clamped] = 0.0
        return mean_std, var_std, dmean_std, dvar_std, coef, Kinv_Kt, Kt

    def _grad_units(self, mean_std, var_std, dmean_std, dvar_std):
        """A standardized marginal and its gradients in original units."""
        tr = self.transforms
        scale = 1.0 / tr.input_scale
        return (
            tr.y_unstandardize(mean_std),
            var_std * tr.output_std**2,
            dmean_std * scale * tr.output_std,
            dvar_std * scale * tr.output_std**2,
        )

    def cross_cov_at(self, points):
        """The posterior covariance k_n(t_i, y) at the fixed ``points`` t as a
        function of the site y, original units. Their kernel block against
        the training inputs is formed here once, so each site costs one
        matrix-vector product (the candidate scan of the knowledge
        gradient)."""
        Pn = self.transforms.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        return partial(self._cross_cov, Pn, matern52(Pn, self.Xn, self.hyperparams))

    def cross_cov_with_grad(self, points, y):
        """The marginal posterior at a batch of t with its gradients, and the
        posterior covariance k_n(t_i, y) against a single y with its gradients
        w.r.t. t_i and w.r.t. y, from one kernel pass over the batch. Original
        units; k_n is that of :meth:`cross_cov_at`, byte for byte.

        Returns (mean, var, dmean, dvar, kny, dkny_dt, dkny_dy), the first
        four as from :meth:`posterior_with_grad`, the gradients of shape (m, d).
        """
        Pn = self.transforms.x_to_unit(np.atleast_2d(np.asarray(points, float)))

        def block(Bn):
            *marginal, coef, Kinv_Kt, Kt = self._marginal(Bn, True)
            return (*marginal, *self._cross_cov(Bn, Kt, y, (coef, Kinv_Kt)))

        *marginal, kty, dk_dt, dk_dy = in_blocks(block, Pn, self._rhs.shape[1])
        return (*self._grad_units(*marginal), kty, dk_dt, dk_dy)

    def _cross_cov(self, Pn, Kt, y, grads=None):
        """k_n(t_i, y) = k(t, y) - K_t K^-1 k(X, y) at normalized points
        ``Pn``, original units, from their (m, n) kernel block ``Kt`` against
        the training inputs: the one place k_n is formed. ``grads`` holds the
        block's gradient coefficient and K^-1 k rows from ``_marginal``; with
        it the gradients w.r.t. t and w.r.t. y follow, each (m, d)."""
        hp, tr = self.hyperparams, self.transforms
        yn = tr.x_to_unit(np.asarray(y, float)).reshape(1, -1)
        kty, coef_ty = _matern_block(Pn, yn, hp, grads is not None)  # (m, 1)
        k_y, coef_y = _matern_block(self.Xn, yn, hp, grads is not None)  # (n, 1)
        w_y = self.kinv(k_y[:, 0])
        kty = kty[:, 0] - Kt @ w_y
        s2 = tr.output_std**2
        if grads is None:
            return kty * s2
        coef, Kinv_Kt = grads
        ls2 = hp.lengthscales**2
        dk_dt = coef_ty * (Pn - yn) / ls2
        dk_dy = -dk_dt - _contract(Kinv_Kt, coef_y[:, 0], yn, self.Xn, ls2)
        dk_dt = dk_dt - _contract(coef, w_y, Pn, self.Xn, ls2)
        scale = 1.0 / tr.input_scale
        return kty * s2, dk_dt * scale * s2, dk_dy * scale * s2

    def draw_rff_path(self, n_features: int = 1024, seed=0) -> "RFFPath":
        """A deterministic approximate posterior sample path via decoupled
        random Fourier features plus a data-driven update."""
        return RFFPath.draw(self, n_features, seed)


@dataclass(frozen=True)
class RFFPath:
    """A pathwise posterior sample: prior RFF expansion plus kernel update.

    Evaluation is deterministic given (frequencies, phases, weights); at the
    training inputs the path reproduces the targets to within a few noise
    standard deviations.
    """

    state: SurrogateState
    frequencies: np.ndarray  # (n_features, d), normalized-input units
    phases: np.ndarray  # (n_features,)
    weights: np.ndarray  # (n_features,)
    update_coef: np.ndarray  # (n,), kernel-basis coefficients
    fixed: tuple | None = None  # (us, Un, cos B, sin B), see fix_perturbations

    @property
    def n_features(self) -> int:
        return len(self.phases)

    @classmethod
    def draw(cls, state: SurrogateState, n_features: int, seed) -> "RFFPath":
        hp = state.hyperparams
        rng = np.random.default_rng(seed)
        d = state.dim
        # Matern-5/2 spectral density is multivariate-t with 5 dof: draw as a
        # Gaussian over sqrt of a chi^2_5 mixture, scaled per lengthscale.
        z = rng.standard_normal((n_features, d))
        chi2 = rng.chisquare(5.0, size=n_features)
        freqs = z * np.sqrt(5.0 / chi2)[:, None] / hp.lengthscales
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_features)
        weights = rng.standard_normal(n_features)
        prior = cls(state, freqs, phases, weights, np.zeros(0)).fix_perturbations(None)
        prior_at_train = prior._prior(state.Xn, False)[0][:, 0]
        noise = rng.standard_normal(state.n) * np.sqrt(hp.noise_variance)
        resid = state._zc - prior_at_train - noise
        return cls(state, freqs, phases, weights, cho_solve((state.chol, True), resid))

    def evaluate(self, xs, us=None) -> np.ndarray:
        """Path values at every ``xs[i] + us[j]``, shape (m, n_u), original
        units; at the points ``xs`` themselves, shape (m,), when ``us`` is
        None."""
        return self._evaluate(xs, us, False)[0]

    def evaluate_with_grad(self, xs, us=None):
        """Path values as from :meth:`evaluate`, and their gradients w.r.t.
        the design, shape (m, n_u, d), or (m, d) when ``us`` is None."""
        return self._evaluate(xs, us, True)

    def fix_perturbations(self, us) -> "RFFPath":
        """This path with cos B and sin B of :meth:`_prior` formed once for
        the perturbations ``us`` (the origin when None), B = Un w^T for Un the
        normalized ``us``. Evaluations at ``us`` reuse them, elsewhere they
        are formed afresh."""
        tr, us = self.state.transforms, None if us is None else np.array(us, float)
        Un = np.zeros((1, self.state.dim)) if us is None else np.atleast_2d(us) / tr.input_scale
        B = Un @ self.frequencies.T
        return replace(self, fixed=(us, Un, np.cos(B), np.sin(B)))

    def _evaluate(self, xs, us, want_grad):
        if self.fixed is None or not np.array_equal(us, self.fixed[0]):
            return self.fix_perturbations(us)._evaluate(xs, us, want_grad)
        st, tr = self.state, self.state.transforms
        Xn = tr.x_to_unit(np.atleast_2d(np.asarray(xs, float)))
        # float64 per design row of the largest temporary: the feature arrays,
        # or the kernel block and grid of its perturbed points.
        width = max(2 * self.n_features, len(self.fixed[1]) * max(st.n, st.dim, 1))
        if want_grad:
            vals, grads = in_blocks(lambda B: self._values(B, True), Xn, width)
            grads = grads * (tr.output_std / tr.input_scale)
        else:
            vals, grads = in_blocks(lambda B: self._values(B, False)[0], Xn, width), None
        vals = tr.y_unstandardize(vals)
        if us is None:
            vals, grads = vals[:, 0], None if grads is None else grads[:, 0]
        return vals, grads

    def _prior(self, Xn, want_grad):
        """The standardized prior expansion at every Xn[i] + Un[j], (m, n_u),
        and its gradient (m, n_u, d) (None without ``want_grad``), Un the
        fixed perturbations.

        By angle addition cos(w.(x + u) + phi) = cos A cos B - sin A sin B with
        A = w.x + phi and B = w.u, so the sum over features is two products
        of (m, F) and (n_u, F) factors. cos B and sin B depend on the
        perturbations alone and come from :meth:`fix_perturbations`: once per
        importance sample where a search fixes it (ts_mr's stage 1), else
        once per evaluation.
        """
        amp = np.sqrt(2.0 * self.state.hyperparams.output_scale_sq / self.n_features)
        A = Xn @ self.frequencies.T
        A += self.phases
        cos_a = np.cos(A)
        sin_a = np.sin(A, out=A)
        cos_a *= self.weights
        sin_a *= self.weights
        cos_b, sin_b = self.fixed[2:]
        vals = amp * (cos_a @ cos_b.T - sin_a @ sin_b.T)
        if not want_grad:
            return vals, None
        # d/dx cos(A + B) = -sin(A + B) w, sin(A + B) = sin A cos B + cos A sin B.
        grads = np.empty((*vals.shape, Xn.shape[1]))
        for k, w_k in enumerate(self.frequencies.T):
            grads[:, :, k] = (sin_a * w_k) @ cos_b.T + (cos_a * w_k) @ sin_b.T
        return vals, grads * -amp

    def _values(self, Xn, want_grad):
        st, hp = self.state, self.state.hyperparams
        vals, grads = self._prior(Xn, want_grad)
        vals += hp.constant_mean
        Un = self.fixed[1]
        m, n_u, d = len(Xn), len(Un), st.dim
        Pn = (Xn[:, None, :] + Un[None, :, :]).reshape(-1, d)
        K, coef = _matern_block(Pn, st.Xn, hp, want_grad)
        vals += (K @ self.update_coef).reshape(m, n_u)
        if want_grad:
            update = _contract(coef, self.update_coef, Pn, st.Xn, hp.lengthscales**2)
            grads += update.reshape(m, n_u, d)
        return vals, grads


def prior_state(hyperparams: GPHyperparams, bounds):
    """A zero-observation state (prior reduction of the posterior), outputs standardized."""
    bounds = np.asarray(bounds, float)
    tr = Transforms(bounds[:, 0], bounds[:, 1], 0.0, 1.0)
    return SurrogateState(np.zeros((0, len(bounds))), np.zeros(0), tr, hyperparams)


# -- MAP fitting -----------------------------------------------------------


def _nll_and_grad(theta, Xn, zc_raw, jitter):
    """Negative (log marginal likelihood + log prior) and gradient.

    theta = [log s^2, log l_1..d, constant_mean]; priors are on s^2 and l in
    their natural parametrization (argmax is invariant to the log reparam).
    """
    d = Xn.shape[1]
    n = Xn.shape[0]
    log_s2, log_ls, cmean = theta[0], theta[1 : 1 + d], theta[1 + d]
    s2, ls = np.exp(log_s2), np.exp(log_ls)
    hp = GPHyperparams(s2, ls, cmean)
    K, coef = _matern_block(Xn, Xn, hp, True)
    K[np.diag_indices_from(K)] += NOISE_VARIANCE + jitter
    try:
        L = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        return np.inf, np.zeros_like(theta)
    e = zc_raw - cmean
    alpha = cho_solve((L, True), e)
    mll = -0.5 * e @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * np.log(2 * np.pi)

    a_s, b_s = PRIOR_OUTPUT_SCALE_SQ
    a_l, b_l = PRIOR_LENGTHSCALE
    logprior = (a_s - 1) * log_s2 - b_s * s2 + np.sum((a_l - 1) * log_ls - b_l * ls)

    Kinv = cho_solve((L, True), np.eye(n))
    M = np.outer(alpha, alpha) - Kinv
    # d K / d log s2 = K - noise*I
    Knoise = K.copy()
    Knoise[np.diag_indices_from(Knoise)] -= NOISE_VARIANCE + jitter
    g_s2 = 0.5 * np.sum(M * Knoise) + (a_s - 1) - b_s * s2
    # d K / d log l_j = s2*(5/3)(1+sqrt5 r) exp(-sqrt5 r) * (dx_j/l_j)^2,
    # the negated gradient coefficient of the kernel block.
    base = -coef
    g_ls = np.empty(d)
    for j in range(d):
        D2 = (Xn[:, j][:, None] - Xn[:, j][None, :]) ** 2 / ls[j] ** 2
        g_ls[j] = 0.5 * np.sum(M * (base * D2)) + (a_l - 1) - b_l * ls[j]
    g_mean = np.sum(alpha)
    grad = np.concatenate([[g_s2], g_ls, [g_mean]])
    return -(mll + logprior), -grad


def fit_map(inputs, targets, bounds, seed=0) -> SurrogateState:
    """Fit MAP hyperparameters and return the resulting posterior state.

    Inputs are normalized to [0,1]^d by the box ``bounds`` and outputs
    standardized before fitting. Multi-start bounded quasi-Newton in
    log-hyperparameter space, with ``MAP_RESTARTS`` restarts drawn from the
    priors. A start whose Cholesky factorization fails is abandoned; when no
    start survives, the fit is retried with diagonal jitter 1e-8, 1e-6 and
    1e-4 before failing.
    """
    inputs = np.atleast_2d(np.asarray(inputs, float))
    targets = np.atleast_1d(np.asarray(targets, float))
    if len(targets) < 1:
        raise ValueError("need at least one observation")
    tr = Transforms.from_data(targets, bounds)
    Xn = tr.x_to_unit(inputs)
    zc_raw = tr.y_standardize(targets)
    d = inputs.shape[1]

    rng = np.random.default_rng(seed)
    # Prior modes as a deterministic first start.
    starts = [
        np.concatenate(
            [
                [np.log((PRIOR_OUTPUT_SCALE_SQ[0] - 1) / PRIOR_OUTPUT_SCALE_SQ[1])],
                np.full(d, np.log((PRIOR_LENGTHSCALE[0] - 1) / PRIOR_LENGTHSCALE[1])),
                [0.0],
            ]
        )
    ]
    while len(starts) < MAP_RESTARTS + 1:
        s2 = rng.gamma(PRIOR_OUTPUT_SCALE_SQ[0], 1.0 / PRIOR_OUTPUT_SCALE_SQ[1])
        ls = rng.gamma(PRIOR_LENGTHSCALE[0], 1.0 / PRIOR_LENGTHSCALE[1], size=d)
        starts.append(np.concatenate([[np.log(s2)], np.log(ls), [0.0]]))

    theta_bounds = np.vstack(
        [
            [np.log(1e-6), np.log(1e6)],
            *[[np.log(5e-3), np.log(1e2)]] * d,
            [-10.0, 10.0],
        ]
    )
    last_err = None
    for jitter in (0.0, 1e-8, 1e-6, 1e-4):
        try:
            theta, val, _ = multistart_qn(
                lambda th, j=jitter: _nll_and_grad(th, Xn, zc_raw, j), theta_bounds, starts
            )
            if not np.isfinite(val):
                raise np.linalg.LinAlgError("non-finite MAP objective")
            hp = GPHyperparams(
                float(np.exp(theta[0])), np.exp(theta[1 : 1 + d]), float(theta[1 + d])
            )
            return SurrogateState(inputs, targets, tr, hp, jitter=jitter)
        except (np.linalg.LinAlgError, RuntimeError) as err:  # RuntimeError: no start survived
            last_err = err
            continue
    raise RuntimeError(f"GP fit failed even with jitter escalation: {last_err}")
