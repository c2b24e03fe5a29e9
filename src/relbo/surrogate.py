"""Gaussian-process surrogate of the black-box objective.

Matern-5/2 ARD kernel, exact inference via Cholesky, MAP hyperparameter
fitting under gamma priors, rank-one fantasy conditioning, and pathwise
sample functions via random Fourier features.

Internally all computation uses normalized inputs (box mapped to [0,1]^d)
and standardized outputs (zero mean, unit variance); the public API works
in original units throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .numerics import in_blocks
from .optimizers import multistart_qn

NOISE_VARIANCE = 0.01**2  # standardized units, never fitted
NUGGET = 1e-12  # posterior-variance floor, standardized units
OUTPUT_STD_FLOOR = 1e-8

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
    def from_data(cls, inputs, targets, bounds=None):
        inputs = np.atleast_2d(inputs)
        if bounds is not None:
            bounds = np.asarray(bounds, float)
            lo, hi = bounds[:, 0], bounds[:, 1]
        else:
            lo, hi = inputs.min(axis=0), inputs.max(axis=0)
        hi = np.where(hi > lo, hi, lo + 1.0)
        mu = float(np.mean(targets)) if len(targets) else 0.0
        sd = float(np.std(targets)) if len(targets) else 1.0
        return cls(lo, hi, mu, max(sd, OUTPUT_STD_FLOOR))

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
    d2 = (
        np.sum(As**2, axis=1)[:, None]
        + np.sum(Bs**2, axis=1)[None, :]
        - 2.0 * As @ Bs.T
    )
    return np.maximum(d2, 0.0)


def matern52(A, B, hp: GPHyperparams) -> np.ndarray:
    """Matern-5/2 kernel matrix between rows of A and B (normalized coords)."""
    r = np.sqrt(_scaled_sqdist(np.atleast_2d(A), np.atleast_2d(B), hp.lengthscales))
    return hp.output_scale_sq * (1.0 + _SQRT5 * r + 5.0 * r**2 / 3.0) * np.exp(-_SQRT5 * r)


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


class SurrogateState:
    """Immutable posterior belief over the black-box function.

    Construct via :func:`fit_map`, :func:`prior_state` or ``fantasize``.
    """

    def __init__(self, train_inputs, train_targets, transforms, hyperparams, jitter=0.0):
        self.train_inputs = np.atleast_2d(np.asarray(train_inputs, float)) if len(
            np.atleast_1d(train_targets)
        ) else np.zeros((0, len(transforms.input_lo)))
        self.train_targets = np.atleast_1d(np.asarray(train_targets, float))
        self.transforms = transforms
        self.hyperparams = hyperparams
        self.jitter = jitter
        self._build()

    def _build(self):
        hp, tr = self.hyperparams, self.transforms
        self.Xn = tr.x_to_unit(self.train_inputs) if self.n else np.zeros((0, self.dim))
        zc = tr.y_standardize(self.train_targets) - hp.constant_mean
        if self.n:
            K = matern52(self.Xn, self.Xn, hp)
            K[np.diag_indices_from(K)] += hp.noise_variance + self.jitter
            self.chol = cholesky(K, lower=True)
            self.alpha = cho_solve((self.chol, True), zc)
        else:
            self.chol = np.zeros((0, 0))
            self.alpha = np.zeros(0)
        self._zc = zc

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

    def _k_train(self, Pn):
        return matern52(self.Xn, Pn, self.hyperparams)  # (n, m)

    def posterior(self, points):
        """Marginal posterior mean and variance at ``points``, original units,
        each of shape (m,)."""
        tr = self.transforms
        Pn = tr.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        mean_std, var_std = in_blocks(self._marginal, Pn, self.n)
        return tr.y_unstandardize(mean_std), var_std * tr.output_std**2

    def _marginal(self, Pn):
        """Standardized marginal mean and variance at normalized points."""
        hp = self.hyperparams
        if self.n == 0:
            return np.full(len(Pn), hp.constant_mean), np.full(len(Pn), hp.output_scale_sq)
        Ks = self._k_train(Pn)
        V = solve_triangular(self.chol, Ks, lower=True)  # (n, m)
        var_std = np.maximum(hp.output_scale_sq - np.sum(V**2, axis=0), NUGGET)
        return hp.constant_mean + Ks.T @ self.alpha, var_std

    def posterior_with_grad(self, points):
        """Marginal posterior at ``points`` plus gradients w.r.t. the points.

        Returns (mean, var, dmean, dvar) with dmean, dvar of shape (m, d),
        all in original units.
        """
        Pn = self.transforms.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        parts = in_blocks(
            lambda B: self._marginal_with_grad(B)[:4], Pn, self.n * self.dim
        )
        return self._grad_units(*parts)

    def _marginal_with_grad(self, Pn):
        """Standardized marginal (mean, var, dmean, dvar) at normalized points,
        then the (n, m) kernel block, its K^-1 solve and the (m, n, d) kernel
        gradient they come from (None without training data)."""
        hp, m = self.hyperparams, len(Pn)
        if self.n == 0:
            zeros = np.zeros((m, self.dim))
            return (*self._marginal(Pn), zeros, zeros, None, None, None)
        Ks = self._k_train(Pn)  # (n, m)
        mean_std = hp.constant_mean + Ks.T @ self.alpha
        Kinv_Ks = cho_solve((self.chol, True), Ks)  # (n, m)
        var_std = hp.output_scale_sq - np.sum(Ks * Kinv_Ks, axis=0)
        clamped = var_std <= NUGGET
        var_std = np.maximum(var_std, NUGGET)
        G = matern52_grad_a(Pn, self.Xn, hp)  # (m, n, d)
        dmean_std = np.einsum("mnd,n->md", G, self.alpha)
        dvar_std = -2.0 * np.einsum("mnd,nm->md", G, Kinv_Ks)
        dvar_std[clamped] = 0.0
        return mean_std, var_std, dmean_std, dvar_std, Ks, Kinv_Ks, G

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

    def cross_cov_with_grad(self, points, y):
        """The marginal posterior at a batch of t with its gradients, and the
        posterior covariance k_n(t_i, y) against a single y with its gradients
        w.r.t. t_i and w.r.t. y, from one kernel pass over the batch. Original
        units.

        Returns (mean, var, dmean, dvar, kny, dkny_dt, dkny_dy), the first
        four as from :meth:`posterior_with_grad`, the gradients of shape (m, d).
        """
        hp, tr = self.hyperparams, self.transforms
        Pn = tr.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        yn = tr.x_to_unit(np.asarray(y, float).reshape(1, -1))
        if self.n:
            w_y = cho_solve((self.chol, True), self._k_train(yn)[:, 0])  # (n,)
            Gy = matern52_grad_a(yn, self.Xn, hp)[0]  # (n, d)

        def block(Bn):
            mean_std, var_std, dmean_std, dvar_std, Kt, Kinv_Kt, Gt = (
                self._marginal_with_grad(Bn)
            )
            kty = matern52(Bn, yn, hp)[:, 0]  # (m,)
            dk_dt = matern52_grad_a(Bn, yn, hp)[:, 0, :]  # (m, d)
            dk_dy = -dk_dt
            if self.n:
                kty = kty - Kt.T @ w_y
                dk_dt = dk_dt - np.einsum("mnd,n->md", Gt, w_y)
                dk_dy = dk_dy - Kinv_Kt.T @ Gy
            return mean_std, var_std, dmean_std, dvar_std, kty, dk_dt, dk_dy

        *marginal, kty, dk_dt, dk_dy = in_blocks(block, Pn, self.n * self.dim)
        scale = 1.0 / tr.input_scale
        s2 = tr.output_std**2
        return (
            *self._grad_units(*marginal), kty * s2, dk_dt * scale * s2, dk_dy * scale * s2
        )

    # -- conditioning ------------------------------------------------------

    def fantasize(self, y, z: float) -> "SurrogateState":
        """Posterior conditioned on the hypothetical observation
        mu_n(y) + z*sqrt(k_n(y,y)) at y, via a rank-one Cholesky extension.

        Hyperparameters and transforms are unchanged. If the variance at y is
        at the nugget floor the observation carries no information and a copy
        of the current state is returned.
        """
        y = np.asarray(y, float).reshape(-1)
        mean, var = self.posterior(y[None, :])
        var_std = var[0] / self.transforms.output_std**2
        if var_std <= NUGGET * (1 + 1e-9):
            return self
        v = mean[0] + z * np.sqrt(var[0])
        return self._append(y, v)

    def _append(self, y, v) -> "SurrogateState":
        hp, tr = self.hyperparams, self.transforms
        new = SurrogateState.__new__(SurrogateState)
        new.train_inputs = np.vstack([self.train_inputs, y[None, :]])
        new.train_targets = np.append(self.train_targets, v)
        new.transforms = tr
        new.hyperparams = hp
        new.jitter = self.jitter
        yn = tr.x_to_unit(y).reshape(1, -1)
        new.Xn = np.vstack([self.Xn, yn])
        new._zc = np.append(self._zc, tr.y_standardize(v) - hp.constant_mean)
        kvec = matern52(self.Xn, yn, hp)[:, 0] if self.n else np.zeros(0)
        kyy = hp.output_scale_sq + hp.noise_variance + self.jitter
        if self.n:
            l = solve_triangular(self.chol, kvec, lower=True)
            dnew = np.sqrt(max(kyy - l @ l, NUGGET))
            new.chol = np.block(
                [[self.chol, np.zeros((self.n, 1))], [l[None, :], np.array([[dnew]])]]
            )
        else:
            new.chol = np.array([[np.sqrt(kyy)]])
        new.alpha = cho_solve((new.chol, True), new._zc)
        return new

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
        if state.n:
            feat = cls._features_static(freqs, phases, hp, state.Xn)
            prior_at_train = feat @ weights
            noise = rng.standard_normal(state.n) * np.sqrt(hp.noise_variance)
            resid = state._zc - prior_at_train - noise
            coef = cho_solve((state.chol, True), resid)
        else:
            coef = np.zeros(0)
        return cls(state, freqs, phases, weights, coef)

    @staticmethod
    def _features_static(freqs, phases, hp, Pn):
        amp = np.sqrt(2.0 * hp.output_scale_sq / len(phases))
        return amp * np.cos(Pn @ freqs.T + phases)

    def _width(self):
        """float64 per row of the largest evaluation temporary."""
        return max(self.n_features, self.state.n * self.state.dim)

    def evaluate(self, points) -> np.ndarray:
        """Path values at ``points``, original units."""
        tr = self.state.transforms
        Pn = tr.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        return tr.y_unstandardize(in_blocks(self._values, Pn, self._width()))

    def _values(self, Pn):
        st, hp = self.state, self.state.hyperparams
        vals = hp.constant_mean + self._features_static(
            self.frequencies, self.phases, hp, Pn
        ) @ self.weights
        if st.n:
            vals = vals + matern52(Pn, st.Xn, hp) @ self.update_coef
        return vals

    def evaluate_with_grad(self, points):
        """Path values and gradients w.r.t. the points, original units."""
        tr = self.state.transforms
        Pn = tr.x_to_unit(np.atleast_2d(np.asarray(points, float)))
        vals, grads = in_blocks(self._values_with_grad, Pn, self._width())
        scale = 1.0 / tr.input_scale
        return tr.y_unstandardize(vals), grads * scale * tr.output_std

    def _values_with_grad(self, Pn):
        st, hp = self.state, self.state.hyperparams
        amp = np.sqrt(2.0 * hp.output_scale_sq / self.n_features)
        arg = Pn @ self.frequencies.T + self.phases
        vals = hp.constant_mean + amp * np.cos(arg) @ self.weights
        grads = -amp * (np.sin(arg) * self.weights) @ self.frequencies
        if st.n:
            vals = vals + matern52(Pn, st.Xn, hp) @ self.update_coef
            G = matern52_grad_a(Pn, st.Xn, hp)  # (m, n, d)
            grads = grads + np.einsum("mnd,n->md", G, self.update_coef)
        return vals, grads


def prior_state(hyperparams: GPHyperparams, bounds, output_mean=0.0, output_std=1.0):
    """A zero-observation state (prior reduction of the posterior)."""
    bounds = np.asarray(bounds, float)
    tr = Transforms(bounds[:, 0], bounds[:, 1], output_mean, output_std)
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
    K = matern52(Xn, Xn, hp)
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
    # d K / d log l_j = s2*(5/3)(1+sqrt5 r) exp(-sqrt5 r) * (dx_j/l_j)^2
    r = np.sqrt(_scaled_sqdist(Xn, Xn, ls))
    base = s2 * (5.0 / 3.0) * (1.0 + _SQRT5 * r) * np.exp(-_SQRT5 * r)
    g_ls = np.empty(d)
    for j in range(d):
        D2 = (Xn[:, j][:, None] - Xn[:, j][None, :]) ** 2 / ls[j] ** 2
        g_ls[j] = 0.5 * np.sum(M * (base * D2)) + (a_l - 1) - b_l * ls[j]
    g_mean = np.sum(alpha)
    grad = np.concatenate([[g_s2], g_ls, [g_mean]])
    return -(mll + logprior), -grad


def fit_map(inputs, targets, bounds=None, seed=0, n_restarts: int = 5) -> SurrogateState:
    """Fit MAP hyperparameters and return the resulting posterior state.

    Inputs are normalized to [0,1]^d (using ``bounds`` when given, else the
    data range) and outputs standardized before fitting. Multi-start bounded
    quasi-Newton in log-hyperparameter space, with restarts drawn from the
    priors; duplicate inputs trigger jitter escalation before failing.
    """
    inputs = np.atleast_2d(np.asarray(inputs, float))
    targets = np.atleast_1d(np.asarray(targets, float))
    if len(targets) < 1:
        raise ValueError("need at least one observation")
    tr = Transforms.from_data(inputs, targets, bounds)
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
    while len(starts) < n_restarts + 1:
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
        except np.linalg.LinAlgError as err:
            last_err = err
            continue
    raise RuntimeError(f"GP fit failed even with jitter escalation: {last_err}")
