"""Point-selection strategies for the reliability-maximization loop.

Seven strategies are provided: Thompson sampling over nominal designs plus a
maximal-variance perturbation (ts_mr), the knowledge gradient on the negative
log failure probability in discrete and one-shot forms (kg_mr_discrete,
kg_mr_oneshot), a four-rule limit-state cascade (hc), expected-feasibility
maximization (egra), expected improvement (ei) and Sobol' space filling
(sobol). Each maps one ``AcqContext`` (fitted surrogate, problem, spec,
streams, observations) to the next query point inside the feasible box and its
diagnostics; ``next_point`` runs the strategy the spec names.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import (
    SobolStream,
    gaussian_qmc,
    gaussian_stream_dim,
    std_normal_cdf,
    std_normal_log_cdf,
    std_normal_log_pdf,
    std_normal_pdf,
)
from .optimizers import boltzmann_restarts, direct_maximize, multistart_qn
from .problems import Problem
from .reliability import (
    _log_p,
    draw_is_sample,
    estimate_ptilde,
    estimate_ptilde_batch,
    perturbed_grid,
    smoothing_width,
)
from .surrogate import SurrogateState

log = logging.getLogger(__name__)

# ts_mr's stage 2 draws this many perturbation candidates from N(0, Sigma_u)
# and as many uniformly in the box, besides u = 0.
_U_DRAW = 64
# hc's rule LS runs DIRECT with this many evaluations per dimension.
_DIRECT_BUDGET_PER_DIM = 200


@dataclass
class AcquisitionSpec:
    """Strategy choice plus the shared sample-size and smoothing knobs; the
    problem sets tau, the value function and the cascade's eps_s/delta_band."""

    kind: str
    n_u: int = 64  # qMC importance-sample size
    n_v: int = 64  # fantasy count for the knowledge gradient
    n_x: int = 512  # discretization size
    rho: float = 0.01  # Thompson threshold-smoothing width
    kappa: float = 2.0  # expected-feasibility band width
    n_raw: int | None = None  # candidate scan size (None: 512 if d<=2 else 1024)
    n_restarts: int = 10

    def __post_init__(self):
        if self.kind not in _strategies():
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        if min(self.n_u, self.n_v, self.n_x, self.n_restarts) < 1:
            raise ValueError("sample sizes must be positive")
        if not (self.rho > 0 and self.kappa > 0):
            raise ValueError("rho and kappa must be positive")
        if self.kind == "ts_mr" and self.n_restarts > 2 * _U_DRAW + 1:
            raise ValueError(
                f"ts_mr's n_restarts must be <= its {2 * _U_DRAW + 1} perturbation candidates"
            )

    def raw_count(self, dim: int) -> int:
        if self.n_raw is not None:
            return self.n_raw
        return 512 if dim <= 2 else 1024


@dataclass
class IterationStreams:
    """Per-iteration randomness: independent qMC streams and scalar seeds.

    All derived deterministically from one integer, so a BO iteration is
    reproducible from (seed, dimension) alone.
    """

    u_stream: SobolStream
    z_stream: SobolStream
    x_stream: SobolStream
    path_seed: int
    restart_seed: int

    @classmethod
    def from_seed(cls, seed: int, dim: int) -> "IterationStreams":
        children = np.random.SeedSequence(seed).spawn(5)
        s = [int(c.generate_state(1)[0]) for c in children]
        return cls(
            u_stream=SobolStream(gaussian_stream_dim(dim), scramble_seed=s[0]),
            z_stream=SobolStream(2, scramble_seed=s[1]),
            x_stream=SobolStream(dim, scramble_seed=s[2]),
            path_seed=s[3],
            restart_seed=s[4],
        )


@dataclass
class AcqDiagnostics:
    value: float = np.nan  # acquisition value at the selected point
    rule: str = ""  # cascade rule or strategy label
    nominal: np.ndarray | None = None  # x_{n+1} for the Thompson strategy
    perturbation: np.ndarray | None = None  # u_{n+1} for the Thompson strategy


@dataclass(frozen=True)
class AcqContext:
    """Everything a strategy reads to choose the next query point."""

    state: SurrogateState  # the surrogate fitted to (Y, v)
    problem: Problem
    spec: AcquisitionSpec
    streams: IterationStreams
    Y: np.ndarray  # (n, d) observed designs
    v: np.ndarray  # (n,) observed values
    sobol_seed: int = 0  # scramble seed of the run's Sobol' baseline sequence


def next_point(ctx: AcqContext):
    """The next query point and its diagnostics, by ``ctx.spec.kind``."""
    return _strategies()[ctx.spec.kind](ctx)


def _strategies():
    # Built on each call from the module globals, so a rebound strategy name
    # (a profiler's timing wrapper, say) is the function that runs.
    return {
        "ts_mr": ts_mr_next,
        "kg_mr_discrete": kg_discrete_next,
        "kg_mr_oneshot": kg_oneshot_next,
        "hc": hc_next,
        "egra": egra_next,
        "ei": ei_next,
        "sobol": sobol_next,
    }


def _scale_to_box(unit_pts: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    bounds = np.asarray(bounds, float)
    return bounds[:, 0] + unit_pts * (bounds[:, 1] - bounds[:, 0])


def _phi_ratio(log_pdf, log_cdf):
    """phi(h)/Phi(h) (or the complement) computed stably via log values: the
    log ratio grows only like log|h| in the tail, so exp cannot overflow."""
    return np.exp(log_pdf - log_cdf)


def _raw_candidates(ctx: AcqContext):
    """The spec's raw candidate count of Sobol' points in the problem's box."""
    bounds = ctx.problem.bounds
    return _scale_to_box(ctx.streams.x_stream.take(ctx.spec.raw_count(len(bounds))), bounds)


def _maximize(score, ctx: AcqContext, bounds=None, cands=None, seed=None):
    """Maximize a vectorised criterion over a box.

    ``score(ys, want_grad)`` returns the values at the rows of ``ys`` and,
    with ``want_grad``, their (m, d) gradients (None otherwise). The
    candidates are scanned without gradients, the spec's restart count is
    Boltzmann-selected among them and each is polished by L-BFGS. ``bounds``
    defaults to the problem's box, ``cands`` to raw candidates in it and
    ``seed`` to the iteration's restart seed.

    Returns multistart_qn's (point, value, diagnostics).
    """
    bounds = ctx.problem.bounds if bounds is None else bounds
    cands = _raw_candidates(ctx) if cands is None else cands
    seed = ctx.streams.restart_seed if seed is None else seed
    starts = boltzmann_restarts(cands, score(cands, False)[0], ctx.spec.n_restarts, seed)

    def evaluate(y):
        value, grad = score(y[None, :], True)
        return value[0], grad[0]

    return multistart_qn(evaluate, bounds, starts, sense="max")


def _marginal_sd(state, ys, want_grad):
    """Posterior mean and standard deviation at ``ys`` and, with
    ``want_grad``, their gradients (None otherwise)."""
    if not want_grad:
        mean, var = state.posterior(ys)
        return mean, np.sqrt(var), None, None
    mean, var, dmean, dvar = state.posterior_with_grad(ys)
    sd = np.sqrt(var)
    return mean, sd, dmean, dvar / (2.0 * sd[:, None])


# -- Thompson sampling -----------------------------------------------------


def ts_mr_next(ctx: AcqContext):
    """Thompson step: optimize a posterior sample for the most reliable
    nominal design, then probe it with the most informative perturbation."""
    state, problem, spec, streams = ctx.state, ctx.problem, ctx.spec, ctx.streams
    bounds = problem.bounds
    d = bounds.shape[0]
    delta = smoothing_width(bounds)
    path = state.draw_rff_path(1024, seed=streams.path_seed)
    is_sample = draw_is_sample(problem.perturb, problem.default_tau, spec.n_u, streams.u_stream)
    path = path.fix_perturbations(is_sample.points)

    # Stage 1: nominal design minimizing the path's log failure probability.
    cands = _raw_candidates(ctx)
    cand_vals = -estimate_ptilde_batch(
        path, cands, is_sample, bounds, delta, problem.c, spec.rho
    )
    starts = boltzmann_restarts(cands, cand_vals, spec.n_restarts, streams.restart_seed)

    x_objective = partial(
        estimate_ptilde, path, is_sample=is_sample, bounds=bounds, delta=delta, c=problem.c,
        rho=spec.rho,
    )
    x_next, _, _ = multistart_qn(x_objective, bounds, starts)

    # Stage 2: perturbation maximizing density times indicator variance,
    # constrained so the perturbed design stays in the box.
    u_bounds = np.column_stack([bounds[:, 0] - x_next, bounds[:, 1] - x_next])
    sigmas = problem.perturb.sigmas

    def u_score(us, want_grad):
        mean, sd, dmean, dsd = _marginal_sd(state, x_next + us, want_grad)
        h = (mean - problem.c) / sd
        lp = std_normal_log_pdf(h)
        lphi = std_normal_log_cdf(h)
        lcphi = std_normal_log_cdf(-h)
        val = problem.perturb.log_density(us) + lphi + lcphi
        if not want_grad:
            return val, None
        dh = (dmean - h[:, None] * dsd) / sd[:, None]
        ratio = _phi_ratio(lp, lphi) - _phi_ratio(lp, lcphi)
        return val, -us / sigmas**2 + ratio[:, None] * dh

    u_qmc = gaussian_qmc(streams.u_stream, _U_DRAW, sigmas)
    u_cands = np.vstack([
        np.zeros((1, d)),
        np.clip(u_qmc, u_bounds[:, 0], u_bounds[:, 1]),
        _scale_to_box(streams.x_stream.take(_U_DRAW), u_bounds),
    ])
    u_next, u_val, _ = _maximize(
        u_score, ctx, u_bounds, u_cands, seed=streams.restart_seed + 1
    )

    y = np.clip(x_next + u_next, bounds[:, 0], bounds[:, 1])
    return y, AcqDiagnostics(
        value=float(u_val), rule="ts_mr", nominal=x_next, perturbation=u_next
    )


# -- knowledge gradient ----------------------------------------------------


def _value_from_log_p(log_p, use_log):
    """The value function R from log P: -log P, or -P when the logarithm is
    dropped in the non-extreme regime."""
    if use_log:
        return -log_p
    return -np.exp(log_p)


def _value_grad(log_p, grad_log_p, use_log):
    """Per-fantasy gradients of the value function from those of log P."""
    return -grad_log_p if use_log else -np.exp(log_p)[:, None] * grad_log_p


def _fantasy_marginal(state, z, mean, var, kty, vy, grads=None):
    """A posterior marginal at points t after conditioning on the fantasy
    observation mu_n(y) + z sqrt(v_n(y)) at y, by the closed-form rank-one
    update of the mean and variance:

        mean + z k_n(t, y) sqrt(v_n(y)) / (v_n(y) + noise)
        var - k_n(t, y)^2 / (v_n(y) + noise)

    ``z`` broadcasts against ``kty``. ``grads`` holds (dmean, dvar, dk_dt,
    dk_dy, dvy), the derivatives of the marginal and of k_n w.r.t. t and y and
    of v_n(y) w.r.t. y; ``z`` then has one draw per point.

    Returns (fmean, fvar, dfmean, dfvar), the derivatives w.r.t. (t, y) in
    (m, 2d) columns, or None without ``grads``.
    """
    noise = state.hyperparams.noise_variance * state.transforms.output_std**2
    sq, denom = np.sqrt(vy), vy + noise
    fmean = mean + z * (kty * sq / denom)
    fvar = var - kty**2 / denom
    if grads is None:
        return fmean, fvar, None, None
    dmean, dvar, dk_dt, dk_dy, dvy = grads
    a = sq / denom
    da_dy = dvy * (noise - vy) / (2.0 * sq * denom**2)
    zc = z[:, None]
    dfmean = np.hstack([dmean + zc * (dk_dt * a), zc * (dk_dy * a + np.outer(kty, da_dy))])
    r = (2.0 * kty / denom)[:, None]
    dfvar = np.hstack([dvar - r * dk_dt, np.outer(kty**2 / denom**2, dvy) - r * dk_dy])
    return fmean, fvar, dfmean, dfvar


def _fantasy_log_p(state, y, z, xs, is_sample, bounds, delta, c):
    """Per-fantasy log failure probability at designs ``xs`` (one per draw in
    ``z``) after conditioning on the fantasy observation at ``y``, under
    bounds smoothing of width ``delta``.

    Returns (log_p (Nv,), grad_x (Nv, d), grad_y (Nv, d)).
    """
    y = np.asarray(y, float)
    pts = perturbed_grid(xs, is_sample)
    d = pts.shape[1]
    mean, var, dmean, dvar, kty, dk_dt, dk_dy = state.cross_cov_with_grad(pts, y)
    _, vy, _, dvy = state.posterior_with_grad(y[None, :])
    marginal = _fantasy_marginal(
        state, np.repeat(z, len(is_sample)), mean, var, kty, vy[0],
        (dmean, dvar, dk_dt, dk_dy, dvy[0]),
    )
    log_p, grad = _log_p(
        lambda sel: marginal, state.variance_floor, c, pts, is_sample, bounds, delta, True
    )
    return log_p, grad[:, :d], grad[:, d:]


class _FantasyScan:
    """Shared per-iteration workspace for evaluating the discrete knowledge
    gradient at many candidate observation sites.

    The perturbed design grid (every grid design plus every perturbation) is
    candidate-independent, so its base posterior is computed once; each
    candidate then only needs a cross-covariance vector and the rank-one
    fantasy update of the mean and variance. Values are -log P, or -P when
    ``use_log`` is false.
    """

    def __init__(self, state, x_disc, z_sample, is_sample, bounds, c, use_log):
        self.state = state
        self.z = np.asarray(z_sample, float)
        self.is_sample = is_sample
        self.bounds = np.asarray(bounds, float)
        self.c = c
        self.use_log = use_log
        self.x_disc = np.atleast_2d(np.asarray(x_disc, float))
        self.pts = pts = perturbed_grid(self.x_disc, is_sample)
        self.mean, self.var = state.posterior(pts)
        self._cross_cov = state.cross_cov_at(pts)
        self.baseline = float(np.max(self.grid_values(0.0)))

    def grid_values(self, delta):
        """The current value of every grid design under bounds smoothing of
        width ``delta``; their maximum is the term the knowledge gradient
        subtracts (at delta = 0)."""
        log_p, _ = _log_p(
            lambda sel: (self.mean[sel], self.var[sel]), self.state.variance_floor, self.c,
            self.pts, self.is_sample, self.bounds, delta, False,
        )
        return _value_from_log_p(log_p, self.use_log)

    def log_p_at(self, y, delta):
        """log P at every grid design under every fantasy observed at ``y``
        and bounds smoothing of width ``delta``, shape (Nv, Nx)."""
        y = np.asarray(y, float)
        _, vy = self.state.posterior(y[None, :])
        kty = self._cross_cov(y)

        def marginal_at(sel):
            # The update is formed at the kept rows only, point-major (kept,
            # Nv), and handed on as its (Nv, kept) transpose: log_ndtr took
            # 1.2-1.5x as long over the same values laid out fantasy-major.
            fmean, fvar, _, _ = _fantasy_marginal(
                self.state, self.z, self.mean[sel, None], self.var[sel, None],
                kty[sel, None], vy[0],
            )
            return fmean.T, fvar.T

        return _log_p(
            marginal_at, self.state.variance_floor, self.c, self.pts, self.is_sample,
            self.bounds, delta, False,
        )[0]

    def value_at(self, y):
        """Discrete knowledge gradient at one candidate ``y``, and the
        per-fantasy index of the best grid design."""
        log_p = self.log_p_at(y, 0.0)
        best = np.max(_value_from_log_p(log_p, self.use_log), axis=1)
        argbest = np.argmin(log_p, axis=1)
        if np.any(best == np.inf):
            return np.inf, argbest
        return float(np.mean(best) - self.baseline), argbest

    def value_and_grad(self, y):
        """``value_at`` and its envelope gradient w.r.t. ``y``: the gradient
        of the fantasy-averaged value at the per-fantasy best grid designs,
        their indices held fixed."""
        value, argbest = self.value_at(y)
        if not np.isfinite(value):
            return value, np.zeros(len(self.bounds))
        log_p, _, grad_y = _fantasy_log_p(
            self.state, y, self.z, self.x_disc[argbest], self.is_sample, self.bounds,
            0.0, self.c,
        )
        return value, np.sum(_value_grad(log_p, grad_y, self.use_log), axis=0) / len(self.z)

    def scan(self, ys):
        """``value_at`` over candidates."""
        return np.array([self.value_at(y)[0] for y in ys])


def oneshot_objective(state, joint, z_sample, is_sample, bounds, delta, c, use_log):
    """The joint one-shot objective: the fantasy-averaged best-achievable
    value as a function of (y, x_1..x_Nv) flattened, with its gradient, under
    bounds smoothing of width ``delta``.

    The current-state baseline term is constant in the decision variables and
    excluded here.
    """
    bounds = np.asarray(bounds, float)
    d = bounds.shape[0]
    n_v = len(z_sample)
    joint = np.asarray(joint, float)
    y, xs = joint[:d], joint[d:].reshape(n_v, d)
    log_p, grad_x, grad_y = _fantasy_log_p(state, y, z_sample, xs, is_sample, bounds, delta, c)
    if use_log and np.any(np.isinf(log_p)):
        return np.inf, np.zeros_like(joint)
    value = float(np.mean(_value_from_log_p(log_p, use_log)))
    gx = _value_grad(log_p, grad_x, use_log) / n_v
    gy = np.sum(_value_grad(log_p, grad_y, use_log), axis=0) / n_v
    return value, np.concatenate([gy, gx.reshape(-1)])


def _kg_scan(ctx: AcqContext):
    """The set-up both KG strategies share: the fantasy workspace over a
    design grid and the discrete KG at the raw candidate sites.

    Returns (scan, candidates, values).
    """
    problem, spec, streams = ctx.problem, ctx.spec, ctx.streams
    bounds = problem.bounds
    is_sample = draw_is_sample(problem.perturb, problem.default_tau, spec.n_u, streams.u_stream)
    z_sample = gaussian_qmc(streams.z_stream, spec.n_v, np.ones(1))[:, 0]
    x_disc = _scale_to_box(streams.x_stream.take(spec.n_x), bounds)
    scan = _FantasyScan(
        ctx.state, x_disc, z_sample, is_sample, bounds, problem.c, problem.use_log
    )
    cands = _raw_candidates(ctx)
    return scan, cands, scan.scan(cands)


def kg_discrete_next(ctx: AcqContext):
    """Select the next query by maximizing the discrete knowledge gradient
    over candidate sites, polished with the envelope gradient."""
    problem, spec, streams = ctx.problem, ctx.spec, ctx.streams
    bounds = problem.bounds
    scan, cands, vals = _kg_scan(ctx)
    if np.any(np.isinf(vals)):
        return cands[int(np.argmax(np.isinf(vals)))], AcqDiagnostics(np.inf, "kg_mr_discrete")
    starts = boltzmann_restarts(cands, vals, spec.n_restarts, streams.restart_seed)
    y_next, y_val, _ = multistart_qn(
        scan.value_and_grad, bounds, starts, sense="max", max_iters=50
    )
    return y_next, AcqDiagnostics(value=float(y_val), rule="kg_mr_discrete")


def kg_oneshot_next(ctx: AcqContext):
    """Select the next query by jointly optimizing the observation site and
    one future best-design guess per fantasy."""
    state, problem, spec, streams = ctx.state, ctx.problem, ctx.spec, ctx.streams
    bounds = problem.bounds
    d = bounds.shape[0]
    scan, cands, vals = _kg_scan(ctx)
    if np.any(np.isinf(vals)):
        return cands[int(np.argmax(np.isinf(vals)))], AcqDiagnostics(np.inf, "kg_mr_oneshot")
    delta = smoothing_width(bounds)
    # Each chosen site starts with the per-fantasy best grid designs under the
    # smoothing the joint objective is maximized under.
    starts = []
    for y0 in boltzmann_restarts(cands, vals, spec.n_restarts, streams.restart_seed):
        argbest = np.argmin(scan.log_p_at(y0, delta), axis=1)
        starts.append(np.concatenate([y0, scan.x_disc[argbest].ravel()]))
    joint_bounds = np.vstack([bounds] * (1 + spec.n_v))

    def objective(joint):
        return oneshot_objective(
            state, joint, scan.z, scan.is_sample, bounds, delta, problem.c, problem.use_log
        )

    joint_best, _, _ = multistart_qn(
        objective, joint_bounds, starts, sense="max", max_iters=100
    )
    # The gain is measured against the grid's best value under the smoothing
    # the joint objective is maximized under. Each fantasy keeps the better of
    # its optimized design and that best grid design, so an inner maximization
    # that stopped short cannot report less than keeping the current best.
    values = scan.grid_values(delta)
    y_next, xs = joint_best[:d], joint_best[d:].reshape(spec.n_v, d)
    keep = np.tile(scan.x_disc[np.argmax(values)], (spec.n_v, 1))
    log_p, _, _ = _fantasy_log_p(
        state, y_next, np.tile(scan.z, 2), np.vstack([xs, keep]), scan.is_sample, bounds,
        delta, problem.c,
    )
    per_fantasy = _value_from_log_p(log_p.reshape(2, spec.n_v), problem.use_log)
    gain = float(np.mean(np.max(per_fantasy, axis=0)) - np.max(values))
    return y_next, AcqDiagnostics(value=gain, rule="kg_mr_oneshot")


# -- limit-state cascade ---------------------------------------------------


def hc_next(ctx: AcqContext):
    """Four-rule cascade: feasibility probability when nothing feasible has
    been seen yet, otherwise limit-state spread, tunneling, then maximal
    variance -- accepting the first proposal far enough from every sample."""
    state, problem = ctx.state, ctx.problem
    bounds, c = problem.bounds, problem.c
    d = bounds.shape[0]
    Y, v = np.atleast_2d(ctx.Y), np.asarray(ctx.v, float)
    diag_len = float(np.linalg.norm(bounds[:, 1] - bounds[:, 0]))
    feasible = v <= c

    def log_alpha_f(ys, want_grad):
        mean, sd, dmean, dsd = _marginal_sd(state, ys, want_grad)
        h = (c - mean) / sd
        lphi = std_normal_log_cdf(h)
        if not want_grad:
            return lphi, None
        dh = (-dmean - h[:, None] * dsd) / sd[:, None]
        ratio = _phi_ratio(std_normal_log_pdf(h), lphi)
        return lphi, ratio[:, None] * dh

    if not np.any(feasible):
        y_next, val, _ = _maximize(log_alpha_f, ctx)
        return y_next, AcqDiagnostics(value=float(np.exp(val)), rule="F")

    def min_dist(y, pts):
        return float(np.min(np.linalg.norm(pts - y, axis=1)))

    def separated(y):
        return min_dist(y, Y) >= problem.eps_s

    # Rule LS: stay within the predicted limit-state band, spread out.
    def alpha_ls(y):
        mean, _ = state.posterior(y[None, :])
        if abs(mean[0] - c) > problem.delta_band:
            return 0.0
        return min_dist(y, Y) / diag_len

    y_ls, val_ls = direct_maximize(alpha_ls, bounds, _DIRECT_BUDGET_PER_DIM * d)
    if val_ls > 0.0 and separated(y_ls):
        return y_ls, AcqDiagnostics(value=float(val_ls), rule="LS")

    # Rule TN: feasibility probability times distance to feasible samples.
    Yf = Y[feasible]

    def alpha_tn(ys, want_grad):
        lf, dlf = log_alpha_f(ys, want_grad)
        rows = np.arange(len(ys))
        diff = ys[:, None, :] - Yf[None, :, :]
        dists = np.linalg.norm(diff, axis=2)
        i = np.argmin(dists, axis=1)
        dist = np.maximum(dists[rows, i], 1e-12)
        f = np.exp(lf)
        value = f * dist / diag_len
        if not want_grad:
            return value, None
        f, dist = f[:, None], dist[:, None]
        return value, f * (diff[rows, i] / dist / diag_len) + f * dlf * (dist / diag_len)

    y_tn, val_tn, _ = _maximize(alpha_tn, ctx)
    if separated(y_tn):
        return y_tn, AcqDiagnostics(value=float(val_tn), rule="TN")

    # Rule MV: maximal posterior standard deviation.
    def alpha_mv(ys, want_grad):
        _, sd, _, dsd = _marginal_sd(state, ys, want_grad)
        return sd, dsd

    y_mv, val_mv, _ = _maximize(alpha_mv, ctx)
    if not separated(y_mv):
        log.warning(
            "cascade: all rules proposed points within eps_s of existing "
            "samples; returning the maximal-variance point anyway"
        )
    return y_mv, AcqDiagnostics(value=float(val_mv), rule="MV")


# -- expected feasibility --------------------------------------------------


def expected_feasibility(mean, sd, c, kappa, dmean=None, dsd=None):
    """E[max(eps - |c - f|, 0)] for f ~ N(mean, sd^2), eps = kappa*sd, and
    its (m, d) gradient from those of the mean and sd (None without them).

    Writing t = (c - mean)/sd, the band integral reduces to sd * B(t) with
    B(t) = -t*[2*Phi(t) - Phi(t-k) - Phi(t+k)]
           - [2*phi(t) - phi(t-k) - phi(t+k)] + k*[Phi(t+k) - Phi(t-k)].
    """
    mean, sd = np.asarray(mean, float), np.asarray(sd, float)
    t = (c - mean) / sd
    tm, tp = t - kappa, t + kappa
    Phi, phi = std_normal_cdf, std_normal_pdf
    spread = 2.0 * Phi(t) - Phi(tm) - Phi(tp)
    B = -t * spread - (2.0 * phi(t) - phi(tm) - phi(tp)) + kappa * (Phi(tp) - Phi(tm))
    if dmean is None:
        return sd * B, None
    dt = (-dmean - t[:, None] * dsd) / sd[:, None]
    # dB/dt = -spread: the phi terms cancel exactly.
    return sd * B, dsd * B[:, None] + (sd * -spread)[:, None] * dt


def egra_next(ctx: AcqContext):
    """Maximize the expected feasibility of the limit-state band."""
    state, c, kappa = ctx.state, ctx.problem.c, ctx.spec.kappa

    def score(ys, want_grad):
        mean, sd, dmean, dsd = _marginal_sd(state, ys, want_grad)
        return expected_feasibility(mean, sd, c, kappa, dmean, dsd)

    y_next, val, _ = _maximize(score, ctx)
    return y_next, AcqDiagnostics(value=float(val), rule="egra")


# -- simple baselines ------------------------------------------------------


def expected_improvement(mean, sd, incumbent, dmean=None, dsd=None):
    """Closed-form expected improvement below the incumbent (minimization),
    and its (m, d) gradient from those of the mean and sd (None without
    them)."""
    mean, sd = np.asarray(mean, float), np.asarray(sd, float)
    u = (incumbent - mean) / sd
    cdf, pdf = std_normal_cdf(u), std_normal_pdf(u)
    value = (incumbent - mean) * cdf + sd * pdf
    if dmean is None:
        return value, None
    return value, -cdf[:, None] * dmean + pdf[:, None] * dsd


def ei_next(ctx: AcqContext):
    """Maximize the expected improvement below the best observed value."""
    state = ctx.state
    incumbent = float(np.min(np.asarray(ctx.v, float)))

    def score(ys, want_grad):
        mean, sd, dmean, dsd = _marginal_sd(state, ys, want_grad)
        return expected_improvement(mean, sd, incumbent, dmean, dsd)

    y_next, val, _ = _maximize(score, ctx)
    return y_next, AcqDiagnostics(value=float(val), rule="ei")


def sobol_next(ctx: AcqContext):
    """Space-filling baseline: the next point of the run's scrambled
    sequence, one point per observation after the initial design."""
    problem = ctx.problem
    stream = SobolStream(problem.dim, scramble_seed=ctx.sobol_seed)
    stream.skip(len(ctx.v) - problem.n_0)
    return _scale_to_box(stream.take(1)[0], problem.bounds), AcqDiagnostics(rule="sobol")
