"""Inner-loop optimizers shared by the acquisition strategies and the model
fit: multi-start bounded quasi-Newton with Boltzmann-sampled restarts, and a
derivative-free rectangle-partitioning search for discontinuous criteria.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import direct as _scipy_direct
from scipy.optimize import minimize as _scipy_minimize

log = logging.getLogger(__name__)


@dataclass
class StartDiagnostics:
    start: np.ndarray
    point: np.ndarray | None
    value: float
    n_evals: int
    status: str


class _NaNGradient(Exception):
    pass


def multistart_qn(
    evaluate: Callable[[np.ndarray], tuple[float, np.ndarray]],
    bounds,
    starts: Sequence[np.ndarray],
    sense: str = "min",
    max_iters: int = 200,
) -> tuple[np.ndarray, float, list[StartDiagnostics]]:
    """Bounded quasi-Newton (L-BFGS-B) from each start; return the best local
    optimum in ``sense`` ("min" or "max").

    ``evaluate`` maps a point to ``(value, gradient)``; ``bounds`` is a (d, 2)
    array of [lower, upper]. A start whose gradient evaluates to NaN is
    abandoned and logged; the remaining starts proceed. Deterministic given
    the starts.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    sign = 1.0 if sense == "min" else -1.0
    bounds = np.asarray(bounds, dtype=float)
    lo, hi = bounds[:, 0], bounds[:, 1]

    def wrapped(x):
        v, g = evaluate(np.asarray(x, dtype=float))
        if g is None:
            raise ValueError("multistart_qn requires gradients")
        g = np.asarray(g, dtype=float)
        if not np.isfinite(v) or np.any(np.isnan(g)):
            if v == -sign * np.inf:
                # Perfect value in max sense (e.g. -log 0): treat as optimum
                # with zero gradient so the line search terminates there.
                return sign * v, np.zeros_like(g)
            raise _NaNGradient()
        return sign * v, sign * g

    diags: list[StartDiagnostics] = []
    best_x, best_v = None, np.inf
    for x0 in starts:
        x0 = np.clip(np.asarray(x0, dtype=float), lo, hi)
        try:
            res = _scipy_minimize(
                wrapped,
                x0,
                jac=True,
                method="L-BFGS-B",
                bounds=list(zip(lo, hi)),
                options={"maxiter": max_iters, "gtol": 1e-7, "ftol": 1e-12},
            )
        except _NaNGradient:
            log.warning("abandoning start %s: NaN gradient", x0)
            diags.append(StartDiagnostics(x0, None, np.nan, 0, "nan-gradient"))
            continue
        xr = np.clip(res.x, lo, hi)
        diags.append(
            StartDiagnostics(x0, xr, sign * res.fun, int(res.nfev), res.message)
        )
        if res.fun < best_v:
            best_x, best_v = xr, res.fun
    if best_x is None:
        raise RuntimeError("all starts failed")
    return best_x, sign * best_v, diags


def boltzmann_restarts(
    candidates: np.ndarray,
    values: np.ndarray,
    n_restarts: int,
    seed,
) -> np.ndarray:
    """Select ``n_restarts`` candidates without replacement, favouring high
    values, with the argmax always included.

    Sampling weights are proportional to exp((v - max v) / T), T the standard
    deviation of the finite values (scale-free); -inf values get probability
    zero.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    values = np.asarray(values, dtype=float)
    if len(candidates) == 0:
        raise ValueError("candidates must be non-empty")
    if n_restarts > len(candidates):
        raise ValueError("n_restarts must be <= the number of candidates")
    if np.any(np.isnan(values)) or np.any(values == np.inf):
        raise ValueError("values must be finite or -inf")
    finite = np.isfinite(values)
    if not np.any(finite):
        raise ValueError("no finite candidate values")

    T = float(np.std(values[finite]))
    if T <= 0:
        T = 1.0
    vmax = values[finite].max()
    logits = np.where(finite, (values - vmax) / T, -np.inf)

    # Gumbel top-k == sampling without replacement with these weights.
    rng = np.random.default_rng(seed)
    gumbel = rng.gumbel(size=len(values))
    keys = np.where(np.isfinite(logits), logits + gumbel, -np.inf)
    order = np.argsort(-keys)[:n_restarts]
    idx = list(order)
    best = int(np.argmax(np.where(finite, values, -np.inf)))
    if best not in idx:
        idx[-1] = best
    return candidates[idx]


def direct_maximize(
    func: Callable[[np.ndarray], float],
    bounds: np.ndarray,
    eval_budget: int,
) -> tuple[np.ndarray, float]:
    """DIRECT rectangle subdivision for gradient-free box-constrained
    maximization. Deterministic; returns the best sampled point.
    """
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    if eval_budget < 2 * d + 1:
        raise ValueError("eval_budget must be at least 2d + 1")
    res = _scipy_direct(
        lambda x: -float(func(np.asarray(x, dtype=float))),
        list(map(tuple, bounds)),
        maxfun=eval_budget,
        maxiter=10 * eval_budget,
        locally_biased=True,
    )
    return np.asarray(res.x, dtype=float), -float(res.fun)
