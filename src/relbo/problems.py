"""The benchmark problems: analytic test functions and pinned GP sample
paths, each bundled with its feasible box, failure threshold, perturbation
model and per-problem algorithm parameters.

Every problem exists in two regimes: "extreme" (rare optimal failure
probability, importance sampling with tau = 3, value function -log P) and
"non_extreme" (wider perturbations, tau = 1, raw P).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .reliability import PerturbationModel
from .surrogate import GPHyperparams, prior_state

MODES = ("extreme", "non_extreme")

# eps_s must equal 0.01 * box diagonal; table values are rounded to 2 figures.
_EPS_S_RELATIVE_TOL = 0.05


class OutOfDomainError(ValueError):
    """Raised when a problem is evaluated outside its feasible box."""


@dataclass(frozen=True)
class Problem:
    name: str
    dim: int
    bounds: np.ndarray  # (d, 2)
    c: float
    perturb: PerturbationModel
    n_0: int
    eps_s: float
    delta_band: float
    mode: str
    _fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "bounds", np.asarray(self.bounds, float))
        if self.bounds.shape != (self.dim, 2):
            raise ValueError("bounds shape mismatch")
        if not (np.isfinite(self.c) and np.all(self.bounds[:, 0] < self.bounds[:, 1])):
            raise ValueError(f"{self.name}: needs a finite c and lo < hi on every box side")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.perturb.dim != self.dim:
            raise ValueError("perturbation dimension mismatch")
        diag = float(np.linalg.norm(self.bounds[:, 1] - self.bounds[:, 0]))
        if abs(self.eps_s - 0.01 * diag) > _EPS_S_RELATIVE_TOL * 0.01 * diag:
            raise ValueError(
                f"{self.name}: eps_s={self.eps_s} is not 0.01 * box diagonal "
                f"({0.01 * diag:.4f})"
            )

    @property
    def default_tau(self) -> float:
        return 3.0 if self.mode == "extreme" else 1.0

    @property
    def use_log(self) -> bool:
        """Whether the KG value function is -log P (else raw P)."""
        return self.mode == "extreme"

    def evaluate(self, points) -> np.ndarray:
        """Function values; every point must lie inside the feasible box."""
        P = np.atleast_2d(np.asarray(points, float))
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        if np.any(P < lo) or np.any(P > hi):
            bad = P[np.any((P < lo) | (P > hi), axis=1)][0]
            raise OutOfDomainError(f"{self.name}: point {bad} outside the box")
        return self._fn(P)

    def evaluate_unchecked(self, points) -> np.ndarray:
        """Function values without the containment check (scoring only)."""
        return self._fn(np.atleast_2d(np.asarray(points, float)))


# -- analytic test functions -----------------------------------------------


def _branin(Y):
    y1, y2 = Y[:, 0], Y[:, 1]
    return (
        (y2 - 5.1 / (4 * np.pi**2) * y1**2 + 5 / np.pi * y1 - 6) ** 2
        + 10 * (1 - 1 / (8 * np.pi)) * np.cos(y1)
        + 10
    )


def _six_hump_camel(Y):
    y1, y2 = Y[:, 0], Y[:, 1]
    return (4 - 2.1 * y1**2 + y1**4 / 3) * y1**2 + y1 * y2 + 4 * (y2**2 - 1) * y2**2


def _ackley(Y):
    y1, y2 = Y[:, 0], Y[:, 1]
    return (
        -20 * np.exp(-0.2 * np.sqrt(0.5 * (y1**2 + y2**2)))
        - np.exp(0.5 * (np.cos(2 * np.pi * y1) + np.cos(2 * np.pi * y2)))
        + 20
        + np.e
    )


def _quadratic(Y):
    return (Y[:, 0] - 0.3) ** 2 + (Y[:, 1] - 0.3) ** 2


def _styblinski_tang(Y):
    return 0.5 * np.sum(Y**4 - 16 * Y**2 + 5 * Y, axis=1)


_HARTMANN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMANN_A = np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
)
_HARTMANN_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)


def _hartmann6(Y):
    # exponent_{mi} = sum_j A_{ij} (y_{mj} - P_{ij})^2
    diff = Y[:, None, :] - _HARTMANN_P[None, :, :]
    expo = np.sum(_HARTMANN_A[None, :, :] * diff**2, axis=2)
    return -np.sum(_HARTMANN_ALPHA * np.exp(-expo), axis=1)


# -- GP sample problems ----------------------------------------------------

# (lengthscale, extreme threshold, extreme sigma) per dimension, and the
# pinned generating seed chosen so the empirical failure volume is 33 +- 3 %.
_GP_PARAMS = {2: (0.28, 3.6, 0.04), 8: (0.57, 1.2, 0.06), 16: (0.8, 0.6, 0.07)}
_GP_NON_EXTREME = {2: (3.6, 0.1), 8: (-1.4, 0.1), 16: (-4.5, 0.1)}
GP_PROBLEM_SEEDS = {2: 145, 8: 9, 16: 1}
_GP_OUTPUT_SCALE_SQ = 100.0
_GP_TABLE = {
    2: (6, 0.014, 0.6),
    8: (15, 0.028, 0.6),
    16: (30, 0.04, 0.6),
}


def gp_sample_fn(d: int, seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """A fixed sample path from a zero-mean Matern-5/2 prior on [0,1]^d with
    output scale 10, drawn via 1024 random Fourier features."""
    lengthscale = _GP_PARAMS[d][0]
    hp = GPHyperparams(_GP_OUTPUT_SCALE_SQ, np.full(d, lengthscale), 0.0)
    bounds = np.column_stack([np.zeros(d), np.ones(d)])
    path = prior_state(hp, bounds).draw_rff_path(1024, seed=seed)
    return path.evaluate


def make_gp_problem(d: int, seed: int | None = None, mode: str = "extreme") -> Problem:
    if d not in _GP_PARAMS:
        raise ValueError(f"GP problems exist for d in {sorted(_GP_PARAMS)}")
    if seed is None:
        seed = GP_PROBLEM_SEEDS[d]
    _, c_ext, sigma_ext = _GP_PARAMS[d]
    if mode == "extreme":
        c, sigma = c_ext, sigma_ext
    else:
        c, sigma = _GP_NON_EXTREME[d]
    n_0, eps_s, delta_band = _GP_TABLE[d]
    return Problem(
        name=f"gp-{d}d",
        dim=d,
        bounds=np.column_stack([np.zeros(d), np.ones(d)]),
        c=c,
        perturb=PerturbationModel(np.full(d, sigma)),
        n_0=n_0,
        eps_s=eps_s,
        delta_band=delta_band,
        mode=mode,
        _fn=gp_sample_fn(d, seed),
    )


# -- registry --------------------------------------------------------------

# name -> (fn, bounds, c, n_0, eps_s, delta_band,
#          extreme sigmas, non-extreme sigmas)
_ANALYTIC = {
    "branin-2d": (
        _branin,
        [[-5, 10], [0, 15]],
        60.0,
        6,
        0.21,
        10.0,
        [0.8, 0.8],
        [2.5, 2.5],
    ),
    "six-hump-camel-2d": (
        _six_hump_camel,
        [[-3, 3], [-2, 2]],
        2.0,
        6,
        0.072,
        0.4,
        [0.2, 0.1],
        [0.6, 0.3],
    ),
    "ackley-2d": (
        _ackley,
        [[-32.768, 32.768]] * 2,
        20.5,
        6,
        0.93,
        0.2,
        [3.0, 3.0],
        [8.0, 8.0],
    ),
    "quadratic-2d": (
        _quadratic,
        [[0, 1], [0, 1]],
        0.09,
        6,
        0.014,
        0.01,
        [0.06, 0.06],
        [0.12, 0.12],
    ),
    "styblinski-tang-2d": (
        _styblinski_tang,
        [[-5, 5]] * 2,
        -20.0,
        6,
        0.14,
        10.0,
        [0.25, 0.5],
        [1.0, 2.0],
    ),
    "styblinski-tang-10d": (
        _styblinski_tang,
        [[-5, 5]] * 10,
        -300.0,
        50,
        0.32,
        10.0,
        [0.4] * 3 + [0.1] * 7,
        [0.8] * 3 + [0.2] * 7,
    ),
    "styblinski-tang-10d-cropped": (
        _styblinski_tang,
        [[-5, 0]] + [[-5, 5]] * 3 + [[-5, 0]] * 6,
        -300.0,
        50,
        0.22,
        10.0,
        [0.4] * 3 + [0.1] * 7,
        [0.8] * 3 + [0.2] * 7,
    ),
    "hartmann-6d": (
        _hartmann6,
        [[0, 1]] * 6,
        -1.0,
        15,
        0.024,
        0.02,
        [0.05] * 6,
        [0.1] * 6,
    ),
    "hartmann-6d-high": (
        _hartmann6,
        [[0, 1]] * 6,
        -0.05,
        15,
        0.024,
        0.02,
        [0.07] * 6,
        [0.18] * 6,
    ),
}

PROBLEM_NAMES = tuple(sorted(_ANALYTIC)) + ("gp-2d", "gp-8d", "gp-16d")


def get_problem(name: str, mode: str = "extreme") -> Problem:
    """Look up a problem by registry name, in either regime."""
    if name.startswith("gp-"):
        d = int(name[3:].rstrip("d"))
        return make_gp_problem(d, mode=mode)
    if name not in _ANALYTIC:
        raise KeyError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}")
    fn, bounds, c, n_0, eps_s, delta_band, sig_ext, sig_non = _ANALYTIC[name]
    sigmas = sig_ext if mode == "extreme" else sig_non
    bounds = np.asarray(bounds, float)
    return Problem(
        name=name,
        dim=len(bounds),
        bounds=bounds,
        c=c,
        perturb=PerturbationModel(np.asarray(sigmas, float)),
        n_0=n_0,
        eps_s=eps_s,
        delta_band=delta_band,
        mode=mode,
        _fn=fn,
    )
