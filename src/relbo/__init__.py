"""Bayesian optimization for maximizing design reliability: minimize the
failure probability of a randomly perturbed nominal design using a
Gaussian-process surrogate, rare-event importance sampling and a family of
acquisition strategies, with a benchmark harness and report tooling.
"""

__version__ = "0.1.0"

from .acquisition import AcquisitionSpec, IterationStreams
from .harness import ExperimentConfig, initial_design, recommend, run_bo, run_experiment
from .problems import Problem, get_problem, make_gp_problem
from .reliability import (
    ISSample,
    PerturbationModel,
    draw_is_sample,
    estimate_pn,
    estimate_ptilde,
    evaluate_true_failure,
)
from .surrogate import GPHyperparams, SurrogateState, fit_map

__all__ = [
    "AcquisitionSpec",
    "ExperimentConfig",
    "GPHyperparams",
    "ISSample",
    "IterationStreams",
    "PerturbationModel",
    "Problem",
    "SurrogateState",
    "draw_is_sample",
    "estimate_pn",
    "estimate_ptilde",
    "evaluate_true_failure",
    "fit_map",
    "get_problem",
    "initial_design",
    "make_gp_problem",
    "recommend",
    "run_bo",
    "run_experiment",
    "__version__",
]
