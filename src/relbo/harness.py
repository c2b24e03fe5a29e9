"""The outer optimization loop: initial designs, strategy dispatch,
recommendation of the most reliable design, ground-truth scoring, repeat
management with per-repeat seed discipline, and CSV trace persistence.
"""

from __future__ import annotations

import configparser
import ctypes
import hashlib
import json
import logging
import os
import platform
import time
from dataclasses import MISSING, dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from .acquisition import AcqContext, AcquisitionSpec, IterationStreams, next_point
from .numerics import SobolStream, check_sizes, gaussian_stream_dim, openblas_function
from .optimizers import boltzmann_restarts, multistart_qn
from .problems import Problem, get_problem
from .reliability import (
    draw_is_sample,
    estimate_pn,
    estimate_pn_batch,
    evaluate_true_failure,
    smoothing_width,
)
from .surrogate import fit_map

log = logging.getLogger(__name__)

_FLOAT_FMT = "%.17g"
REC_CANDIDATES = 1024  # Sobol' candidates in recommend's scan


@dataclass
class ExperimentConfig:
    problem: str
    acquisition: AcquisitionSpec
    n_tot: int
    repeats: int = 1
    base_seed: int = 0
    mode: str = "extreme"
    out_dir: Path = Path("runs")
    rec_restarts: int = 10
    rec_n_u_coarse: int = 1024
    rec_n_u_fine: int = 131072
    rec_stride: int = 1
    score_n_u: int = 2**20
    record_timing: bool = True

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        prob = get_problem(self.problem, self.mode)
        if self.n_tot <= prob.n_0:
            raise ValueError(f"n_tot {self.n_tot} must exceed the initial design's "
                             f"n_0 {prob.n_0}, or no BO iteration runs")
        spec, n_raw = self.acquisition, self.acquisition.raw_count(prob.dim)
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        check_sizes(dict(rec_n_u_coarse=self.rec_n_u_coarse, rec_n_u_fine=self.rec_n_u_fine,
                         score_n_u=self.score_n_u, repeats=self.repeats,
                         rec_restarts=self.rec_restarts, rec_stride=self.rec_stride),
                    qmc=("rec_n_u_coarse", "rec_n_u_fine", "score_n_u"))
        if spec.n_restarts > n_raw:
            raise ValueError(
                f"n_restarts {spec.n_restarts} exceeds the {n_raw} candidates "
                "they are chosen from"
            )
        if self.rec_restarts > REC_CANDIDATES:
            raise ValueError(
                f"rec_restarts {self.rec_restarts} exceeds the {REC_CANDIDATES} "
                "candidates they are chosen from"
            )

    def to_dict(self) -> dict:
        """Every field but ``out_dir``: what the config hash covers."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out_dir"}
        out["acquisition"] = dict(vars(self.acquisition))
        return out

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# INI section -> {key: the ExperimentConfig field it sets, or under
# [acquisition] the AcquisitionSpec field}. Defaults, and which keys are
# required, come from the dataclasses alone.
_INI = {
    "problem": {"name": "problem", "mode": "mode"},
    "acquisition": {k: k for k in ("kind", "n_u", "n_v", "n_x", "n_raw", "n_restarts")},
    "budget": {k: k for k in ("n_tot", "repeats", "base_seed")},
    "recommendation": {
        "restarts": "rec_restarts", "n_u_coarse": "rec_n_u_coarse",
        "n_u_fine": "rec_n_u_fine", "stride": "rec_stride", "score_n_u": "score_n_u",
        "record_timing": "record_timing",
    },
}


def load_config(path, out_dir=None) -> ExperimentConfig:
    """Parse an INI experiment config; unknown or missing sections and keys
    are errors. Only the keys present are passed on."""
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    for section in parser.sections():
        if section not in _INI:
            raise ValueError(f"unknown config section [{section}]")
        unknown = set(parser[section]) - set(_INI[section])
        if unknown:
            raise ValueError(f"unknown keys in [{section}]: {', '.join(sorted(unknown))}")
    required = {f.name for cls in (ExperimentConfig, AcquisitionSpec)
                for f in fields(cls) if f.default is MISSING}
    kwargs, spec = {}, {}
    for section, keys in _INI.items():
        for key, name in keys.items():
            if parser.has_option(section, key):
                get = {"name": parser.get, "mode": parser.get, "kind": parser.get,
                       "record_timing": parser.getboolean}.get(key, parser.getint)
                (spec if section == "acquisition" else kwargs)[name] = get(section, key)
            elif name in required:
                raise ValueError(f"config has no [{section}] {key}")
    if out_dir is not None:
        kwargs["out_dir"] = Path(out_dir)
    return ExperimentConfig(acquisition=AcquisitionSpec(**spec), **kwargs)


# -- seed discipline -------------------------------------------------------


def _child_seed(*entropy) -> int:
    words = [
        e if isinstance(e, (int, np.integer))
        else int.from_bytes(hashlib.sha256(str(e).encode()).digest()[:4], "little")
        for e in entropy
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


# -- initial design --------------------------------------------------------


def initial_design(problem: Problem, seed: int):
    """Scrambled-Sobol' initial design of the problem's pinned size."""
    stream = SobolStream(problem.dim, scramble_seed=seed)
    pts = problem.bounds[:, 0] + stream.take(problem.n_0) * (
        problem.bounds[:, 1] - problem.bounds[:, 0]
    )
    return pts, problem.evaluate(pts)


# -- recommendation --------------------------------------------------------


def recommend(
    state,
    problem: Problem,
    seed: int = 0,
    restarts: int = 10,
    n_u_coarse: int = 1024,
    n_u_fine: int = 131072,
):
    """The design with the best estimated reliability under the surrogate.

    Scans Sobol' candidates with a coarse importance sample, Boltzmann-selects
    restarts (argmax always included) and polishes with bounded quasi-Newton;
    for problems of more than two dimensions the winner is re-polished under
    a much larger sample (the fine stage). When every candidate's estimate
    is zero, none is more reliable than another and the first is returned.

    Returns (x_rec, p_hat at x_rec). p_hat is clamped to 1: the estimate
    mean(w * J) can exceed 1, since the importance weights' sample mean is
    not exactly 1.
    """
    bounds = problem.bounds
    d, tau = problem.dim, problem.default_tau
    delta = smoothing_width(bounds)
    u_stream = SobolStream(gaussian_stream_dim(d), scramble_seed=_child_seed(seed, 1))
    sample = draw_is_sample(problem.perturb, tau, n_u_coarse, u_stream)
    cands = bounds[:, 0] + SobolStream(d, scramble_seed=_child_seed(seed, 2)).take(
        REC_CANDIDATES
    ) * (bounds[:, 1] - bounds[:, 0])
    log_p = estimate_pn_batch(state, cands, sample, bounds, delta, problem.c)
    if np.all(np.isinf(log_p)):
        # log P = -inf forces iota = 1 at every perturbed point, so every
        # candidate keeps the same in-box mass mean(w): none is more reliable.
        log.warning("recommend: all candidates at zero estimated probability")
        return cands[0], 0.0
    starts = boltzmann_restarts(cands, -log_p, restarts, _child_seed(seed, 3))

    def polish(is_sample, starts, **kwargs):
        objective = partial(
            estimate_pn, state, is_sample=is_sample, bounds=bounds, delta=delta, c=problem.c
        )
        return multistart_qn(objective, bounds, starts, **kwargs)

    x_best, val, _ = polish(sample, starts)
    if d > 2:
        fine_stream = SobolStream(gaussian_stream_dim(d), scramble_seed=_child_seed(seed, 4))
        fine_sample = draw_is_sample(problem.perturb, tau, n_u_fine, fine_stream)
        x_best, val, _ = polish(fine_sample, [x_best], max_iters=50)
    return x_best, min(float(np.exp(val)), 1.0)


# -- trace persistence -----------------------------------------------------


class TraceWriter:
    """Append-only CSV trace with a terminal completeness marker row."""

    def __init__(self, path: Path, dim: int):
        self.path = Path(path)
        self.dim = dim
        y_cols = [f"y_{j + 1}" for j in range(dim)]
        x_cols = [f"x_rec_{j + 1}" for j in range(dim)]
        self.header = (
            ["repeat", "n", "phase"]
            + y_cols
            + ["v", "acq_value", "rule"]
            + x_cols
            + ["p_hat", "p_true", "wall_ms"]
        )

    def start(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            fh.write(",".join(self.header) + "\n")

    def _fmt(self, v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return _FLOAT_FMT % float(v)

    def append(self, repeat, n, phase, y=None, v=None, acq_value=None, rule="",
               x_rec=None, p_hat=None, p_true=None, wall_ms=None):
        y = [None] * self.dim if y is None else list(y)
        x_rec = [None] * self.dim if x_rec is None else list(x_rec)
        row = [repeat, n, phase] + y + [v, acq_value, rule] + x_rec + [
            p_hat, p_true, wall_ms
        ]
        with open(self.path, "a") as fh:
            fh.write(",".join(self._fmt(c) for c in row) + "\n")

    def finish(self, repeat):
        self.append(repeat, -1, "done")


def read_trace(path):
    """Parse a trace CSV into (header, list of row dicts), floats where numeric.

    Only complete rows are read: newline-terminated, with one cell per
    column. A row torn by a crash mid-write, and anything after it, is left
    out.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:  # lines[-1] follows the last newline
        cells = line.split(",")
        if len(cells) != len(header):
            break
        row = {}
        for key, cell in zip(header, cells):
            if key in ("repeat", "n"):
                row[key] = int(cell)
            elif key in ("phase", "rule"):
                row[key] = cell
            else:
                row[key] = float(cell) if cell else None
        rows.append(row)
    return header, rows


def trace_is_complete(path) -> bool:
    path = Path(path)
    if not path.exists():
        return False
    _, rows = read_trace(path)
    return bool(rows) and rows[-1]["phase"] == "done"


# -- the BO loop -----------------------------------------------------------


def _trace_path(config: ExperimentConfig, repeat_index: int) -> Path:
    return config.out_dir / f"trace_{config.hash()}_r{repeat_index}.csv"


def run_bo(config: ExperimentConfig, repeat_index: int, trace_path=None) -> Path:
    """One optimization run: fit, select, evaluate, recommend, score, trace.

    If an incomplete trace exists for this repeat, the run resumes after the
    last complete record by replaying the stored observations; a row torn
    by a crash mid-write is cut off first. Every GP fit is a function of the
    observations and a seed alone, so a resumed run writes the bytes of the
    uninterrupted one.
    """
    problem = get_problem(config.problem, config.mode)
    seed = config.base_seed + repeat_index
    d = problem.dim
    if trace_path is None:
        trace_path = _trace_path(config, repeat_index)
    writer = TraceWriter(trace_path, d)

    resumed_rows = read_trace(trace_path)[1] if Path(trace_path).exists() else []
    if resumed_rows and resumed_rows[-1]["phase"] == "done":
        return Path(trace_path)
    if len(resumed_rows) >= problem.n_0:
        # Cut a torn last row so the next record starts on a fresh line.
        lines = Path(trace_path).read_bytes().splitlines(keepends=True)
        os.truncate(trace_path, len(b"".join(lines[: 1 + len(resumed_rows)])))
        Y = np.array([[r[f"y_{j + 1}"] for j in range(d)] for r in resumed_rows])
        v = np.array([r["v"] for r in resumed_rows])
    else:  # no trace or a partial initial design: start from scratch
        writer.start()
        Y, v = initial_design(problem, _child_seed(seed, "design"))
        for i in range(problem.n_0):
            writer.append(repeat_index, i + 1, "init", y=Y[i], v=v[i])

    sobol_seed = _child_seed(seed, "sobol")
    state = None  # the fit to (Y, v) when a checkpoint has made it already
    for n in range(len(v), config.n_tot):
        t0 = time.monotonic()
        if state is None:
            state = fit_map(Y, v, bounds=problem.bounds, seed=_child_seed(seed, "fit", n))
        streams = IterationStreams.from_seed(_child_seed(seed, "acq", n), d)
        y_next, diag = next_point(
            AcqContext(state, problem, config.acquisition, streams, Y, v, sobol_seed)
        )
        v_next = float(problem.evaluate(y_next[None, :])[0])
        Y = np.vstack([Y, y_next[None, :]])
        v = np.append(v, v_next)

        is_checkpoint = ((n + 1 - problem.n_0) % config.rec_stride == 0) or (
            n + 1 == config.n_tot
        )
        x_rec = p_hat = p_true = state = None
        if is_checkpoint:
            state = fit_map(Y, v, bounds=problem.bounds, seed=_child_seed(seed, "fit", n + 1))
            x_rec, p_hat = recommend(
                state, problem, seed=_child_seed(seed, "rec", n), restarts=config.rec_restarts,
                n_u_coarse=config.rec_n_u_coarse, n_u_fine=config.rec_n_u_fine,
            )
            p_true = evaluate_true_failure(
                problem, x_rec, n_u=config.score_n_u, seed=_child_seed(seed, "score")
            )
        wall_ms = (time.monotonic() - t0) * 1e3 if config.record_timing else 0.0
        writer.append(
            repeat_index,
            n + 1,
            "iter",
            y=y_next,
            v=v_next,
            acq_value=diag.value if np.isfinite(diag.value) else None,
            rule=diag.rule,
            x_rec=x_rec,
            p_hat=p_hat,
            p_true=p_true,
            wall_ms=wall_ms,
        )
    writer.finish(repeat_index)
    return Path(trace_path)


def _blas_id(show_config) -> str:
    """Name, version and build configuration of the BLAS a package links."""
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # show_config without dicts, or no BLAS entry
        return "unknown"
    parts = [blas.get("name"), blas.get("version"), blas.get("openblas configuration")]
    return " | ".join(str(p) for p in parts if p)


def _blas_core(package, symbol) -> str:
    """The kernel set the OpenBLAS in ``<package>.libs`` picked for this CPU."""
    corename = openblas_function(package, symbol, ctypes.c_char_p)
    return corename().decode() if corename else "unknown"


def environment_fingerprint() -> dict:
    """The numerical platform of this process, recorded in manifests.

    Traces are byte-identical across reruns on one platform only: another
    Python, NumPy, SciPy or BLAS build may round the last digits of the linear
    algebra differently, and a run then drifts to another query sequence.
    SciPy links its own BLAS, which drives the GP's Cholesky solves, so both
    are listed. A BLAS built with run-time kernel dispatch (OpenBLAS
    ``DYNAMIC_ARCH``) picks its kernels by CPU, so the kernel set each one
    runs is listed too; two CPUs that share it may still round differently.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_id(np.show_config),
        "blas_core": _blas_core(np, "scipy_openblas_get_corename64_"),
        "scipy_blas": _blas_id(scipy.show_config),
        "scipy_blas_core": _blas_core(scipy, "scipy_openblas_get_corename"),
        "machine": platform.machine(),
    }


def run_experiment(config: ExperimentConfig, executor=None) -> dict:
    """Run all repeats and write a manifest describing them.

    Repeats run one after another, or on ``executor`` (a
    ``concurrent.futures`` executor) when one is given; a repeat that raises
    is recorded as failed. Each trace is listed by its path relative to the
    manifest, so a moved directory still lists its traces. Complete traces
    already on disk are reused as they are, so the manifest's
    ``environment`` block names the platform every listed trace was made on:
    this process's ``environment_fingerprint()`` for traces made here, the
    previous manifest's block for traces reused. When those differ, or a
    reused trace has no recorded platform, the block is left out. It stays
    out of the config hash, the trace names and the trace bytes.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = config.out_dir / f"manifest_{config.hash()}.json"
    here = environment_fingerprint()
    previous = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    before = previous.get("environment")
    listed = {e["sha256"] for e in previous.get("repeats", {}).values() if e.get("sha256")}
    origins = {}  # the platforms each repeat's trace is made on
    for r in range(config.repeats):
        existing = _trace_path(config, r)
        if not existing.exists():
            origins[r] = [here]
        elif trace_is_complete(existing):
            # Reused as is: only the previous manifest can say where it was made.
            digest = hashlib.sha256(existing.read_bytes()).hexdigest()
            origins[r] = [before if digest in listed else None]
        else:  # resumed: the prefix is credited to the previous manifest's platform
            origins[r] = [before, here]
    futures = {}
    if executor is not None:
        futures = {r: executor.submit(run_bo, config, r) for r in range(config.repeats)}
    statuses = {}
    traces = {}
    made_on = []  # the platforms the listed traces were made on
    for r in range(config.repeats):
        try:
            path = futures[r].result() if futures else run_bo(config, r)
            statuses[r] = "ok"
            traces[r] = str(path)
            made_on += origins[r]
        except Exception as err:  # noqa: BLE001 - record and continue
            log.exception("repeat %d failed", r)
            statuses[r] = f"failed: {err}"
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "seeds": [config.base_seed + r for r in range(config.repeats)],
        "repeats": {
            str(r): {
                "status": statuses[r],
                "trace": os.path.relpath(traces[r], config.out_dir) if r in traces else None,
                "sha256": (
                    hashlib.sha256(Path(traces[r]).read_bytes()).hexdigest()
                    if r in traces
                    else None
                ),
            }
            for r in range(config.repeats)
        },
        "failed_repeats": [r for r, s in statuses.items() if s != "ok"],
    }
    if made_on and made_on[0] is not None and all(e == made_on[0] for e in made_on):
        manifest["environment"] = made_on[0]
    # Written whole or not at all: a crash leaves the previous manifest.
    tmp = manifest_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, manifest_path)
    manifest["manifest_path"] = str(manifest_path)
    return manifest
