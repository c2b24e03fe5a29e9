"""Golden digests, per platform: the sha256 of short runs of every strategy,
and of the hot-path outputs of the surrogate, the estimators, the fantasy
scan, the one-shot objective and ``recommend`` on two fitted fixtures.

Traces and hot-path outputs are byte-identical across reruns on one platform
only, so the digests live in ``tests/golden/<key>.json``, the key being the
first 16 hex digits of the sha256 of ``environment_fingerprint()`` as sorted
JSON. The tests compare against this platform's entry and skip when there is
none. An entry is written only by running this file, which prints each
digest that differs from the entry it overwrites::

    PYTHONPATH=src python tests/test_golden.py --refresh
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from relbo.acquisition import AcquisitionSpec, _FantasyScan, _strategies, oneshot_objective
from relbo.harness import (
    ExperimentConfig,
    environment_fingerprint,
    initial_design,
    recommend,
    run_bo,
)
from relbo.numerics import SobolStream, gaussian_qmc, gaussian_stream_dim
from relbo.problems import get_problem
from relbo.reliability import (
    draw_is_sample,
    estimate_pn,
    estimate_pn_batch,
    estimate_ptilde,
    estimate_ptilde_batch,
    smoothing_width,
)
from relbo.surrogate import fit_map

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SMALL = dict(n_u=32, n_v=8, n_x=128, n_raw=64, n_restarts=4)
FIXTURES = {"branin-2d": 30, "hartmann-6d": 40}


def platform_key() -> str:
    fingerprint = json.dumps(environment_fingerprint(), sort_keys=True).encode()
    return hashlib.sha256(fingerprint).hexdigest()[:16]


def golden_entry() -> dict:
    path = GOLDEN_DIR / f"{platform_key()}.json"
    if not path.exists():
        pytest.skip(f"no golden entry {path.name} for this platform")
    return json.loads(path.read_text())


def trace_digests() -> dict[str, str]:
    """The trace sha256 of a 3-iteration quadratic-2d run of each strategy."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in _strategies():
            cfg = ExperimentConfig(
                "quadratic-2d", AcquisitionSpec(kind, **SMALL), n_tot=9, base_seed=5,
                mode="extreme", out_dir=Path(tmp) / kind, rec_stride=1,
                rec_n_u_coarse=256, score_n_u=4096, record_timing=False,
            )
            out[kind] = hashlib.sha256(run_bo(cfg, 0).read_bytes()).hexdigest()
    return out


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, float)).tobytes())
    return h.hexdigest()


def _box(bounds, count, seed):
    d = len(bounds)
    return bounds[:, 0] + SobolStream(d, scramble_seed=seed).take(count) * (
        bounds[:, 1] - bounds[:, 0]
    )


def hot_path_outputs(name: str, n: int) -> dict[str, tuple]:
    """The hot-path outputs on a MAP fit to ``n`` observations of ``name``:
    the initial design plus a Sobol' fill, as the benchmark's fixtures."""
    prob = get_problem(name)
    bounds, c, d = prob.bounds, prob.c, prob.dim
    Y, v = initial_design(prob, seed=1)
    fill = _box(bounds, n - len(v), 2)
    state = fit_map(np.vstack([Y, fill]), np.append(v, prob.evaluate(fill)), bounds, seed=3)
    pts = _box(bounds, 2048, 4)
    y = pts[5]
    path = state.draw_rff_path(1024, seed=6)
    u_stream = SobolStream(gaussian_stream_dim(d), scramble_seed=7)
    sample = draw_is_sample(prob.perturb, prob.default_tau, 32, u_stream)
    xs = _box(bounds, 64, 8)
    z = gaussian_qmc(SobolStream(2, scramble_seed=9), 8, np.ones(1))[:, 0]
    spec = AcquisitionSpec("kg_mr_discrete", **SMALL)
    scan = _FantasyScan(state, _box(bounds, 128, 10), z, sample, bounds, c, prob.use_log)
    grid = (sample, bounds, smoothing_width(bounds), c)
    out = {
        "posterior": state.posterior(pts),
        "posterior_with_grad": state.posterior_with_grad(pts),
        "cross_cov_with_grad": state.cross_cov_with_grad(pts, y),
        "rff.evaluate": (path.evaluate(pts),),
        "rff.evaluate_with_grad": path.evaluate_with_grad(pts),
        "estimate_pn": sum((estimate_pn(state, x, *grid) for x in xs[:4]), ()),
        "estimate_ptilde": sum((estimate_ptilde(path, x, *grid, spec.rho) for x in xs[:4]), ()),
        "estimate_pn_batch": (estimate_pn_batch(state, xs, *grid),),
        "estimate_ptilde_batch": (estimate_ptilde_batch(path, xs, *grid, spec.rho),),
        "fantasy_scan": (scan.scan(xs[:8]),),
        "oneshot_objective": oneshot_objective(
            state, np.concatenate([y, xs[:8].ravel()]), z, *grid, True
        ),
    }
    if d <= 2:  # recommend's coarse stage only
        out["recommend"] = recommend(state, prob, seed=11, restarts=2, n_u_coarse=64)
    return out


def hot_path_digests() -> dict[str, str]:
    return {
        f"{name}/{key}": _digest(*arrays)
        for name, n in FIXTURES.items()
        for key, arrays in hot_path_outputs(name, n).items()
    }


def moved_digests(old: dict, new: dict) -> list[str]:
    """One line per digest of the entry ``new`` that differs from the entry
    ``old`` it overwrites: its group, key and both 12-digit prefixes, '-'
    where a key is absent."""
    lines = []
    for group in ("traces", "hot_path"):
        before, after = old.get(group, {}), new[group]
        for key in sorted(before.keys() | after.keys()):
            a, b = before.get(key, "-"), after.get(key, "-")
            if a != b:
                lines.append(f"{group} {key}: {a[:12]} -> {b[:12]}")
    return lines


def test_refresh_reports_moved_digests():
    old = {"traces": {"ei": "a" * 64, "hc": "b" * 64}, "hot_path": {"p/gone": "c" * 64}}
    new = {"traces": {"ei": "a" * 64, "hc": "d" * 64}, "hot_path": {"p/new": "e" * 64}}
    assert moved_digests(old, new) == [
        "traces hc: bbbbbbbbbbbb -> dddddddddddd",
        "hot_path p/gone: cccccccccccc -> -",
        "hot_path p/new: - -> eeeeeeeeeeee",
    ]
    assert moved_digests(new, new) == []


def test_trace_digests_match_golden():
    assert trace_digests() == golden_entry()["traces"]


def test_hot_path_digests_match_golden():
    assert hot_path_digests() == golden_entry()["hot_path"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--refresh"]:
        sys.exit("usage: python tests/test_golden.py --refresh")
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{platform_key()}.json"
    entry = {
        "environment": environment_fingerprint(),
        "traces": trace_digests(),
        "hot_path": hot_path_digests(),
    }
    old = json.loads(path.read_text()) if path.exists() else {}
    for line in moved_digests(old, entry):
        print(line)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
