"""Golden digests, per platform: the sha256 of short runs of every strategy,
and of the hot-path outputs of the surrogate, the estimators, the fantasy
scan, the one-shot objective and ``recommend`` on two fitted fixtures.

Traces and hot-path outputs are byte-identical across reruns on one platform
only, so the digests live in ``tests/golden/<key>.json``, the key being the
first 16 hex digits of the sha256 of ``environment_fingerprint()`` as sorted
JSON. The tests compare against this platform's entry and skip when there is
none; the hot-path digests are also recomputed at one BLAS thread, and on the
fixtures the default row blocks must give the bytes of a single block and the
candidate pool those of a plain loop, in a forked child too. An
entry is written only by running this file, which prints each digest that
differs from the entry it overwrites::

    PYTHONPATH=src python tests/test_golden.py --refresh
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from relbo import acquisition, numerics
from relbo.acquisition import (
    _RHO,
    AcquisitionSpec,
    _FantasyScan,
    _strategies,
    oneshot_objective,
)
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


def fitted(name: str, n: int):
    """The problem ``name`` and a MAP fit to ``n`` of its observations: the
    initial design plus a Sobol' fill, as the benchmark's fixtures."""
    prob = get_problem(name)
    Y, v = initial_design(prob, seed=1)
    fill = _box(prob.bounds, n - len(v), 2)
    state = fit_map(np.vstack([Y, fill]), np.append(v, prob.evaluate(fill)), prob.bounds, seed=3)
    return prob, state


def hot_path_outputs(name: str, n: int) -> dict[str, tuple]:
    """The hot-path outputs on the fixture :func:`fitted` gives."""
    prob, state = fitted(name, n)
    bounds, c, d = prob.bounds, prob.c, prob.dim
    pts = _box(bounds, 2048, 4)
    y = pts[5]
    path = state.draw_rff_path(1024, seed=6)
    u_stream = SobolStream(gaussian_stream_dim(d), scramble_seed=7)
    sample = draw_is_sample(prob.perturb, prob.default_tau, 32, u_stream)
    xs = _box(bounds, 64, 8)
    z = gaussian_qmc(SobolStream(2, scramble_seed=9), 8, np.ones(1))[:, 0]
    scan = _FantasyScan(state, _box(bounds, 128, 10), z, sample, bounds, c, prob.use_log)
    grid = (sample, bounds, smoothing_width(bounds), c)
    out = {
        "posterior": state.posterior(pts),
        "posterior_with_grad": state.posterior_with_grad(pts),
        "cross_cov_with_grad": state.cross_cov_with_grad(pts, y),
        "rff.evaluate": (path.evaluate(pts),),
        "rff.evaluate_with_grad": path.evaluate_with_grad(pts),
        "estimate_pn": sum((estimate_pn(state, x, *grid) for x in xs[:4]), ()),
        "estimate_ptilde": sum((estimate_ptilde(path, x, *grid, _RHO) for x in xs[:4]), ()),
        "estimate_pn_batch": (estimate_pn_batch(state, xs, *grid),),
        "estimate_ptilde_batch": (estimate_ptilde_batch(path, xs, *grid, _RHO),),
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


def test_hot_path_digests_match_golden_at_one_blas_thread():
    # The key records no thread count, and blocked batches make many small
    # threaded BLAS calls: the digests must not depend on how they split.
    want = golden_entry()["hot_path"]
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    code = "import json, test_golden; print(json.dumps(test_golden.hot_path_digests()))"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout) == want


def kg_scan_fixture(name):
    """The fantasy scan at the KG sizes (n_u = 64, n_v = 32) over 100 grid
    designs on the fixture ``name``, and 8 candidate sites."""
    prob, state = fitted(name, FIXTURES[name])
    bounds = prob.bounds
    u_stream = SobolStream(gaussian_stream_dim(prob.dim), scramble_seed=7)
    sample = draw_is_sample(prob.perturb, prob.default_tau, 64, u_stream)
    z = gaussian_qmc(SobolStream(2, scramble_seed=9), 32, np.ones(1))[:, 0]
    scan = _FantasyScan(state, _box(bounds, 100, 10), z, sample, bounds, prob.c, prob.use_log)
    return scan, _box(bounds, 8, 8)


@pytest.mark.parametrize("name", FIXTURES)
def test_default_blocks_equal_one_block_bytewise(name, monkeypatch):
    # Checked where the digests were made, at the fixtures' widths: smaller
    # blocks (2^15 elements) do move the hartmann-6d bytes.
    golden_entry()
    prob, state = fitted(name, FIXTURES[name])
    bounds = prob.bounds
    pts = _box(bounds, 4096, 4)  # several blocks at the default budget
    path = state.draw_rff_path(1024, seed=6)
    u_stream = SobolStream(gaussian_stream_dim(prob.dim), scramble_seed=7)
    sample = draw_is_sample(prob.perturb, prob.default_tau, 1024, u_stream)
    grid = (sample, bounds, smoothing_width(bounds), prob.c)
    calls = {
        "posterior": lambda: state.posterior(pts),
        "posterior_with_grad": lambda: state.posterior_with_grad(pts),
        "cross_cov_with_grad": lambda: state.cross_cov_with_grad(pts, pts[5]),
        "rff.evaluate": lambda: (path.evaluate(pts),),
        "estimate_pn_batch": lambda: (estimate_pn_batch(state, _box(bounds, 64, 8), *grid),),
    }
    blocked = {key: _digest(*fn()) for key, fn in calls.items()}
    monkeypatch.setattr(numerics, "ELEMENT_BUDGET", 2**24)  # one block
    assert {key: _digest(*fn()) for key, fn in calls.items()} == blocked


@pytest.mark.parametrize("name", FIXTURES)
def test_fantasy_scan_blocks_bytewise(name, monkeypatch):
    # At n_u = 64, n_v = 32 a block holds 32 grid designs at the default
    # budget, so 100 designs span four blocks, the last one ragged.
    golden_entry()
    scan, ys = kg_scan_fixture(name)
    bounds = scan.bounds

    def digests():
        return {
            "scan": _digest(scan.scan(ys)),
            "value_at": _digest(*scan.value_at(ys[0])),
            "value_and_grad": _digest(*scan.value_and_grad(ys[1])),
            "log_p_at": _digest(scan.log_p_at(ys[2], smoothing_width(bounds))),
        }

    blocked = digests()
    for budget in (2**24, 2**10):  # one block; many blocks

        def scan_blocks(fn, rows, width, budget=budget):
            # Only the scan's blocks, cut by the rule of numerics.row_blocks
            # at this budget. numerics.ELEMENT_BUDGET is left alone: the
            # scan's candidates run on concurrent threads, and the envelope
            # gradient's surrogate pass blocks its rows by that budget, where
            # at 2^10 the smaller products move the hartmann-6d bytes without
            # any scan blocking.
            step = 1 << max(0, (budget // width).bit_length() - 1)
            blocks = [rows[i : i + step] for i in range(0, len(rows), step)]
            return numerics.concat_blocks([fn(block) for block in blocks])

        monkeypatch.setattr(acquisition, "in_blocks", scan_blocks)
        assert digests() == blocked, budget


@pytest.mark.parametrize("name", FIXTURES)
def test_pool_gives_the_inline_bytes(name):
    # The scan and recommend's coarse scan map independent candidates over
    # the pool; inside a task the map runs inline at one BLAS thread, and a
    # plain loop on this thread runs at the default BLAS thread count.
    scan, ys = kg_scan_fixture(name)
    prob, state, bounds = get_problem(name), scan.state, scan.bounds
    u_stream = SobolStream(gaussian_stream_dim(prob.dim), scramble_seed=7)
    sample = draw_is_sample(prob.perturb, prob.default_tau, 1024, u_stream)
    xs = _box(bounds, 256, 8)  # 8 blocks on branin-2d, 32 on hartmann-6d

    def outputs():
        grid = (sample, bounds, smoothing_width(bounds), prob.c)
        return scan.scan(ys).tobytes(), estimate_pn_batch(state, xs, *grid).tobytes()

    pooled = outputs()
    assert numerics.parallel_map(lambda _: outputs(), range(2)) == [pooled] * 2
    looped = np.array([scan.value_at(y)[0] for y in ys]).tobytes()
    assert looped == pooled[0]


@pytest.mark.parametrize("name", FIXTURES)
def test_forked_child_builds_its_own_pool(name):
    # `relbo run --parallel N` forks its repeats. The parent's pool threads
    # do not survive a fork, so a child that reused the pool would wait on
    # them forever.
    scan, ys = kg_scan_fixture(name)
    want = scan.scan(ys).tobytes()  # the parent's pool is built
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(scan.scan(ys).tobytes()))
    child.start()
    try:
        assert recv.poll(120), "the forked child's scan did not finish"
        assert recv.recv() == want
    finally:
        child.kill()
        child.join()


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
