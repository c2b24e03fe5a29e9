"""Acceptance gate: end-to-end checks at pinned tolerances.

Each test prints a single ``ACCEPTANCE <k>: PASS`` line on success (run with
``-s`` to see them as they complete).  The experiment-scale criteria cache
their traces under ``acceptance_runs/`` so reruns are cheap; delete that
directory for a cold run.

Traces are byte-identical across reruns of one source tree on one platform
only, so the caches behind criteria 8, 10 and 11 are per platform and per
source tree: each lives in an ``env_<key>/`` subdirectory of its run directory
(``acceptance_runs/quadratic_non_extreme/`` for criteria 8 and 11,
``acceptance_runs/smoke_<n_u>_<n_v>/`` for criterion 10), the key hashing
``environment_fingerprint()`` and the ``src/relbo`` sources. After a source
change or on a new platform the first run regenerates them (about 5 minutes
for the 10 quadratic repeats and under a minute for the four smoke runs, on 2
CPUs) and later runs reuse them; the sibling ``env_*`` directories this
platform made for older source trees are deleted. Criteria 1, 3, 4, 6, 8 and 9
assert wall-clock gates and carry the ``timing`` marker, so they can be run
alone (``-m timing``). Criterion 9 still reads the committed Branin caches,
and stays red by design (see the README).
"""

import hashlib
import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fantasy_marginal, fd_gradient_error, log_j_at
from test_numerics import log_phi_asymptotic

from relbo.acquisition import (
    AcqContext,
    AcquisitionSpec,
    IterationStreams,
    _FantasyScan,
    expected_feasibility,
    kg_discrete_next,
    kg_oneshot_next,
    oneshot_objective,
)
from relbo.harness import (
    ExperimentConfig,
    environment_fingerprint,
    read_trace,
    run_bo,
    run_experiment,
    trace_is_complete,
)
from relbo.numerics import (
    SobolStream,
    gaussian_qmc,
    std_normal_cdf,
    std_normal_log_cdf,
)
from relbo.problems import get_problem
from relbo.reliability import (
    PerturbationModel,
    draw_is_sample,
    estimate_pn,
    estimate_pn_batch,
    estimate_ptilde,
    estimate_ptilde_batch,
    evaluate_true_failure,
    smoothing_width,
)
from relbo.surrogate import fit_map
from reference import refit_on_fantasy, regularized_lower_gamma

ACC_DIR = Path(__file__).resolve().parent.parent / "acceptance_runs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "relbo"


def report(k, message):
    print(f"\nACCEPTANCE {k}: PASS — {message}")


def box_points(bounds, count, seed):
    bounds = np.asarray(bounds, float)
    pts = SobolStream(bounds.shape[0], scramble_seed=seed).take(count)
    return bounds[:, 0] + pts * (bounds[:, 1] - bounds[:, 0])


# -- 1: importance-sampled tail probability --------------------------------


@pytest.mark.timing
def test_criterion_01_is_tail_probability():
    t0 = time.monotonic()
    truth = 1.349898e-3  # 1 - Phi(3)
    sample = draw_is_sample(
        PerturbationModel([1.0]), 3.0, 4096, SobolStream(2, scramble_seed=0)
    )
    hits = sample.points[:, 0] >= 3.0
    est = float(np.mean(np.exp(sample.log_weights) * hits))
    elapsed = time.monotonic() - t0
    rel = abs(est - truth) / truth
    assert rel <= 0.05
    assert elapsed < 1.0
    report(1, f"tail estimate {est:.6e} vs {truth:.6e}, rel err {rel:.2%} in {elapsed:.3f}s")


# -- 2: special functions --------------------------------------------------


def test_criterion_02_special_functions():
    assert abs(std_normal_cdf(1.0) - 0.8413447461) < 1e-9
    assert abs(regularized_lower_gamma(0.5, 1.0) - 0.8427007929) < 1e-9
    got = std_normal_log_cdf(-20.0)
    oracle = log_phi_asymptotic(20.0)
    assert np.isfinite(got)
    assert abs(got - oracle) / abs(oracle) < 1e-6
    report(2, f"Phi(1), P(1/2,1) to 1e-9; log Phi(-20) = {got:.9f} within 1e-6 of oracle")


# -- 3: fantasy update vs full refit ---------------------------------------


@pytest.mark.timing
def test_criterion_03_fantasy_equals_refit():
    # The knowledge gradient's rank-one update, by both routes that feed it,
    # against a rebuild of the whole state on the fantasy observation.
    t0 = time.monotonic()
    prob = get_problem("branin-2d")
    X = box_points(prob.bounds, 20, seed=12)
    state = fit_map(X, prob.evaluate(X), bounds=prob.bounds, seed=0)
    y = np.array([2.0, 8.0])
    z = -0.4
    pts = box_points(prob.bounds, 50, seed=13)
    m_r, v_r = refit_on_fantasy(state, y, z).posterior(pts)
    scale = state.transforms.output_std
    worst = 0.0
    for want_grad in (False, True):
        m_f, v_f = fantasy_marginal(state, pts, y, z, want_grad)
        worst = max(
            worst,
            float(np.max(np.abs(m_f - m_r))) / scale,
            float(np.max(np.abs(v_f - v_r))) / scale**2,
        )
    elapsed = time.monotonic() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    report(3, f"max scaled discrepancy {worst:.2e} at 50 points in {elapsed:.2f}s")


# -- 4: analytic gradients vs finite differences ---------------------------


@pytest.mark.timing
def test_criterion_04_gradient_suite(branin_state, branin_problem):
    t0 = time.monotonic()
    prob = branin_problem
    span = prob.bounds[:, 1] - prob.bounds[:, 0]
    delta = smoothing_width(prob.bounds)
    sample = draw_is_sample(prob.perturb, 3.0, 256, SobolStream(2, scramble_seed=1))

    checked = 0
    for x in box_points(prob.bounds, 40, seed=14):
        log_p, grad = estimate_pn(branin_state, x, sample, prob.bounds, delta, prob.c)
        if not np.isfinite(log_p):
            continue
        err = fd_gradient_error(
            lambda p: estimate_pn_batch(
                branin_state, p[None, :], sample, prob.bounds, delta, prob.c
            )[0],
            x,
            grad,
            span,
        )
        assert err <= 1e-3
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20

    path = branin_state.draw_rff_path(1024, seed=3)
    rho = 0.5
    checked_path = 0
    for x in box_points(prob.bounds, 40, seed=15):
        log_p, grad = estimate_ptilde(path, x, sample, prob.bounds, delta, prob.c, rho)
        if not np.isfinite(log_p):
            continue
        err = fd_gradient_error(
            lambda p: estimate_ptilde_batch(
                path, p[None, :], sample, prob.bounds, delta, prob.c, rho
            )[0],
            x,
            grad,
            span,
        )
        assert err <= 1e-3
        checked_path += 1
        if checked_path >= 20:
            break
    assert checked_path >= 20

    n_v = 4
    z_sample = gaussian_qmc(SobolStream(2, scramble_seed=16), n_v, np.ones(1))[:, 0]
    joint_span = np.tile(span, 1 + n_v)
    rng = np.random.default_rng(17)
    checked_joint = 0
    while checked_joint < 20:
        joint = np.tile(prob.bounds[:, 0], 1 + n_v) + rng.uniform(
            size=2 * (1 + n_v)
        ) * joint_span
        val, grad = oneshot_objective(
            branin_state, joint, z_sample, sample, prob.bounds, delta, prob.c, True
        )
        if not np.isfinite(val):
            continue
        err = fd_gradient_error(
            lambda j: oneshot_objective(
                branin_state, j, z_sample, sample, prob.bounds, delta, prob.c, True
            )[0],
            joint,
            grad,
            joint_span,
        )
        assert err <= 1e-3
        checked_joint += 1

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(4, f"{checked} + {checked_path} + {checked_joint} gradient checks at 1e-3 in {elapsed:.1f}s")


# -- 5: knowledge-gradient non-negativity ----------------------------------


def test_criterion_05_kg_nonnegative(branin_state, branin_problem):
    prob = branin_problem
    spec = AcquisitionSpec("kg_mr_discrete", n_u=32, n_v=16, n_x=128, n_raw=64, n_restarts=4)
    streams = IterationStreams.from_seed(20, 2)
    sample = draw_is_sample(prob.perturb, prob.default_tau, spec.n_u, streams.u_stream)
    # Antithetic fantasy draws: matching the first moment exactly keeps the
    # estimator noise on this provably non-negative quantity inside the slack.
    z_half = gaussian_qmc(streams.z_stream, spec.n_v // 2, np.ones(1))[:, 0]
    z_sample = np.concatenate([z_half, -z_half])
    x_disc = box_points(prob.bounds, spec.n_x, seed=21)
    scan = _FantasyScan(
        branin_state, x_disc, z_sample, sample, prob.bounds, prob.c, prob.use_log
    )
    ys = box_points(prob.bounds, 512, seed=22)
    vals = scan.scan(ys)
    evaluations = len(vals)
    assert np.all(vals >= -1e-2)

    history = (branin_state.train_inputs, branin_state.train_targets)
    _, d_disc = kg_discrete_next(
        AcqContext(branin_state, prob, spec, IterationStreams.from_seed(23, 2), *history)
    )
    oneshot_spec = AcquisitionSpec("kg_mr_oneshot", n_u=32, n_v=4, n_x=128, n_raw=16, n_restarts=2)
    _, d_os = kg_oneshot_next(
        AcqContext(branin_state, prob, oneshot_spec, IterationStreams.from_seed(24, 2), *history)
    )
    for d in (d_disc, d_os):
        assert d.value >= -1e-2
        evaluations += 1
    assert evaluations >= 500
    report(5, f"min KG value {min(vals.min(), d_disc.value, d_os.value):.2e} over {evaluations} evaluations")


# -- 6: expected-feasibility closed form vs MC -----------------------------


@pytest.mark.timing
def test_criterion_06_egra_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(6)
    z = rng.standard_normal(10**6)
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(-3.0, 3.0)
        sd = rng.uniform(0.3, 2.0)
        c = mu + sd * rng.uniform(-2.0, 2.0)
        kappa = rng.uniform(0.5, 3.0)
        closed, _ = expected_feasibility(np.array([mu]), np.array([sd]), c, kappa)
        closed = float(closed[0])
        draws = np.maximum(kappa * sd - np.abs(c - (mu + sd * z)), 0.0)
        se = draws.std() / np.sqrt(len(draws))
        assert abs(closed - draws.mean()) < 3 * se
        worst = max(worst, abs(closed - draws.mean()) / se)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"50 configs within 3 SE (worst {worst:.2f} SE) in {elapsed:.1f}s")


# -- 7: estimator self-consistency across tau ------------------------------


def pn_terms(state, x, sample, bounds, delta, c):
    """Per-sample contributions to the probability estimate (for SEs)."""
    log_j = log_j_at(state, x + sample.points, bounds, delta, c)
    return np.exp(sample.log_weights + log_j)


def test_criterion_07_tau_self_consistency(quadratic_state, quadratic_problem):
    prob = quadratic_problem
    delta = smoothing_width(prob.bounds)
    scout = draw_is_sample(prob.perturb, 3.0, 4096, SobolStream(2, scramble_seed=30))
    cands = box_points(prob.bounds, 256, seed=31)
    log_p = estimate_pn_batch(quadratic_state, cands, scout, prob.bounds, delta, prob.c)
    sel = cands[(log_p > np.log(1e-4)) & (log_p < np.log(1e-1))][:10]
    assert len(sel) == 10

    s3 = draw_is_sample(prob.perturb, 3.0, 2**16, SobolStream(2, scramble_seed=32))
    s1 = draw_is_sample(prob.perturb, 1.0, 2**16, SobolStream(2, scramble_seed=33))
    worst = 0.0
    for x in sel:
        t3 = pn_terms(quadratic_state, x, s3, prob.bounds, delta, prob.c)
        t1 = pn_terms(quadratic_state, x, s1, prob.bounds, delta, prob.c)
        diff = abs(t3.mean() - t1.mean())
        se = np.hypot(t3.std() / np.sqrt(len(t3)), t1.std() / np.sqrt(len(t1)))
        assert diff < 3 * se
        worst = max(worst, diff / se)
    report(7, f"tau = 3 vs tau = 1 at 10 points within 3 combined SE (worst {worst:.2f} SE)")


# -- 8 & 11: desk-scale optimization, determinism --------------------------


def criterion8_config(out_dir):
    # mode = non_extreme gives tau = 1 and the raw-P value function.
    spec = AcquisitionSpec("kg_mr_oneshot", n_u=32, n_v=8, n_x=256, n_raw=32, n_restarts=4)
    return ExperimentConfig(
        "quadratic-2d", spec, n_tot=40, repeats=10, base_seed=0,
        mode="non_extreme", out_dir=Path(out_dir), rec_stride=34,
        rec_n_u_coarse=512, score_n_u=2**18, record_timing=False,
    )


def on_this_platform(cfg):
    """A copy of ``cfg`` that writes to a subdirectory named after this
    platform and this source tree.

    Traces are byte-identical only across reruns of one source tree on one
    platform, so each pair keeps its own cache under ``env_<key>/``, the key
    hashing ``environment_fingerprint()`` and every ``src/relbo/*.py`` file: a
    run reuses only traces made by the same code where the fingerprint is the
    same, and the cache in ``cfg.out_dir`` itself is never read or rewritten.
    """
    key = hashlib.sha256(json.dumps(environment_fingerprint(), sort_keys=True).encode())
    for path in sorted(SRC_DIR.glob("*.py")):
        key.update(path.name.encode() + b"\0" + path.read_bytes())
    return replace(cfg, out_dir=cfg.out_dir / f"env_{key.hexdigest()[:16]}")


def prune_stale_caches(keep, here):
    """Delete the ``env_*`` siblings of ``keep`` whose manifest names platform
    ``here``: older source trees made them on this platform, so no key will
    pick them again. A directory from another platform, or without a
    manifest, is left alone."""
    for other in keep.parent.glob("env_*"):
        if other == keep or not other.is_dir():
            continue
        manifests = list(other.glob("manifest_*.json"))
        if manifests and all(
            json.loads(m.read_text()).get("environment") == here for m in manifests
        ):
            shutil.rmtree(other)


@pytest.fixture(scope="module")
def desk_quadratic_runs():
    cfg = on_this_platform(criterion8_config(ACC_DIR / "quadratic_non_extreme"))
    prune_stale_caches(cfg.out_dir, environment_fingerprint())
    t0 = time.monotonic()
    manifest = run_experiment(cfg)
    return cfg, manifest, time.monotonic() - t0


def test_prune_stale_caches(tmp_path):
    here = environment_fingerprint()
    elsewhere = {**here, "machine": "elsewhere"}
    manifests = {
        "env_keep": {"environment": here},
        "env_old": {"environment": here},  # an older source tree, this platform
        "env_other": {"environment": elsewhere},
        "env_unknown": {},  # provenance not recorded
    }
    for name, manifest in manifests.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "manifest_0.json").write_text(json.dumps(manifest))
    (tmp_path / "env_bare").mkdir()  # no manifest yet: a run in progress
    (tmp_path / "kept.csv").write_text("")
    prune_stale_caches(tmp_path / "env_keep", here)
    left = sorted(p.name for p in tmp_path.iterdir())
    assert left == ["env_bare", "env_keep", "env_other", "env_unknown", "kept.csv"]


def final_records(manifest):
    out = []
    for entry in manifest["repeats"].values():
        assert entry["status"] == "ok"
        _, rows = read_trace(Path(manifest["manifest_path"]).parent / entry["trace"])
        scored = [r for r in rows if r["phase"] == "iter" and r["p_true"] is not None]
        out.append(scored[-1])
    return out


@pytest.mark.timing
def test_criterion_08_desk_scale_optimization(desk_quadratic_runs):
    cfg, manifest, elapsed = desk_quadratic_runs
    finals = final_records(manifest)
    assert len(finals) == 10
    recs = np.array([[r["x_rec_1"], r["x_rec_2"]] for r in finals])
    med_rec = np.median(recs, axis=0)
    dist = float(np.linalg.norm(med_rec - np.array([0.3, 0.3])))
    assert dist < 0.05

    med_p = float(np.median([r["p_true"] for r in finals]))
    prob = get_problem("quadratic-2d", mode="non_extreme")
    grid_1d = np.linspace(0.0, 1.0, 21)
    grid = np.array([[a, b] for a in grid_1d for b in grid_1d])
    grid_p = min(
        evaluate_true_failure(prob, x, n_u=2**16, seed=99) for x in grid
    )
    assert med_p <= 1.5 * grid_p
    assert elapsed < 15 * 60
    report(
        8,
        f"median rec {med_rec.round(4)} (dist {dist:.4f}), median P {med_p:.3e} "
        f"vs grid optimum {grid_p:.3e} in {elapsed:.0f}s",
    )


def test_criterion_11_determinism(desk_quadratic_runs, tmp_path):
    cfg, manifest, _ = desk_quadratic_runs
    fresh = run_bo(criterion8_config(tmp_path), 0)
    cached = Path(manifest["manifest_path"]).parent / manifest["repeats"]["0"]["trace"]
    assert fresh.read_bytes() == cached.read_bytes()
    report(11, "repeat 0 rerun with identical seeds is byte-identical")


# -- 9: comparative claim on Branin ----------------------------------------


def criterion9_config(kind, out_dir):
    if kind == "kg_mr_oneshot":
        spec = AcquisitionSpec(kind, n_u=64, n_v=32, n_x=512, n_raw=64, n_restarts=6)
    else:
        spec = AcquisitionSpec(kind, n_u=64)
    return ExperimentConfig(
        "branin-2d", spec, n_tot=50, repeats=5, base_seed=0, mode="extreme",
        out_dir=Path(out_dir), rec_stride=44, score_n_u=2**20,
        record_timing=False,
    )


@pytest.fixture(scope="module")
def branin_comparison_runs():
    t0 = time.monotonic()
    manifests = {
        kind: run_experiment(criterion9_config(kind, ACC_DIR / f"branin_{kind}"))
        for kind in ("kg_mr_oneshot", "sobol", "hc", "egra")
    }
    return manifests, time.monotonic() - t0


@pytest.mark.timing
def test_criterion_09_branin_comparative(branin_comparison_runs):
    manifests, elapsed = branin_comparison_runs
    medians = {
        kind: float(np.median([r["p_true"] for r in final_records(m)]))
        for kind, m in manifests.items()
    }
    detail = ", ".join(f"{k} {v:.3e}" for k, v in medians.items())
    osk = medians["kg_mr_oneshot"]
    if not (osk <= 0.1 * medians["sobol"] and osk <= medians["hc"] and osk <= medians["egra"]):
        # Context for the failure: how close each method got to the best
        # achievable failure probability, estimated by a grid scan.
        prob = get_problem("branin-2d")
        grid = [
            np.array([a, b])
            for a in np.linspace(-5, 10, 31)
            for b in np.linspace(0, 15, 31)
        ]
        coarse, x0 = min(
            (evaluate_true_failure(prob, x, n_u=2**16, seed=7), x) for x in grid
        )
        optimum = min(
            evaluate_true_failure(prob, x0 + np.array([da, db]), n_u=2**20, seed=8)
            for da in np.linspace(-0.5, 0.5, 9)
            for db in np.linspace(-0.5, 0.5, 9)
        )
        print(
            f"\nACCEPTANCE 9: FAIL — median final P: {detail}; refined grid-scan "
            f"optimum ~{optimum:.3e}, so 0.1x the Sobol' median "
            f"({0.1 * medians['sobol']:.3e}) is below the best achievable probability"
        )
    assert medians["kg_mr_oneshot"] <= 0.1 * medians["sobol"]
    assert medians["kg_mr_oneshot"] <= medians["hc"]
    assert medians["kg_mr_oneshot"] <= medians["egra"]
    assert elapsed < 2 * 3600
    report(9, f"median final P: {detail} in {elapsed:.0f}s")


# -- 10: sensitivity sweep smoke test --------------------------------------


def test_criterion_10_sensitivity_smoke():
    combos = [(32, 32), (32, 64), (64, 32), (64, 64)]
    for n_u, n_v in combos:
        spec = AcquisitionSpec(
            "kg_mr_oneshot", n_u=n_u, n_v=n_v, n_x=256, n_raw=32, n_restarts=4
        )
        cfg = on_this_platform(ExperimentConfig(
            "branin-2d", spec, n_tot=10, repeats=1, base_seed=0,
            mode="extreme", out_dir=ACC_DIR / f"smoke_{n_u}_{n_v}",
            rec_stride=4, score_n_u=2**16, record_timing=False,
        ))
        prune_stale_caches(cfg.out_dir, environment_fingerprint())
        manifest = run_experiment(cfg)
        path = cfg.out_dir / manifest["repeats"]["0"]["trace"]
        assert trace_is_complete(path)
        _, rows = read_trace(path)
        iters = [r for r in rows if r["phase"] == "iter"]
        assert len(iters) == 4
        for r in iters:
            assert np.isfinite(r["y_1"]) and np.isfinite(r["y_2"])
            assert np.isfinite(r["v"])
        scored = [r for r in iters if r["p_true"] is not None]
        assert scored and all(0.0 <= r["p_true"] <= 1.0 for r in scored)
    report(10, f"{len(combos)} sensitivity configurations completed with valid traces")
