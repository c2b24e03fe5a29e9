"""Experiment harness: config parsing, seed discipline, trace persistence,
the optimization loop and manifest writing."""

import configparser
import hashlib
import importlib.util
import json
import logging
import os
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import relbo.harness as harness
from relbo.acquisition import AcquisitionSpec
from relbo.harness import (
    ExperimentConfig,
    TraceWriter,
    _child_seed,
    environment_fingerprint,
    initial_design,
    load_config,
    read_trace,
    recommend,
    run_bo,
    run_experiment,
    trace_is_complete,
)
from conftest import smooth_feasibility
from relbo.numerics import SobolStream, gaussian_stream_dim
from relbo.problems import Problem, get_problem
from relbo.reliability import (
    PerturbationModel,
    draw_is_sample,
    estimate_pn_batch,
    perturbed_grid,
    smoothing_width,
)
from relbo.surrogate import fit_map

CONFIG_TEXT = """\
[problem]
name = quadratic-2d
mode = extreme

[acquisition]
kind = sobol
n_u = 32

[budget]
n_tot = 20
repeats = 2
base_seed = 7

[recommendation]
stride = 5
n_u_coarse = 256
score_n_u = 4096
record_timing = false
"""


# A valid value other than the dataclass default for every INI key.
INI_NON_DEFAULTS = {
    "problem": {"name": "branin-2d", "mode": "non_extreme"},
    "acquisition": {"kind": "ei", "n_u": 32, "n_v": 16, "n_x": 128, "n_raw": 64,
                    "n_restarts": 5},
    "budget": {"n_tot": 30, "repeats": 3, "base_seed": 4},
    "recommendation": {"restarts": 5, "n_u_coarse": 512, "n_u_fine": 4096, "stride": 2,
                       "score_n_u": 4096, "record_timing": False},
}


def write_config(tmp_path, text=CONFIG_TEXT, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def config_with(tmp_path, section, key, value, **acquisition):
    """CONFIG_TEXT with ``[section] key = value`` (and ``acquisition`` keys) set."""
    parser = configparser.ConfigParser()
    parser.read_string(CONFIG_TEXT)
    parser[section][key] = str(value)
    for k, v in acquisition.items():
        parser["acquisition"][k] = str(v)
    path = tmp_path / "exp.ini"
    with open(path, "w") as fh:
        parser.write(fh)
    return path


def sobol_config(out_dir, **overrides):
    kwargs = dict(
        problem="quadratic-2d",
        acquisition=AcquisitionSpec("sobol", n_u=32),
        n_tot=10,
        repeats=1,
        base_seed=3,
        out_dir=out_dir,
        rec_stride=4,
        rec_n_u_coarse=256,
        score_n_u=4096,
        record_timing=False,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path), out_dir=tmp_path / "runs")
        assert cfg.problem == "quadratic-2d"
        assert cfg.acquisition.kind == "sobol"
        assert cfg.acquisition.n_u == 32
        assert cfg.n_tot == 20 and cfg.repeats == 2 and cfg.base_seed == 7
        assert cfg.rec_stride == 5 and cfg.rec_n_u_coarse == 256
        assert cfg.record_timing is False
        assert cfg.out_dir == tmp_path / "runs"

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, CONFIG_TEXT + "\n[extras]\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        bad = CONFIG_TEXT.replace("n_u = 32", "n_u = 32\nworkers = 4")
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(write_config(tmp_path, bad))

    def test_non_extreme_defaults(self, tmp_path):
        text = CONFIG_TEXT.replace("mode = extreme", "mode = non_extreme")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.mode == "non_extreme"

    @pytest.mark.parametrize("key, value", [("tau", 1.0), ("use_log", "false"),
                                            ("eps_s", 0.01), ("delta_band", 0.1),
                                            ("rho", 0.01), ("kappa", 2.0)])
    def test_regime_and_cascade_keys_rejected(self, tmp_path, key, value):
        # The problem and its mode set these, and ts_mr's smoothing width and
        # egra's band are constants; an INI file cannot override them.
        with pytest.raises(ValueError, match=f"unknown keys in \\[acquisition\\]: {key}"):
            load_config(config_with(tmp_path, "acquisition", key, value))

    def test_ini_keys_are_the_spec_fields(self):
        # An INI file sets exactly what a spec built in Python can.
        assert set(harness._INI["acquisition"]) == {f.name for f in fields(AcquisitionSpec)}

    def test_every_field_set_by_exactly_one_ini_key(self):
        set_by = sorted(name for keys in harness._INI.values() for name in keys.values())
        settable = [f.name for cls in (ExperimentConfig, AcquisitionSpec) for f in fields(cls)
                    if f.name not in ("acquisition", "out_dir")]
        assert set_by == sorted(settable)

    @pytest.mark.parametrize(
        "section, key, value",
        [(s, k, v) for s, keys in INI_NON_DEFAULTS.items() for k, v in keys.items()],
    )
    def test_each_ini_key_loads_like_python(self, tmp_path, section, key, value):
        # One key set to a non-default value: the loaded config has that
        # field, and the hash, of the config built in Python.
        body = {"problem": {"name": "quadratic-2d"}, "acquisition": {"kind": "sobol"},
                "budget": {"n_tot": 20}}
        body.setdefault(section, {})[key] = value
        text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                       for s, kv in body.items())
        loaded = load_config(write_config(tmp_path, text))
        name = harness._INI[section][key]
        spec_kwargs = {"kind": "sobol"}
        kwargs = {"problem": "quadratic-2d", "n_tot": 20}
        (spec_kwargs if section == "acquisition" else kwargs)[name] = value
        built = ExperimentConfig(acquisition=AcquisitionSpec(**spec_kwargs), **kwargs)
        default = ExperimentConfig("quadratic-2d", AcquisitionSpec("sobol"), n_tot=20)
        target = loaded.acquisition if section == "acquisition" else loaded
        assert getattr(target, name) == value
        assert loaded.hash() == built.hash() != default.hash()

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = sobol_config(tmp_path)
        b = sobol_config(tmp_path)
        c = sobol_config(tmp_path, n_tot=11)
        assert a.hash() == b.hash()
        assert a.hash() != c.hash()
        assert len(a.hash()) == 16

    @pytest.mark.parametrize("kind", ["hc", "kg_mr_oneshot"])
    def test_ini_and_python_routes_hash_alike(self, tmp_path, kind):
        # README's example experiment, once as an INI file and once built in
        # Python: one experiment, one hash, so both write the same traces.
        text = (
            f"[problem]\nname = branin-2d\nmode = extreme\n\n[acquisition]\nkind = {kind}\n"
            "n_u = 64\nn_v = 32\n\n[budget]\nn_tot = 50\nrepeats = 5\nbase_seed = 0\n\n"
            "[recommendation]\nstride = 1\n"
        )
        spec = AcquisitionSpec(kind, n_u=64, n_v=32)
        built = ExperimentConfig("branin-2d", spec, n_tot=50, repeats=5)
        assert load_config(write_config(tmp_path, text)).hash() == built.hash()

    def test_budget_below_initial_design_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            sobol_config(tmp_path, n_tot=3)  # quadratic-2d has n_0 = 6

    def test_budget_without_a_bo_iteration_rejected(self, tmp_path):
        # n_tot = n_0 would write a trace with no checkpoint, on which
        # `relbo report` fails.
        with pytest.raises(ValueError, match="n_tot 6 must exceed the initial design's n_0 6"):
            load_config(config_with(tmp_path, "budget", "n_tot", 6))
        load_config(config_with(tmp_path, "budget", "n_tot", 7))

    # Each rule below is checked when the config is loaded, not at the first
    # acquisition or recommendation that would trip over it.

    @pytest.mark.parametrize(
        "section, key",
        [("acquisition", "n_u"), ("recommendation", "n_u_coarse"),
         ("recommendation", "n_u_fine"), ("recommendation", "score_n_u")],
    )
    def test_sample_size_not_power_of_two_rejected(self, tmp_path, section, key):
        with pytest.raises(ValueError, match="power of two"):
            load_config(config_with(tmp_path, section, key, 48))

    def test_restarts_beyond_raw_candidates_rejected(self, tmp_path):
        load_config(config_with(tmp_path, "acquisition", "n_raw", 16, n_restarts=16))
        with pytest.raises(ValueError, match="n_restarts 17 exceeds the 16"):
            load_config(config_with(tmp_path, "acquisition", "n_raw", 16, n_restarts=17))

    def test_ts_mr_restarts_beyond_perturbation_candidates_rejected(self, tmp_path):
        # The stage 1 scan has 512 candidates, stage 2 only 129.
        load_config(config_with(tmp_path, "acquisition", "kind", "ts_mr", n_raw=512,
                                n_restarts=129))
        with pytest.raises(ValueError, match="n_restarts"):
            load_config(config_with(tmp_path, "acquisition", "kind", "ts_mr", n_raw=512,
                                    n_restarts=130))

    def test_rec_restarts_beyond_candidate_scan_rejected(self, tmp_path):
        load_config(config_with(tmp_path, "recommendation", "restarts", 1024))
        with pytest.raises(ValueError, match="rec_restarts 1025 exceeds the 1024"):
            load_config(config_with(tmp_path, "recommendation", "restarts", 1025))

    @pytest.mark.parametrize(
        "section, key",
        [("acquisition", "n_u"), ("acquisition", "n_v"), ("acquisition", "n_x"),
         ("acquisition", "n_raw"), ("acquisition", "n_restarts"),
         ("recommendation", "restarts"), ("recommendation", "n_u_coarse"),
         ("recommendation", "n_u_fine"), ("recommendation", "score_n_u"),
         ("recommendation", "stride"), ("budget", "repeats")],
    )
    def test_count_below_one_rejected(self, tmp_path, section, key):
        with pytest.raises(ValueError):
            load_config(config_with(tmp_path, section, key, 0))

    def test_negative_base_seed_rejected(self, tmp_path):
        # It would otherwise load and fail every repeat in SeedSequence.
        with pytest.raises(ValueError, match="base_seed"):
            load_config(config_with(tmp_path, "budget", "base_seed", -1))

    @pytest.mark.parametrize("key, value", [("rho", 0), ("kappa", -1)])
    def test_bad_smoothing_and_cascade_knobs_rejected(self, tmp_path, key, value):
        # rho = 0 once loaded and only divided by zero in Phi((path - c) / rho)
        # at the first acquisition; neither knob is an INI key any more.
        with pytest.raises(ValueError, match=key):
            load_config(config_with(tmp_path, "acquisition", key, value))

    @pytest.mark.parametrize("whole_section", [False, True])
    @pytest.mark.parametrize(
        "section, key", [("problem", "name"), ("acquisition", "kind"), ("budget", "n_tot")]
    )
    def test_missing_required_key_named(self, tmp_path, section, key, whole_section):
        # Not a bare KeyError from configparser.
        parser = configparser.ConfigParser()
        parser.read_string(CONFIG_TEXT)
        if whole_section:
            parser.remove_section(section)
        else:
            parser.remove_option(section, key)
        with open(tmp_path / "exp.ini", "w") as fh:
            parser.write(fh)
        with pytest.raises(ValueError, match=f"no \\[{section}\\] {key}"):
            load_config(tmp_path / "exp.ini")


class TestSeeds:
    def test_child_seed_deterministic_and_distinct(self):
        assert _child_seed(3, "fit", 7) == _child_seed(3, "fit", 7)
        assert _child_seed(3, "fit", 7) != _child_seed(3, "fit", 8)
        assert _child_seed(3, "fit", 7) != _child_seed(3, "rec", 7)
        assert _child_seed(4, "fit", 7) != _child_seed(3, "fit", 7)


class TestInitialDesign:
    def test_size_containment_determinism(self):
        prob = get_problem("branin-2d")
        pts, vals = initial_design(prob, 5)
        assert pts.shape == (prob.n_0, 2) and vals.shape == (prob.n_0,)
        assert np.all(pts >= prob.bounds[:, 0]) and np.all(pts <= prob.bounds[:, 1])
        pts2, vals2 = initial_design(prob, 5)
        np.testing.assert_array_equal(pts, pts2)
        np.testing.assert_array_equal(vals, vals2)
        pts3, _ = initial_design(prob, 6)
        assert not np.array_equal(pts, pts3)


@pytest.fixture(scope="class")
def far_threshold():
    """A problem 10^4 wide whose threshold c = 1e300 no surrogate reaches,
    and a fit to 12 of its points."""
    bounds = np.array([[0.0, 1e4], [0.0, 1e4]])
    prob = Problem(
        "far-threshold", 2, bounds, 1e300, PerturbationModel(np.full(2, 0.01)), n_0=6,
        eps_s=0.01 * np.sqrt(2e8), delta_band=0.01, mode="extreme",
        _fn=lambda Y: np.sin(Y[:, 0] / 2e3) + Y[:, 1] / 1e4,
    )
    Y = bounds[:, 0] + SobolStream(2, scramble_seed=3).take(12) * 1e4
    return prob, fit_map(Y, prob.evaluate(Y), bounds, seed=0)


class TestRecommend:
    def test_quadratic_recommendation_near_optimum(self, quadratic_state, quadratic_problem):
        x_rec, p_hat = recommend(quadratic_state, quadratic_problem, seed=0)
        assert np.linalg.norm(x_rec - np.array([0.3, 0.3])) < 0.05
        assert 0.0 <= p_hat <= 1.0

    def test_estimate_above_one_is_reported_as_one(self, tmp_path, monkeypatch):
        # perfbench's ts-hartmann seed 401, operation 6: on the OpenBLAS
        # build of the golden digests, recommend's fine-stage estimate
        # mean(w * J) there came to 1.0018, since the importance weights'
        # sample mean is not 1. The reported p_hat is a probability.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            if var in os.environ:  # perfbench/run.py sets these on import
                monkeypatch.setenv(var, os.environ[var])
            else:
                monkeypatch.delenv(var, raising=False)
        run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        config, path = bench.write_inputs("ts-hartmann", 401, 6, tmp_path)
        _, rows = read_trace(run_bo(config, 0, trace_path=path))
        p_hat = [r["p_hat"] for r in rows if r["p_hat"] is not None]
        assert p_hat and all(0.0 < p <= 1.0 for p in p_hat)

    def test_containment(self, branin_state, branin_problem):
        x_rec, _ = recommend(branin_state, branin_problem, seed=1, n_u_coarse=256)
        assert np.all(x_rec >= branin_problem.bounds[:, 0])
        assert np.all(x_rec <= branin_problem.bounds[:, 1])

    def test_unreachable_threshold_falls_back_to_the_first_candidate(
        self, far_threshold, caplog
    ):
        # In a box 10^4 wide no candidate's perturbations reach the smoothing
        # band (delta = 0.1), so iota = 1 at every perturbed point, and with c
        # far above the surrogate log Phi(h) = -inf there: every candidate's
        # log P is -inf. Each then keeps the same in-box mass, so the first
        # candidate is returned.
        prob, state = far_threshold
        with caplog.at_level(logging.WARNING, logger="relbo.harness"):
            x_rec, p_hat = recommend(state, prob, seed=2)
        assert p_hat == 0.0
        assert any("zero estimated probability" in r.message for r in caplog.records)
        first = SobolStream(2, scramble_seed=_child_seed(2, 2)).take(1)[0] * 1e4
        np.testing.assert_array_equal(x_rec, first)

    def test_zero_estimate_exactly_where_iota_is_one_at_every_perturbed_point(
        self, far_threshold
    ):
        # The premise of the fallback above: log P = -inf needs iota = 1 at
        # every perturbed point, since J >= 1 - iota > 0 wherever iota < 1.
        # Candidates within delta of an edge, just beyond it (some perturbed
        # points in the band) and in the interior.
        prob, state = far_threshold
        delta = smoothing_width(prob.bounds)
        stream = SobolStream(gaussian_stream_dim(2), scramble_seed=5)
        sample = draw_is_sample(prob.perturb, prob.default_tau, 1024, stream)
        edge = [0.0, 0.5 * delta, delta, delta + 0.02, 1e4 - 0.5 * delta]
        inner = [delta + 0.5, 2.5e3, 5e3, 1e4 - delta - 0.5]
        xs = np.array([[a, 5e3] for a in edge + inner] + [[5e3, 0.5 * delta]])
        log_p = estimate_pn_batch(state, xs, sample, prob.bounds, delta, prob.c)
        iota = smooth_feasibility(perturbed_grid(xs, sample), prob.bounds, delta)
        all_one = np.all(iota.reshape(len(xs), -1) == 1.0, axis=1)
        np.testing.assert_array_equal(np.isneginf(log_p), all_one)
        np.testing.assert_array_equal(all_one, [False] * len(edge) + [True] * len(inner) + [False])
        assert np.all(np.isfinite(log_p[~all_one]))


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        w = TraceWriter(path, 2)
        w.start()
        w.append(0, 1, "init", y=[0.125, 0.5], v=1.5)
        w.append(
            0, 7, "iter", y=[0.25, 0.75], v=2.0, acq_value=0.1, rule="LS",
            x_rec=[0.3, 0.3], p_hat=1e-3, p_true=2e-3, wall_ms=12.0,
        )
        w.finish(0)
        header, rows = read_trace(path)
        assert header[:3] == ["repeat", "n", "phase"]
        assert len(rows) == 3
        assert rows[0]["phase"] == "init" and rows[0]["y_1"] == 0.125
        assert rows[1]["rule"] == "LS" and rows[1]["p_hat"] == 1e-3
        assert rows[1]["x_rec_2"] == 0.3
        assert rows[2]["phase"] == "done" and rows[2]["n"] == -1
        assert rows[0]["p_true"] is None

    def test_completeness_marker(self, tmp_path):
        path = tmp_path / "t.csv"
        w = TraceWriter(path, 1)
        assert not trace_is_complete(path)
        w.start()
        w.append(0, 1, "init", y=[0.5], v=0.0)
        assert not trace_is_complete(path)
        w.finish(0)
        assert trace_is_complete(path)

    def test_float_format_preserves_doubles(self, tmp_path):
        path = tmp_path / "t.csv"
        w = TraceWriter(path, 1)
        w.start()
        val = 0.1 + 0.2  # not exactly representable in short decimal
        w.append(0, 1, "init", y=[val], v=val)
        _, rows = read_trace(path)
        assert rows[0]["v"] == val


class TestRunBo:
    def test_sobol_run_shape_and_scores(self, tmp_path):
        cfg = sobol_config(tmp_path)
        path = run_bo(cfg, 0)
        assert trace_is_complete(path)
        _, rows = read_trace(path)
        init = [r for r in rows if r["phase"] == "init"]
        iters = [r for r in rows if r["phase"] == "iter"]
        assert len(init) == 6 and len(iters) == 4  # n_0 = 6, n_tot = 10
        # Checkpoints at stride 4 and at the final iteration.
        scored = [r for r in iters if r["p_true"] is not None]
        assert [r["n"] for r in scored] == [10]
        for r in scored:
            assert 0.0 <= r["p_true"] <= 1.0
            assert 0.0 <= r["p_hat"] <= 1.0
        assert all(r["wall_ms"] == 0.0 for r in iters)

    def test_rerun_returns_complete_trace_unchanged(self, tmp_path):
        cfg = sobol_config(tmp_path)
        path = run_bo(cfg, 0)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        path2 = run_bo(cfg, 0)
        assert path2 == path
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_byte_identical_across_fresh_runs(self, tmp_path):
        cfg_a = sobol_config(tmp_path / "a")
        cfg_b = sobol_config(tmp_path / "b")
        pa = run_bo(cfg_a, 0)
        pb = run_bo(cfg_b, 0)
        assert pa.read_bytes() == pb.read_bytes()

    def test_resume_after_truncation_matches_full_run(self, tmp_path):
        # The sobol run fits nothing that steers it; the ei run picks every
        # point from a fit, so a fit that depended on earlier fits (a warm
        # start, say) would resume to other bytes.
        ei = dict(
            acquisition=AcquisitionSpec("ei", n_u=32, n_raw=64, n_restarts=4),
            n_tot=14,
            rec_stride=1,
        )
        for kind, overrides, cuts in (("sobol", {}, (2,)), ("ei", ei, (4, 7))):
            full = run_bo(sobol_config(tmp_path / f"{kind}_full", **overrides), 0)
            full_lines = full.read_text().splitlines(keepends=True)
            header = full_lines[0].split(",")
            for n_kept in cuts:
                # Keep the header, the initial design and the first n_kept
                # iterations, then optionally part of the next, torn inside a
                # y or the v cell.
                kept = "".join(full_lines[: 1 + 6 + n_kept])
                cells = full_lines[1 + 6 + n_kept].split(",")
                torn = {"": ""}
                for col in ("y_1", "v"):
                    j = header.index(col)
                    torn[col] = ",".join(cells[:j] + [cells[j][: len(cells[j]) // 2]])
                for col, tail in torn.items():
                    cfg_res = sobol_config(tmp_path / f"{kind}_{n_kept}_{col}", **overrides)
                    partial = cfg_res.out_dir / f"trace_{cfg_res.hash()}_r0.csv"
                    partial.parent.mkdir(parents=True)
                    partial.write_text(kept + tail)
                    resumed = run_bo(cfg_res, 0)
                    assert resumed.read_bytes() == full.read_bytes(), (kind, n_kept, col)

    def test_repeats_differ(self, tmp_path):
        cfg = sobol_config(tmp_path)
        p0 = run_bo(cfg, 0)
        p1 = run_bo(cfg, 1)
        _, r0 = read_trace(p0)
        _, r1 = read_trace(p1)
        y0 = [r["y_1"] for r in r0 if r["phase"] == "init"]
        y1 = [r["y_1"] for r in r1 if r["phase"] == "init"]
        assert y0 != y1


class TestRunExperiment:
    def test_blas_core_unknown_without_library_or_symbol(self, tmp_path):
        # A package with no bundled OpenBLAS, or a library without the symbol.
        bare = SimpleNamespace(__name__="bare", __file__=str(tmp_path / "bare" / "__init__.py"))
        assert harness._blas_core(bare, "scipy_openblas_get_corename") == "unknown"
        assert harness._blas_core(np, "no_such_symbol") == "unknown"

    def test_manifest_contents(self, tmp_path):
        cfg = sobol_config(tmp_path, repeats=2)
        manifest = run_experiment(cfg)
        assert manifest["config_hash"] == cfg.hash()
        assert manifest["seeds"] == [3, 4]
        assert manifest["failed_repeats"] == []
        for r in ("0", "1"):
            entry = manifest["repeats"][r]
            assert entry["status"] == "ok"
            data = (tmp_path / entry["trace"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert (tmp_path / f"manifest_{cfg.hash()}.json").exists()

        env = manifest["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "blas", "blas_core", "scipy_blas", "scipy_blas_core",
            "machine",
        }
        assert env == environment_fingerprint()
        on_disk = json.loads(Path(manifest["manifest_path"]).read_text())
        assert on_disk["environment"] == env
        assert "environment" not in cfg.to_dict()
        # A run that writes no manifest at all names and fills its traces
        # identically: the block never reaches the deterministic trace.
        bare = sobol_config(tmp_path / "bare", repeats=2)
        assert bare.hash() == manifest["config_hash"]
        for r in (0, 1):
            entry = manifest["repeats"][str(r)]
            path = run_bo(bare, r)
            assert path.name == Path(entry["trace"]).name
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]

        # Reused traces keep the platform the previous manifest names; traces
        # that do not share one known platform get no block.
        assert "environment" not in run_experiment(bare)
        other = dict(env, python="0.0.0")
        Path(manifest["manifest_path"]).write_text(json.dumps({**on_disk, "environment": other}))
        assert run_experiment(cfg)["environment"] == other
        (tmp_path / manifest["repeats"]["1"]["trace"]).unlink()
        assert "environment" not in run_experiment(cfg)
        rerun = run_experiment(cfg)
        assert "environment" not in rerun
        assert rerun["repeats"] == manifest["repeats"]

    def test_failed_repeat_recorded(self, tmp_path, monkeypatch):
        cfg = sobol_config(tmp_path, repeats=2)
        real = harness.run_bo

        def flaky(config, repeat_index, trace_path=None):
            if repeat_index == 1:
                raise RuntimeError("synthetic failure")
            return real(config, repeat_index, trace_path)

        monkeypatch.setattr(harness, "run_bo", flaky)
        manifest = run_experiment(cfg)
        assert manifest["failed_repeats"] == [1]
        assert manifest["repeats"]["0"]["status"] == "ok"
        assert "synthetic failure" in manifest["repeats"]["1"]["status"]
        assert manifest["repeats"]["1"]["trace"] is None
