#!/usr/bin/env python3
"""BO-iteration benchmark for relbo: one reliability-BO iteration
(fit -> acquire -> evaluate -> refit -> recommend -> score) per operation.

Run from the repository root::

    python3 perfbench/run.py --workload kg-branin --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Each operation resumes a seeded observation prefix through
``relbo.harness.run_bo``, the path ``relbo run`` takes, in a closed loop with
one caller. The last line of standard output is one JSON object: end-to-end
metrics with ``--trace 0``, per-layer metrics (from ``spans.py``) with
``--trace 1``. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

# Pin BLAS threads before NumPy loads: one process, at most nproc threads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state"  # traces, digests and span files; git-ignored

# kg-branin runs the acceptance-9 settings. kgd-branin and ts-hartmann cut the
# seed-dependent L-BFGS work and n_u_fine so that one run holds several
# iterations (README.md, "Why the sizes differ").
_REC = {"restarts": 10, "n_u_coarse": 1024, "n_u_fine": 16384, "stride": 1,
        "score_n_u": 2**20}
WORKLOADS = {
    "kg-branin": {
        "problem": "branin-2d",
        "n_prefix": 30,
        "acquisition": {"kind": "kg_mr_oneshot", "n_u": 64, "n_v": 32, "n_x": 512,
                        "n_raw": 64, "n_restarts": 6},
        "recommendation": _REC,
    },
    "kgd-branin": {
        "problem": "branin-2d",
        "n_prefix": 30,
        "acquisition": {"kind": "kg_mr_discrete", "n_u": 64, "n_v": 32, "n_x": 256,
                        "n_raw": 64, "n_restarts": 1},
        "recommendation": _REC,
    },
    "ts-hartmann": {
        "problem": "hartmann-6d",
        "n_prefix": 40,
        "acquisition": {"kind": "ts_mr", "n_u": 64, "n_raw": 1024, "n_restarts": 1},
        "recommendation": {**_REC, "restarts": 4},
    },
}
SETUP_REPEATS = 5
KG_FLOOR = -1e-6
END_TO_END = {"setup_s": "s", "iter_s": "s", "rss_peak_mb": "MB"}
QUALITY = ("p_true_log10", "p_hat_err_log10")  # traced run only: no bound


# -- inputs ----------------------------------------------------------------


def _seeds(workload, seed, op):
    """Design, fill and BO base seeds of operation ``op``, all derived from
    the workload seed."""
    import numpy as np

    ss = np.random.SeedSequence([seed, zlib.crc32(workload.encode()), op])
    return [int(s) for s in ss.generate_state(3)]


def write_inputs(workload, seed, op, out_dir):
    """Write the config INI and the observation-prefix trace operation ``op``
    resumes from. Returns (config, prefix trace path)."""
    from relbo.harness import TraceWriter, initial_design, load_config
    from relbo.numerics import SobolStream
    from relbo.problems import get_problem

    spec = WORKLOADS[workload]
    design_seed, fill_seed, base_seed = _seeds(workload, seed, op)
    problem = get_problem(spec["problem"], "extreme")
    out_dir.mkdir(parents=True, exist_ok=True)
    ini = out_dir / "config.ini"
    sections = {
        "problem": {"name": spec["problem"], "mode": "extreme"},
        "acquisition": spec["acquisition"],
        "budget": {"n_tot": spec["n_prefix"] + 1, "repeats": 1, "base_seed": base_seed},
        "recommendation": spec["recommendation"],
    }
    ini.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
            for name, body in sections.items()
        )
    )
    config = load_config(ini, out_dir=out_dir)

    Y, v = initial_design(problem, design_seed)
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    fill = lo + SobolStream(problem.dim, scramble_seed=fill_seed).take(
        spec["n_prefix"] - problem.n_0
    ) * (hi - lo)
    v_fill = problem.evaluate(fill)
    writer = TraceWriter(out_dir / "trace.csv", problem.dim)
    writer.start()
    for i in range(problem.n_0):
        writer.append(0, i + 1, "init", y=Y[i], v=v[i])
    for i, (y, vy) in enumerate(zip(fill, v_fill)):
        writer.append(0, problem.n_0 + i + 1, "iter", y=y, v=vy, rule="sobol")
    return config, writer.path


# -- output checks ---------------------------------------------------------


def trace_digest(header, rows):
    """sha256 of every trace cell except wall_ms."""
    keep = [k for k in header if k != "wall_ms"]
    h = hashlib.sha256()
    for row in rows:
        h.update(repr([row[k] for k in keep]).encode())
    return h.hexdigest()


def check_trace(workload, problem, path, digest_file):
    """The checks one operation must pass; returns (failures, facts)."""
    from relbo.harness import read_trace

    header, rows = read_trace(path)
    fails = []
    if not rows or rows[-1]["phase"] != "done":
        return ["trace does not end with done"], {}
    d = problem.dim
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    for r in rows[:-1]:
        y = [r[f"y_{j + 1}"] for j in range(d)]
        if any(c is None for c in y) or any(
            not lo[j] <= y[j] <= hi[j] for j in range(d)
        ):
            fails.append(f"y outside the box at n={r['n']}")
    last = rows[-2]
    acq = last["acq_value"]
    if acq is None or acq != acq or abs(acq) == float("inf"):
        fails.append(f"acquisition value not finite: {acq}")
    elif WORKLOADS[workload]["acquisition"]["kind"].startswith("kg_") and acq < KG_FLOOR:
        fails.append(f"KG value {acq} < {KG_FLOOR}")
    p_hat, p_true = last["p_hat"], last["p_true"]
    for label, p in (("p_hat", p_hat), ("p_true", p_true)):
        if p is None or not 0.0 < p <= 1.0:
            fails.append(f"{label}={p} outside (0, 1]")
    digest = trace_digest(header, rows)
    if digest_file.exists():
        if digest_file.read_text() != digest:
            fails.append(f"trace digest {digest[:12]} differs from {digest_file.name}")
    else:
        digest_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = digest_file.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest)
        os.replace(tmp, digest_file)
    return fails, {"p_hat": p_hat, "p_true": p_true, "digest": digest}


# -- environment -----------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "relbo").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the enclosing git checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def fingerprint():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "git_commit": git_commit(),
        "src_sha256": source_digest()[:16],
    }


# -- tracing ---------------------------------------------------------------


def install_spans(recorder):
    """Wrap each relbo layer's public entry points (see README.md)."""
    import numpy as np

    def _points(args, kwargs):
        """Rows of the points argument (the first after self or state)."""
        pts = args[1] if len(args) > 1 else next(iter(kwargs.values()))
        shape = np.shape(pts)
        return shape[0] if len(shape) > 1 else 1

    def kernel(prefix, with_grad):
        def count(args, kwargs, result):
            state, m = args[0], _points(args, kwargs)
            out = {f"{prefix}.points": m, "surrogate.kernel_evals": m * state.n}
            if with_grad:
                mb = m * state.n * state.dim * 8 / 1e6
                out["surrogate.grad_tensor_mb.max"] = mb
            return out

        return count

    def qn(args, kwargs, result):
        diags = result[2]
        return {
            "optimizers.multistart_qn.starts": len(diags),
            "optimizers.multistart_qn.nfev": sum(d.n_evals for d in diags),
            "optimizers.multistart_qn.nan_starts": sum(
                d.status == "nan-gradient" for d in diags
            ),
        }

    def calls(name):
        return lambda args, kwargs, result: {f"{name}.calls": 1}

    def points(name):
        return lambda a, k, r: {f"{name}.points": _points(a, k)}

    w, m = recorder.wrap_function, recorder.wrap_method
    for fn in ("kg_oneshot_next", "kg_discrete_next", "ts_mr_next"):
        w("relbo.acquisition", fn, "acquisition.next")
    w("relbo.acquisition", "oneshot_objective", "acquisition.oneshot_objective",
      calls("acquisition.oneshot_objective"))
    w("relbo.optimizers", "multistart_qn", "optimizers.multistart_qn", qn)
    w("relbo.optimizers", "boltzmann_restarts", "optimizers.boltzmann_restarts")
    m("relbo.surrogate", "SurrogateState", "posterior", "surrogate.posterior",
      kernel("surrogate.posterior", False))
    m("relbo.surrogate", "SurrogateState", "posterior_with_grad",
      "surrogate.posterior_with_grad", kernel("surrogate.posterior_with_grad", True))
    m("relbo.surrogate", "SurrogateState", "cross_cov_with_grad",
      "surrogate.cross_cov_with_grad", kernel("surrogate.cross_cov_with_grad", True))
    for meth in ("evaluate", "evaluate_with_grad"):
        m("relbo.surrogate", "RFFPath", meth, "surrogate.rff", points("surrogate.rff"))
    w("relbo.surrogate", "fit_map", "surrogate.fit_map",
      lambda a, k, r: {"surrogate.fit_map.calls": 1,
                       "surrogate.fit_map.jitter_retries": int(r.jitter > 0)})
    w("relbo.reliability", "estimate_ptilde", "reliability.estimate_ptilde")
    w("relbo.reliability", "estimate_pn", "reliability.estimate_pn",
      calls("reliability.estimate_pn"))
    w("relbo.reliability", "estimate_pn_batch", "reliability.estimate_pn_batch",
      points("reliability.estimate_pn_batch"))
    w("relbo.reliability", "draw_is_sample", "reliability.draw_is_sample")
    w("relbo.reliability", "evaluate_true_failure", "reliability.evaluate_true_failure")
    for meth in ("evaluate", "evaluate_unchecked"):
        m("relbo.problems", "Problem", meth, "problems.evaluate",
          points("problems.evaluate"))
    w("relbo.numerics", "std_normal_log_cdf", "numerics.log_ndtr",
      lambda a, k, r: {"numerics.log_ndtr.elems": int(np.size(r))})
    m("relbo.numerics", "SobolStream", "take", "numerics.sobol",
      lambda a, k, r: {"numerics.sobol.points": len(r)})
    w("relbo.harness", "recommend", "harness.recommend")
    w("relbo.harness", "read_trace", "harness.trace_io")
    for meth in ("start", "append"):
        m("relbo.harness", "TraceWriter", meth, "harness.trace_io")
    w("relbo.harness", "run_bo", "harness.run_bo")


def per_layer(recorder, names, ops, extra):
    """The listed per-layer metrics: span metrics per iteration (run totals
    divided by ``ops``; ``.max`` metrics as recorded), then ``extra``. A
    metric whose layer was not found is dropped with a warning; one whose
    layer did not run on this workload is 0."""
    got = {k: v if k.endswith(".max") else v / ops for k, v in recorder.summary().items()}
    out = {}
    for name, unit in names.items():
        if name in extra:
            out[name] = {"value": extra[name], "unit": unit}
        elif any(name.startswith(miss + ".") for miss in recorder.missing):
            print(f"# warning: per-layer metric {name} dropped", file=sys.stderr)
        elif name not in QUALITY:
            out[name] = {"value": got.get(name, 0.0), "unit": unit}
    return out


# -- one workload ----------------------------------------------------------


def run_workload(workload, seed, seconds, trace):
    t_import = time.perf_counter()
    if not (SRC / "relbo" / "__init__.py").is_file():
        raise SystemExit(f"relbo sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import relbo
    import relbo.harness as harness

    if Path(relbo.__file__).resolve().parent != SRC / "relbo":
        raise SystemExit(f"imported relbo from {relbo.__file__}, not {SRC}")
    import_s = time.perf_counter() - t_import

    run_dir = STATE / "runs" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    prep = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        write_inputs(workload, seed, 0, run_dir / f"setup{k}")
        prep.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prep)
    problem = relbo.get_problem(WORKLOADS[workload]["problem"], "extreme")

    recorder = None
    if trace:
        sys.path.insert(0, str(BENCH))
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_spans(recorder)
        recorder.enabled = False  # only run_bo calls below are recorded

    key = hashlib.sha256(
        json.dumps([source_digest(), WORKLOADS[workload], seed]).encode()
    ).hexdigest()[:24]
    times, failures, facts = [], [], []
    t_measure = time.perf_counter()
    try:
        while True:
            op = len(times)
            config, path = write_inputs(workload, seed, op, run_dir / f"op{op}")
            if recorder is not None:
                recorder.enabled = True
            t0 = time.perf_counter()
            try:
                harness.run_bo(config, 0, trace_path=path)
            except Exception as err:  # noqa: BLE001 - an operation that raises fails
                times.append(time.perf_counter() - t0)
                failures.append([f"run_bo raised {type(err).__name__}: {err}"])
                break
            finally:
                if recorder is not None:
                    recorder.enabled = False
            times.append(time.perf_counter() - t0)
            digest_file = STATE / "digests" / f"{workload}-{key}-op{op}"
            fails, got = check_trace(workload, problem, path, digest_file)
            failures.append(fails)
            facts.append(got)
            if time.perf_counter() - t_measure >= seconds:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
            recorder.write(STATE / f"spans-{workload}-s{seed}.json")
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(bool(f) for f in failures)
    iter_s = statistics.median(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scored = [f for f in facts if f.get("p_hat") and f.get("p_true")]
    quality = {}
    if scored:
        quality = {
            "p_true_log10": statistics.median(
                math.log10(f["p_true"]) for f in scored
            ),
            "p_hat_err_log10": statistics.median(
                abs(math.log10(f["p_hat"] / f["p_true"])) for f in scored
            ),
        }

    print(f"# workload {workload}  seed {seed}  trace {trace}  "
          f"closed loop, 1 caller, {NPROC} BLAS threads")
    print("# env " + json.dumps(fingerprint(), sort_keys=True))
    for i, fails in enumerate(failures):
        digest = facts[i]["digest"][:16] if i < len(facts) and facts[i] else "-"
        print(f"# op {i}: {times[i]:.3f} s  digest {digest}  "
              + ("ok" if not fails else "; ".join(fails)))
    summary = {
        "setup_s": (setup_s, "s"),
        "iter_s": (iter_s, f"s (median of n={len(times)})"),
        "rss_peak_mb": (rss_mb, "MB"),
        **{k: (v, "log10") for k, v in quality.items()},
        "ops": (len(times), "count"),
        "ops_failed": (failed, "count"),
    }
    for name, (value, unit) in summary.items():
        print(f"# {name:16s} {value:.6g} {unit}")

    if trace:
        extra = {"bench.iter_s_traced": iter_s, **quality}
        metrics = per_layer(recorder, per_layer_names(), len(times), extra)
        print("# tracing overhead = bench.iter_s_traced minus iter_s of an "
              "untraced run of the same seed")
    else:
        values = {"setup_s": setup_s, "iter_s": iter_s, "rss_peak_mb": rss_mb}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def per_layer_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(seed, seconds, trace):
    """Every workload in its own process, then one table."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        cells = "  ".join(
            f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()
        )
        print(f"# {name:12s} ops={res['attempted']} ops_failed={res['failed']}  {cells}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
