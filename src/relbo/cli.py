"""Command-line interface: run experiments from config files, re-score
existing traces, and aggregate traces into reports."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .harness import load_config, read_trace, run_experiment
from .numerics import check_sizes
from .problems import get_problem
from .reliability import evaluate_true_failure
from .report import aggregate_traces, emit_plot, write_summary


def _cmd_run(args):
    config = load_config(args.config, out_dir=args.out)
    overrides = {"repeats": args.repeats, "base_seed": args.seed}  # checked by __post_init__
    config = dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            manifest = run_experiment(config, executor=pool)
    else:
        manifest = run_experiment(config)
    print(json.dumps({k: v for k, v in manifest.items() if k != "config"}, indent=2))
    return 1 if manifest["failed_repeats"] else 0


def _cmd_score(args):
    problem = get_problem(args.problem, args.mode)
    header, rows = read_trace(args.trace)
    try:  # checked before any row is scored
        check_sizes({"n_u": args.n_u}, qmc=("n_u",))
        for prefix in ("y_", "x_rec_"):
            width = sum(key.startswith(prefix) for key in header)
            if width != problem.dim:
                raise ValueError(f"{args.trace} has {width} {prefix}* columns, but "
                                 f"{problem.name} has dimension {problem.dim}")
    except ValueError as err:
        print(f"relbo score: {err}", file=sys.stderr)
        return 1
    print("n,p_true")
    for row in rows:
        if row["phase"] != "iter" or row.get("x_rec_1") is None:
            continue
        x = np.array([row[f"x_rec_{j + 1}"] for j in range(problem.dim)])
        p = evaluate_true_failure(problem, x, n_u=args.n_u)
        print(f"{row['n']},{p:.17g}")
    return 0


def _cmd_report(args):
    in_dir = Path(args.in_dir)
    manifests = sorted(in_dir.glob("manifest_*.json"))
    if not manifests:
        print(f"no manifests found in {in_dir}", file=sys.stderr)
        return 1
    groups = {}
    for mpath in manifests:
        manifest = json.loads(mpath.read_text())
        prob, mode = manifest["config"]["problem"], manifest["config"]["mode"]
        alg = manifest["config"]["acquisition"]["kind"]
        if args.problems and prob not in args.problems:
            continue
        if args.algorithms and alg not in args.algorithms:
            continue
        for rec in manifest["repeats"].values():
            if rec["status"] == "ok" and rec["trace"]:  # relative to the manifest
                groups.setdefault((prob, mode, alg), []).append(mpath.parent / rec["trace"])
    if not groups:
        print("no completed traces matched the filters", file=sys.stderr)
        return 1
    curves = [  # a non-extreme curve gets a panel and summary row of its own
        aggregate_traces(paths, problem=prob if mode == "extreme" else f"{prob} ({mode})",
                         algorithm=alg)
        for (prob, mode, alg), paths in sorted(groups.items())
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    svg, csv = emit_plot(curves, out / "fig_suite.svg", out / "curves.csv")
    summary = write_summary(curves, out / "summary.md")
    print(f"wrote {svg}\n      {csv}\n      {summary}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = argparse.ArgumentParser(
        prog="relbo",
        description="Bayesian optimization benchmark for design reliability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--repeats", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--parallel", type=int, default=1)
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="re-score a trace's recommendations")
    p_score.add_argument("--trace", required=True)
    p_score.add_argument("--problem", required=True)
    p_score.add_argument("--mode", default="extreme")
    p_score.add_argument("--n-u", type=int, default=2**20)
    p_score.set_defaults(func=_cmd_score)

    p_rep = sub.add_parser("report", help="aggregate traces into plots")
    p_rep.add_argument("--in", dest="in_dir", required=True)
    p_rep.add_argument("--problems", nargs="*", default=None)
    p_rep.add_argument("--algorithms", nargs="*", default=None)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
