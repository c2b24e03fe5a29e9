"""End-to-end command-line workflow: run, report, score."""

import json

import pytest

from relbo import cli
from relbo.cli import main
from relbo.harness import TraceWriter, environment_fingerprint

CONFIG_TEXT = """\
[problem]
name = quadratic-2d

[acquisition]
kind = sobol
n_u = 32

[budget]
n_tot = 8
repeats = 2
base_seed = 0

[recommendation]
stride = 2
n_u_coarse = 256
score_n_u = 4096
record_timing = false
"""


def test_run_report_score_pipeline(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "runs"

    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifests = list(out.glob("manifest_*.json"))
    traces = sorted(out.glob("trace_*.csv"))
    assert len(manifests) == 1 and len(traces) == 2

    rep = tmp_path / "report"
    assert main(["report", "--in", str(out), "--out", str(rep)]) == 0
    assert (rep / "fig_suite.svg").exists()
    assert (rep / "curves.csv").exists()
    assert (rep / "summary.md").exists()

    capsys.readouterr()
    assert (
        main(
            [
                "score",
                "--trace", str(traces[0]),
                "--problem", "quadratic-2d",
                "--n-u", "4096",
            ]
        )
        == 0
    )
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines and lines[0] == "n,p_true"
    assert len(lines) > 1, "score should print one line per checkpoint"
    for line in lines[1:]:
        n, p = line.split(",")
        assert int(n) >= 1
        assert 0.0 <= float(p) <= 1.0


def test_repeat_and_seed_overrides(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG_TEXT)
    out = tmp_path / "runs"
    assert (
        main(["run", "--config", str(cfg), "--out", str(out), "--repeats", "1", "--seed", "5"])
        == 0
    )
    assert len(list(out.glob("trace_*.csv"))) == 1
    # A bad override fails when the config is built, before any manifest.
    for flag, value in (("--repeats", "0"), ("--seed", "-1")):
        bad = tmp_path / f"bad{flag}"
        with pytest.raises(ValueError, match="repeats|base_seed"):
            main(["run", "--config", str(cfg), "--out", str(bad), flag, value])
        assert not list(bad.glob("manifest_*.json"))


def test_parallel_run_matches_sequential(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG_TEXT)
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["run", "--config", str(cfg), "--out", str(seq)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(par), "--parallel", "2"]) == 0
    (manifest_path,) = par.glob("manifest_*.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["failed_repeats"] == []
    assert manifest["environment"] == environment_fingerprint()
    seq_traces = sorted(seq.glob("trace_*.csv"))
    par_traces = sorted(par.glob("trace_*.csv"))
    assert len(par_traces) == 2
    assert [p.name for p in par_traces] == [p.name for p in seq_traces]
    for a, b in zip(seq_traces, par_traces):
        assert a.read_bytes() == b.read_bytes()


def test_report_finds_traces_after_the_directory_moves(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(CONFIG_TEXT)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 0
    moved = tmp_path / "elsewhere" / "runs"
    moved.parent.mkdir()
    (tmp_path / "runs").rename(moved)
    (manifest_path,) = moved.glob("manifest_*.json")
    manifest = json.loads(manifest_path.read_text())
    traces = sorted(moved.glob("trace_*.csv"))
    assert sorted(e["trace"] for e in manifest["repeats"].values()) == [t.name for t in traces]

    read = []

    def recording(paths, **kwargs):
        read.append(sorted(paths))
        return real(paths, **kwargs)

    real = cli.aggregate_traces
    monkeypatch.setattr(cli, "aggregate_traces", recording)
    assert main(["report", "--in", str(moved), "--out", str(tmp_path / "rep")]) == 0
    # A manifest written before trace paths were relative lists them absolute.
    for entry, trace in zip(manifest["repeats"].values(), traces):
        entry["trace"] = str(trace)
    manifest_path.write_text(json.dumps(manifest))
    assert main(["report", "--in", str(moved), "--out", str(tmp_path / "rep2")]) == 0
    assert read == [traces, traces]


def write_trace(path, dim, p_true=1e-3):
    """A hand-written trace of ``dim`` columns per point with one iteration
    row, at n = 5, whose recommendation has true failure probability
    ``p_true``."""
    header = TraceWriter(path, dim).header
    row = {"repeat": 0, "n": 5, "phase": "iter", "rule": "sobol", "p_true": p_true}
    cells = [str(row.get(key, 0.5)) for key in header]
    path.write_text(",".join(header) + "\n" + ",".join(cells) + "\n")
    return path


@pytest.mark.parametrize("dim, problem, width", [(6, "branin-2d", 6), (2, "hartmann-6d", 2)])
def test_score_rejects_a_trace_of_another_dimension(tmp_path, capsys, dim, problem, width):
    trace = write_trace(tmp_path / "trace.csv", dim)
    assert main(["score", "--trace", str(trace), "--problem", problem, "--n-u", "64"]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no row was scored
    assert err.count("\n") == 1 and f"has {width} y_* columns" in err


def test_score_checks_n_u_before_scoring(tmp_path, capsys):
    trace = write_trace(tmp_path / "trace.csv", 2)
    assert main(["score", "--trace", str(trace), "--problem", "branin-2d", "--n-u", "1000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "relbo score: n_u must be a power of two, got 1000\n"


def test_report_keeps_the_modes_apart(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for mode, p_true in (("extreme", 1e-6), ("non_extreme", 1e-2)):
        write_trace(runs / f"trace_{mode}.csv", 2, p_true)
        manifest = {
            "config": {"problem": "quadratic-2d", "mode": mode,
                       "acquisition": {"kind": "sobol"}},
            "repeats": {"0": {"status": "ok", "trace": f"trace_{mode}.csv"}},
        }
        (runs / f"manifest_{mode}.json").write_text(json.dumps(manifest))
    assert main(["report", "--in", str(runs), "--out", str(tmp_path / "rep")]) == 0
    rows = (tmp_path / "rep" / "curves.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:4] for row in rows] == [
        ["quadratic-2d", "sobol", "5", "9.9999999999999995e-07"],
        ["quadratic-2d (non_extreme)", "sobol", "5", "0.01"],
    ]
    summary = (tmp_path / "rep" / "summary.md").read_text()
    assert "| quadratic-2d | sobol | 1 |" in summary
    assert "| quadratic-2d (non_extreme) | sobol | 1 |" in summary
