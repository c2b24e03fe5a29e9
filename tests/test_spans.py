"""The benchmark's span contract: every relbo symbol that
``perfbench/run.py::install_spans`` wraps by name exists where it looks.

A wrapped symbol that is renamed or moved is dropped from a traced run with
a warning, and its per-layer metrics with it. The check runs in a fresh
interpreter with warnings as errors and without bytecode writes, so it reads
``perfbench/`` and changes nothing in it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import relbo.harness
import run
from spans import SpanRecorder
recorder = SpanRecorder()
run.install_spans(recorder)
assert recorder.missing == [], recorder.missing
"""


def test_install_spans_finds_every_symbol():
    script = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
