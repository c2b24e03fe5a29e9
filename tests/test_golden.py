"""Golden trace digests: the sha256 of short runs of every strategy, per
platform.

Traces are byte-identical across reruns on one platform only, so the digests
live in ``tests/golden/<key>.json``, the key being the first 16 hex digits of
the sha256 of ``environment_fingerprint()`` as sorted JSON. The test compares
against this platform's entry and skips when there is none. An entry is
written only by running this file::

    PYTHONPATH=src python tests/test_golden.py --refresh
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from relbo.acquisition import AcquisitionSpec, _strategies
from relbo.harness import ExperimentConfig, environment_fingerprint, run_bo

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SMALL = dict(n_u=32, n_v=8, n_x=128, n_raw=64, n_restarts=4)


def platform_key() -> str:
    fingerprint = json.dumps(environment_fingerprint(), sort_keys=True).encode()
    return hashlib.sha256(fingerprint).hexdigest()[:16]


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


def test_trace_digests_match_golden():
    path = GOLDEN_DIR / f"{platform_key()}.json"
    if not path.exists():
        pytest.skip(f"no golden entry {path.name} for this platform")
    golden = json.loads(path.read_text())
    assert trace_digests() == golden["traces"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--refresh"]:
        sys.exit("usage: python tests/test_golden.py --refresh")
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{platform_key()}.json"
    entry = {"environment": environment_fingerprint(), "traces": trace_digests()}
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
