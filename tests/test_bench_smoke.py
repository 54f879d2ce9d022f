"""The benchmark harness's smoke run, against the library as it stands.

``bench/run.py --smoke`` runs every workload at a tiny size, untraced and
traced, through the same calls as the full benchmark (``from_edge_list``
on ``zip`` triples, both walk samplers, the CLI children). A library
change that breaks one of those calls fails here, not only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0 and lines and lines[-1] == "smoke: ok", (
        done.stdout[-4000:] + done.stderr[-4000:]
    )
