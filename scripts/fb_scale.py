"""Wall time and peak RSS of ``tosca cluster`` at n = 10^5.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/fb_scale.py [--workdir DIR]

Samples the DSBM graph of 32 blocks of 3125 vertices (p_in = 0.004,
q = 1e-4, seed 7; about 2.2M edges) that ``scripts/ingest_scale.py``
reads, writes it as a Matrix Market file, then runs

    python -m tosca.cli cluster g.mtx -k 32 --self-loops 1 -o labels.csv --json

REPEATS times, each in a fresh process. It reports the median and the
range of the children's wall times and of their peak resident set sizes
(``ru_maxrss`` of each child alone), and the SHA-256 of the last run's
``labels.csv`` and of its JSON summary without ``wall_time_s``, so that two
checkouts' answers can be compared byte for byte. The children inherit
the environment: PYTHONPATH selects the checkout they run, and
OPENBLAS_NUM_THREADS, if set, their BLAS threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import tosca

REPEATS = 5


def run_child(argv: list[str], cwd: Path) -> tuple[float, float, bytes]:
    """(wall seconds, peak RSS in MB, stdout) of one child process."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {proc.returncode}")
    return wall, usage.ru_maxrss / 1024, stdout  # ru_maxrss is in KiB on Linux


def summary(values: list[float], digits: int) -> dict:
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args()
    probs = np.full((32, 32), 1e-4)
    np.fill_diagonal(probs, 0.004)
    g = tosca.dsbm_sample(tosca.DSBMParams(r_b=32, n_b=3125, e=probs, seed=7))
    argv = [sys.executable, "-m", "tosca.cli", "cluster", "g.mtx", "-k", "32",
            "--self-loops", "1", "-o", "labels.csv", "--json"]
    with tempfile.TemporaryDirectory(dir=args.workdir) as folder:
        folder = Path(folder)
        tosca.write_matrix_market(g, folder / "g.mtx")
        walls, peaks = [], []
        for _ in range(REPEATS):
            wall, peak, stdout = run_child(argv, folder)
            walls.append(wall)
            peaks.append(peak)
        answer = json.loads(stdout)
        del answer["wall_time_s"]
        labels = hashlib.sha256((folder / "labels.csv").read_bytes()).hexdigest()
    print(json.dumps({
        "n": g.n,
        "entries": g.num_edges,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": REPEATS,
        "wall_s": summary(walls, 3),
        "peak_rss_mb": summary(peaks, 1),
        "labels_sha256": labels,
        "json_sha256": hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest(),
    }))


if __name__ == "__main__":
    main()
