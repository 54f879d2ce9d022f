"""Time and peak memory of graph ingest at n = 10^5.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/ingest_scale.py [--workdir DIR]

Samples the DSBM graph of 32 blocks of 3125 vertices (p_in = 0.004,
q = 1e-4, seed 7; about 2.2M edges), writes it as a Matrix Market file
and as the TSV edge list that ``tosca generate`` writes by default, then
reports for ``read_matrix_market`` and ``read_edge_list`` on those files
and for ``add_self_loops`` on the graph they return: the median and the
range of REPEATS untraced calls, and the tracemalloc peak of one more call.
Pointing PYTHONPATH at another checkout's ``src`` measures that checkout on
the same files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tosca

REPEATS = 5


def measure(fn, *args) -> dict:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "median_s": round(statistics.median(times), 3),
        "min_s": round(min(times), 3),
        "max_s": round(max(times), 3),
        "peak_mib": round(peak / 2**20, 1),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args()
    probs = np.full((32, 32), 1e-4)
    np.fill_diagonal(probs, 0.004)
    g = tosca.dsbm_sample(tosca.DSBMParams(r_b=32, n_b=3125, e=probs, seed=7))
    with tempfile.TemporaryDirectory(dir=args.workdir) as folder:
        mtx, tsv = Path(folder) / "g.mtx", Path(folder) / "g.tsv"
        tosca.write_matrix_market(g, mtx)
        tosca.write_edge_list(g, tsv)
        del g
        read = measure(tosca.read_matrix_market, mtx)
        read_tsv = measure(tosca.read_edge_list, tsv)
        g = tosca.read_matrix_market(mtx)
    loops = measure(tosca.add_self_loops, g, 1.0)
    print(json.dumps({
        "n": g.n, "entries": g.num_edges, "numpy": np.__version__,
        "read_matrix_market": read, "read_edge_list": read_tsv, "add_self_loops": loops,
    }))


if __name__ == "__main__":
    main()
