"""Time and peak memory of graph ingest at n = 10^5.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/ingest_scale.py [--workdir DIR]

Samples the DSBM graph of 32 blocks of 3125 vertices (p_in = 0.004,
q = 1e-4, seed 7; about 2.2M edges), writes it as a Matrix Market file
and as the TSV edge list that ``tosca generate`` writes by default, plus a
copy of each file with one blank line appended and one with a comment line
in the middle of its rows, then reports for ``read_matrix_market`` and
``read_edge_list`` on those six files and for
``add_self_loops`` on the graph they return: the median and the range of
REPEATS untraced calls, and the tracemalloc peak of one more call.
Pointing PYTHONPATH at another checkout's ``src`` measures that checkout on
the same files.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import tempfile
import time
import tracemalloc
from itertools import islice
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
        blank = {}  # each file with one trailing blank line
        comment = {}  # each file with one comment line halfway through its lines
        for path, mark in ((mtx, "%"), (tsv, "#")):
            blank[path] = path.with_name(f"{path.stem}-blank{path.suffix}")
            shutil.copyfile(path, blank[path])
            with open(blank[path], "a") as fh:
                fh.write("\n")
            comment[path] = path.with_name(f"{path.stem}-comment{path.suffix}")
            with open(path) as src, open(comment[path], "w") as dst:
                half = sum(1 for _ in src) // 2
                src.seek(0)
                dst.writelines(islice(src, half))
                dst.write(f"{mark} c\n")
                dst.writelines(src)
        results = {
            "read_matrix_market": measure(tosca.read_matrix_market, mtx),
            "read_edge_list": measure(tosca.read_edge_list, tsv),
            "read_matrix_market_trailing_blank": measure(tosca.read_matrix_market, blank[mtx]),
            "read_edge_list_trailing_blank": measure(tosca.read_edge_list, blank[tsv]),
            "read_matrix_market_mid_comment": measure(tosca.read_matrix_market, comment[mtx]),
            "read_edge_list_mid_comment": measure(tosca.read_edge_list, comment[tsv]),
        }
        g = tosca.read_matrix_market(mtx)
    results["add_self_loops"] = measure(tosca.add_self_loops, g, 1.0)
    print(json.dumps({"n": g.n, "entries": g.num_edges, "numpy": np.__version__, **results}))


if __name__ == "__main__":
    main()
