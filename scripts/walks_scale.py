"""Time and peak memory of both walk samplers at n = 10^5, on two checkouts.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/walks_scale.py [--against OTHER_CHECKOUT] [--rounds R] [--workdir DIR]

Samples the DSBM graph of 32 blocks of 3125 vertices (p_in = 0.004,
q = 1e-4, seed 7; about 2.2M edges) that ``scripts/ingest_scale.py``
reads and adds unit self-loops: every row of its S holds equal
probabilities. A copy with the same edges and weights drawn uniformly
from [0.5, 1.5) (seed 8), self-loops included, has no such row; a third
copy takes those weights except in the rows of every hundredth vertex,
which keep their unit weights: 1000 rows of equal probabilities, as a
weighted graph with a few leaves or equal-weight rows has. All three go
to a ``.npz`` file. Each round then runs one fresh process per checkout,
this one first in even rounds and ``--against`` first in odd ones. A
process reads the file, builds S, draws once to build the cumulative
rows and then, on each graph, calls

    sample_pairs(S, uniform, 500_000, seed 3)
    sample_trajectory(S, uniform, 200_000, seed 3)

REPEATS times untraced and once more under tracemalloc. It reports the
median wall time of the untraced calls, the tracemalloc peak and the
SHA-256 of the sample. The summary gives, per checkout, graph and
sampler, the median and the range of the processes' medians, the peak,
and whether both checkouts drew the same bytes. Without ``--against`` only
this checkout is run. The children inherit the environment:
OPENBLAS_NUM_THREADS, if set, fixes their BLAS threads.
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
import tracemalloc
from pathlib import Path

import numpy as np

REPEATS = 5
SAMPLERS = {"sample_pairs": 500_000, "sample_trajectory": 200_000}
GRAPHS = ("unweighted", "weighted", "mostly_weighted")


def write_graphs(path: Path) -> dict:
    """The graphs' edge arrays, and how many of their rows hold equal probabilities."""
    import tosca

    probs = np.full((32, 32), 1e-4)
    np.fill_diagonal(probs, 0.004)
    g = tosca.add_self_loops(
        tosca.dsbm_sample(tosca.DSBMParams(r_b=32, n_b=3125, e=probs, seed=7)), 1.0
    )
    weight = np.random.default_rng(8).uniform(0.5, 1.5, g.num_edges)
    weights = {
        "unweighted": g.weight,
        "weighted": weight,
        "mostly_weighted": np.where(g.src % 100 == 0, g.weight, weight),
    }
    np.savez(path, n=g.n, src=g.src, dst=g.dst, **weights)
    even = {}
    for name, w in weights.items():
        starts = np.searchsorted(g.src, np.arange(g.n))
        even[name] = int((np.minimum.reduceat(w, starts) == np.maximum.reduceat(w, starts)).sum())
    return {"n": g.n, "entries": g.num_edges, "even_rows": even}


def child(path: Path) -> dict:
    """One process's medians, peaks and sample digests, on the tosca that PYTHONPATH selects."""
    import tosca

    arrays = np.load(path)
    n = int(arrays["n"])
    mu = tosca.uniform_density(n)
    out = {}
    for name in GRAPHS:
        g = tosca.Graph(n, arrays["src"], arrays["dst"], arrays[name])
        s = tosca.transition_matrix(g)
        tosca.sample_pairs(s, mu, 1, 0)  # builds the cumulative rows
        for sampler, m in SAMPLERS.items():
            fn = getattr(tosca, sampler)
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                sample = fn(s, mu, m, 3)
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                fn(s, mu, m, 3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            digest = hashlib.sha256(sample.xs.tobytes() + sample.ys.tobytes()).hexdigest()
            out[f"{name}/{sampler}"] = {
                "median_s": statistics.median(times), "peak_mib": peak / 2**20, "sha256": digest,
            }
    return out


def run_child(checkout: Path, path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", str(path)]
    result = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(result.stdout)


def summary(runs: list[dict]) -> dict:
    out = {}
    for key in runs[0]:
        medians = [run[key]["median_s"] for run in runs]
        out[key] = {
            "median_s": round(statistics.median(medians), 4),
            "min_s": round(min(medians), 4),
            "max_s": round(max(medians), 4),
            "peak_mib": round(max(run[key]["peak_mib"] for run in runs), 1),
            "sha256": runs[-1][key]["sha256"][:16],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, default=None, help="another checkout to alternate with")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return
    import scipy

    here = Path(__file__).resolve().parents[1]
    sides = {"this": here} | ({"against": args.against.resolve()} if args.against else {})
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(dir=args.workdir) as folder:
        path = Path(folder) / "graphs.npz"
        graphs = write_graphs(path)
        for round_ in range(args.rounds):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_child(sides[side], path))
    report = {
        **graphs,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "rounds": args.rounds,
        "repeats": REPEATS,
        "m": SAMPLERS,
    } | {side: summary(side_runs) for side, side_runs in runs.items()}
    if args.against:
        report["same_samples"] = all(
            report["this"][key]["sha256"] == report["against"][key]["sha256"] for key in report["this"]
        )
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
