"""Time and peak memory of indicator bases and Galerkin projection at n = 10^5.

Usage, from the root of a checkout:

    PYTHONPATH=src python scripts/galerkin_scale.py

Builds a directed graph of 800 blocks of 125 vertices in which every
vertex has 20 out-edges drawn uniformly from its own block and 2 drawn
from the whole graph (seed 0, repeated draws summed; about 2.06M
entries), then reports, as the median and the range of REPEATS untraced
calls and the tracemalloc peak of one more call:

- ``indicator_basis`` on the 800 blocks and on 3125 sets of 32 vertices;
- ``project(forward_backward(S, uniform), basis)`` followed by
  ``reduced_eigenfunctions(red, 8)`` on the 800-block basis.

PYTHONPATH selects the checkout that is measured, and
OPENBLAS_NUM_THREADS, if set, its BLAS threads.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc

import numpy as np
import scipy

import tosca

REPEATS = 5
N_B, BLOCKS = 125, 800


def out_edge_graph(n_b: int, blocks: int, seed: int) -> tosca.Graph:
    """20 out-edges per vertex into its own block of n_b, 2 anywhere, repeats summed."""
    n = n_b * blocks
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(n), 22).reshape(n, 22)
    dst = src // n_b * n_b + rng.integers(0, n_b, (n, 22))
    dst[:, 20:] = rng.integers(0, n, (n, 2))
    return tosca.from_edge_list(n, np.column_stack([src.ravel(), dst.ravel(), np.ones(src.size)]))


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
        "median_s": round(statistics.median(times), 4),
        "min_s": round(min(times), 4),
        "max_s": round(max(times), 4),
        "peak_mib": round(peak / 2**20, 1),
    }


def project_and_lift(s: tosca.TransitionMatrix, basis: tosca.Basis):
    red = tosca.project(tosca.forward_backward(s, tosca.uniform_density(s.n)), basis)
    return tosca.reduced_eigenfunctions(red, 8)


def main() -> None:
    g = out_edge_graph(N_B, BLOCKS, seed=0)
    s = tosca.transition_matrix(g)
    blocks = np.arange(g.n).reshape(BLOCKS, N_B)
    small = np.arange(g.n).reshape(3125, 32)
    basis = tosca.indicator_basis(g.n, blocks)
    project_and_lift(s, basis)  # load the solver modules before timing
    print(json.dumps({
        "n": g.n,
        "entries": g.num_edges,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "repeats": REPEATS,
        "indicator_basis_r800": measure(tosca.indicator_basis, g.n, blocks),
        "indicator_basis_r3125": measure(tosca.indicator_basis, g.n, small),
        "project_and_lift_r800": measure(project_and_lift, s, basis),
    }))


if __name__ == "__main__":
    main()
