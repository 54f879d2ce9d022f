import tracemalloc

import numpy as np
import pytest

import tosca


def three_cycles_graph(cross_weight: float = 0.01, self_loops: float = 1.0) -> tosca.Graph:
    """Three directed 4-cycles linked by weak edges (12 vertices).

    Cycle c occupies vertices 4c..4c+3; weak edges 3->4, 7->8, 11->0
    close the outer loop. Unit self-loops keep every vertex reachable
    backward.
    """
    triples = []
    for c in range(3):
        base = 4 * c
        for i in range(4):
            triples.append((base + i, base + (i + 1) % 4, 1.0))
    triples += [(3, 4, cross_weight), (7, 8, cross_weight), (11, 0, cross_weight)]
    g = tosca.from_edge_list(12, triples, directed=True)
    if self_loops:
        g = tosca.add_self_loops(g, self_loops)
    return g


def two_triangles_graph(self_loops: float = 1.0) -> tosca.Graph:
    """Two directed 3-cycles joined by one weak edge (the README example).

    ARPACK restarts on its top-3 forward-backward spectrum.
    """
    triples = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0),
               (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0), (2, 3, 0.01)]
    g = tosca.from_edge_list(6, triples)
    return tosca.add_self_loops(g, self_loops) if self_loops else g


def random_directed_graph(
    n: int,
    rng: np.random.Generator,
    density: float = 0.3,
    self_loops: bool = True,
    weighted: bool = True,
) -> tosca.Graph:
    mask = rng.random((n, n)) < density
    weights = rng.uniform(0.5, 1.5, (n, n)) if weighted else np.ones((n, n))
    src, dst = np.nonzero(mask)
    triples = [(int(s), int(d), float(weights[s, d])) for s, d in zip(src, dst)]
    g = tosca.from_edge_list(n, triples, directed=True)
    if self_loops:
        g = tosca.add_self_loops(g, 1.0)
    return g


def random_undirected_graph(
    n: int, rng: np.random.Generator, density: float = 0.3
) -> tosca.Graph:
    """Connected weighted undirected graph (random edges over a path)."""
    triples = [(i, i + 1, float(rng.uniform(0.5, 1.5))) for i in range(n - 1)]
    mask = np.triu(rng.random((n, n)) < density, k=1)
    for i, j in zip(*np.nonzero(mask)):
        triples.append((int(i), int(j), float(rng.uniform(0.5, 1.5))))
    return tosca.from_edge_list(n, triples, directed=False)


def peak_mib(fn, *args) -> float:
    """The tracemalloc peak, in MiB, of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def example_block_matrix(p: float = 0.8, q: float = 0.1) -> np.ndarray:
    """Four-block probability matrix with one dense block per row/column."""
    return np.array(
        [
            [q, p, q, q],
            [q, q, q, p],
            [q, q, p, q],
            [p, q, q, q],
        ]
    )


def dense_dsbm_edges(params):
    """Reference sampler: one n x n uniform draw against kron(e, ones).

    A test that checks a property of one fixed block-model graph builds
    it here, so that graph stays the same whatever ``dsbm_sample`` draws.
    """
    rng = np.random.default_rng(params.seed)
    blocks = np.ones((params.n_b, params.n_b))
    mask = rng.random((params.n, params.n)) < np.kron(params.e, blocks)
    return np.nonzero(mask)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
