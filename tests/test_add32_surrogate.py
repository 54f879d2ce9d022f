"""End-to-end pipeline on a synthetic circuit-like matrix.

Stands in for the real 32-bit-adder benchmark when its data file is not
available: a 32-block directed graph with signed weights goes through
Matrix Market ingestion (weight shift), regularization, the Lanczos
spectral path (n = 2560, answered by Lanczos without the dense
fallback), gap detection, clustering, and reordering.
"""

import numpy as np

import tosca
from tosca.cli import main


def write_signed_block_matrix(path, seed=0, r_b=32, n_b=80):
    rng = np.random.default_rng(seed)
    n = r_b * n_b
    e = 0.001 * np.ones((r_b, r_b)) + (0.5 - 0.001) * np.eye(r_b)
    mask = rng.random((n, n)) < np.kron(e, np.ones((n_b, n_b)))
    src, dst = np.nonzero(mask)
    vals = rng.uniform(-1.0, 2.0, len(src))
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{n} {n} {len(src)}\n")
        for s, d, v in zip(src, dst, vals):
            fh.write(f"{s + 1} {d + 1} {v:.17g}\n")
    return n, r_b, n_b


def test_full_pipeline_on_surrogate(tmp_path):
    mtx = tmp_path / "surrogate.mtx"
    n, r_b, n_b = write_signed_block_matrix(mtx)

    g = tosca.read_matrix_market(mtx)
    assert g.n == n
    assert g.weight.min() > 0.0  # shift made everything positive

    g = tosca.add_self_loops(g, 1.0)
    spec = tosca.fb_spectrum(
        tosca.transition_matrix(g), tosca.uniform_density(n), 40
    )
    assert tosca.spectral_gap(spec.lam, 40) == r_b

    clustering = tosca.cluster_graph(g, r_b, cfg=tosca.KMeansConfig(seed=0))
    truth = np.repeat(np.arange(r_b), n_b)
    assert tosca.adjusted_rand_index(clustering.labels, truth) == 1.0

    reordered, _ = tosca.reorder_by_cluster(g, clustering.labels)
    sizes = np.bincount(clustering.labels, minlength=r_b)
    bounds = np.concatenate([[0], np.cumsum(np.sort(sizes))])
    a = reordered.adjacency.toarray()
    diag_mass = sum(
        a[bounds[i] : bounds[i + 1], bounds[i] : bounds[i + 1]].sum()
        for i in range(r_b)
    )
    assert 1.0 - diag_mass / a.sum() < 0.10


def test_cli_pipeline_on_surrogate(tmp_path):
    mtx = tmp_path / "surrogate.mtx"
    write_signed_block_matrix(mtx, r_b=8, n_b=40)

    labels = tmp_path / "labels.csv"
    assert main([
        "cluster", str(mtx), "-k", "8", "--self-loops", "1.0",
        "--seed", "0", "-o", str(labels),
    ]) == 0

    spectrum = tmp_path / "spectrum.csv"
    assert main([
        "spectrum", str(mtx), "--num", "12", "--self-loops", "1.0",
        "-o", str(spectrum),
    ]) == 0

    reordered = tmp_path / "reordered.mtx"
    perm = tmp_path / "perm.csv"
    assert main([
        "reorder", str(mtx), str(labels), "-o", str(reordered), "--perm", str(perm),
    ]) == 0
    back = tosca.read_matrix_market(reordered)
    assert back.n == 320
