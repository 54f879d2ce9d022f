"""Seeded graph inputs and sparse Galerkin references owned by the benchmark.

The in-process workloads draw their graphs here rather than from
``tosca.generators``, so a change to the library's sampler cannot change
what they measure. Everything is built from sparse arrays: no function in
this file allocates an ``n x n`` dense array.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def block_edges(rng: np.random.Generator, block_size: int, probs: np.ndarray):
    """Directed Bernoulli edges between equal-size blocks.

    Entry (u, v), u in block i and v in block j, is present with
    probability ``probs[i, j]``. Each block pair draws its edge count from
    a binomial and then that many distinct positions, so the cost is
    proportional to the number of edges. Returns (src, dst), sorted by
    block pair, without duplicates.
    """
    r = probs.shape[0]
    cells = block_size * block_size
    srcs, dsts = [], []
    for i in range(r):
        for j in range(r):
            count = rng.binomial(cells, probs[i, j])
            pos = rng.choice(cells, size=count, replace=False)
            srcs.append(i * block_size + pos // block_size)
            dsts.append(j * block_size + pos % block_size)
    return np.concatenate(srcs), np.concatenate(dsts)


def cyclic_probs(r: int, p_next: float, q: float) -> np.ndarray:
    """Block i links to block i + 1 (mod r) with p_next, elsewhere with q."""
    probs = np.full((r, r), q)
    probs[np.arange(r), (np.arange(r) + 1) % r] = p_next
    return probs


def nested_probs(groups: int, per_group: int, p_block: float, p_group: float, q: float):
    """Blocks nested in groups: in-block p_block, in-group p_group, else q."""
    r = groups * per_group
    group = np.arange(r) // per_group
    probs = np.where(group[:, None] == group[None, :], p_group, q)
    probs[np.arange(r), np.arange(r)] = p_block
    return probs


def transition(a: sp.spmatrix, self_loop: float) -> sp.csr_matrix:
    """Row-stochastic sparse S of adjacency ``a`` plus ``self_loop`` on the diagonal."""
    a = sp.csr_matrix(a + self_loop * sp.identity(a.shape[0], format="csr"))
    return sp.csr_matrix(sp.diags(1.0 / np.asarray(a.sum(axis=1)).ravel()) @ a)


def galerkin_fb_eigenvalues(s: sp.csr_matrix, mu: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Eigenvalues of F_r = G0^-1 G1 on the indicator basis of ``labels``, descending.

    G0 = Phi D_mu Phi^T and G1 = Phi D_mu S D_nu^-1 S^T D_mu Phi^T with
    nu = S^T mu, computed from sparse products only.
    """
    n = s.shape[0]
    r = int(labels.max()) + 1
    phi = sp.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(r, n))
    nu = s.T @ mu
    a = (phi @ sp.diags(mu) @ s).tocsr()
    g0 = (phi @ sp.diags(mu) @ phi.T).toarray()
    g1 = (a @ sp.diags(1.0 / nu) @ a.T).toarray()
    sqrt_g0 = np.sqrt(np.diag(g0))
    sym = g1 / sqrt_g0[:, None] / sqrt_g0[None, :]
    return np.sort(np.linalg.eigvalsh((sym + sym.T) / 2.0))[::-1]
