"""The benchmark's workloads: inputs, one operation ("op"), and its gate.

Each workload is one client in a closed loop: ``setup`` builds the inputs
and the reference, ``op`` is the timed unit of work, and ``check`` decides,
outside the timed region, whether the op's outputs are correct.

A workload has ``variants`` fixed inputs per run, all made from the
workload seed; op i uses variant i mod ``variants`` and a run holds at
least one op per variant. The quality figures therefore do not depend on
how many ops fit into the run, and a run's median spans several inputs.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

import sampler
import tosca

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "cli_child.py"
CHILD_TIMEOUT_S = 150


@dataclass
class Outcome:
    """Gate verdict and quality figures of one op."""

    errors: list[str] = field(default_factory=list)
    ari: float = 0.0  # the worst values stand until the check measures them
    est_err: float = 1.0
    facts: dict[str, float] = field(default_factory=dict)


def ari(labels: np.ndarray, truth: np.ndarray) -> float:
    """Adjusted Rand index, computed independently of ``tosca.metrics``."""
    _, a = np.unique(labels, return_inverse=True)
    _, b = np.unique(truth, return_inverse=True)
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(x):
        return float((x * (x - 1) / 2.0).sum())

    total = pairs(np.array([len(a)]))
    index, rows, cols = pairs(table), pairs(table.sum(1)), pairs(table.sum(0))
    expected = rows * cols / total
    top = (rows + cols) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def gate(out: Outcome, ari_floor: float, est_tol: float) -> Outcome:
    if not out.ari >= ari_floor:
        out.errors.append(f"ARI {out.ari:.4f} below floor {ari_floor}")
    if not out.est_err <= est_tol:
        out.errors.append(f"eigenvalue gap {out.est_err:.4g} above tolerance {est_tol}")
    return out


def variant_seed(seed: int, variant: int) -> int:
    return 100 * seed + variant


def graph_from_edges(n: int, src: np.ndarray, dst: np.ndarray) -> tosca.Graph:
    """Unit-weight tosca graph with unit self-loops."""
    g = tosca.from_edge_list(n, zip(src.tolist(), dst.tolist(), repeat(1.0)))
    return tosca.add_self_loops(g, 1.0)


# ---------------------------------------------------------------- cli-dsbm-8k

@dataclass(frozen=True)
class CliScale:
    blocks: int
    block_size: int
    p_in: float
    q_out: float
    ari_floor: float
    est_tol: float


class CliDsbm:
    """``tosca generate dsbm --mtx`` -> ``cluster -k B --self-loops 1`` -> ``eval``."""

    name = "cli-dsbm-8k"
    in_process = False
    # Lloyd iteration counts, and so op times, differ between graphs.
    variants = 3
    scales = {
        "full": CliScale(32, 250, 0.05, 0.001, ari_floor=0.75, est_tol=0.1),
        "smoke": CliScale(4, 50, 0.3, 0.01, ari_floor=0.85, est_tol=0.15),
    }

    def setup(self, seed: int, workdir: Path, scale: str, env: dict) -> dict:
        c = self.scales[scale]
        probs = np.full((c.blocks, c.blocks), c.q_out)
        np.fill_diagonal(probs, c.p_in)
        np.savetxt(workdir / "probs.csv", probs, delimiter=",", fmt="%.17g")
        truth = np.repeat(np.arange(c.blocks), c.block_size)
        with open(workdir / "truth.csv", "w") as fh:
            fh.write("vertex_index,label\n")
            fh.writelines(f"{i},{label}\n" for i, label in enumerate(truth))
        k = str(c.blocks)
        argvs = []
        for variant in range(self.variants):
            s = str(variant_seed(seed, variant))
            argvs.append([
                ["generate", "dsbm", "--blocks", k, "--block-size", str(c.block_size),
                 "--probs", "probs.csv", "--mtx", "-o", "graph.mtx", "--seed", s, "--json"],
                ["cluster", "graph.mtx", "-k", k, "--self-loops", "1", "-o", "labels.csv",
                 "--seed", s, "--json"],
                ["eval", "labels.csv", "truth.csv"],
            ])
        return {"scale": c, "truth": truth, "argvs": argvs, "workdir": workdir,
                "env": env, "refs": {}}

    def op(self, state: dict, variant: int, recorder=None) -> dict:
        runs = []
        for i, argv in enumerate(state["argvs"][variant]):
            if recorder is None:
                cmd = [sys.executable, "-m", "tosca.cli", *argv]
            else:
                spans = state["workdir"] / f"spans-{i}.json"
                cmd = [sys.executable, str(CHILD), str(spans), *argv]
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=state["env"], cwd=state["workdir"],
                                      capture_output=True, timeout=CHILD_TIMEOUT_S)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired:
                code, stdout, stderr = -1, b"", b"timed out"
            wall = time.perf_counter() - start
            runs.append((argv[0], code, stdout, stderr))
            if recorder is not None:
                recorder.fact("cli.wall", wall)
                if spans.is_file():
                    recorder.merge(spans, recorder.op_id)
                    spans.unlink()
            if code != 0:
                break
        return {"runs": runs}

    def reference(self, state: dict, path: Path) -> np.ndarray:
        """Galerkin F_r eigenvalues on the planted blocks of the graph file."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest not in state["refs"]:
            a = scipy.io.mmread(path)
            s = sampler.transition(sp.csr_matrix(a), 1.0)
            n = s.shape[0]
            state["refs"][digest] = sampler.galerkin_fb_eigenvalues(
                s, np.full(n, 1.0 / n), state["truth"])
        return state["refs"][digest]

    def check(self, state: dict, result: dict) -> Outcome:
        out = Outcome()
        for command, code, _, stderr in result["runs"]:
            if code != 0:
                out.errors.append(f"tosca {command} exited {code}: {stderr.decode()[-300:]}")
        if out.errors:
            return out
        c = state["scale"]
        summary = json.loads(result["runs"][1][2])
        evaluated = json.loads(result["runs"][2][2])
        rows = np.loadtxt(state["workdir"] / "labels.csv", delimiter=",",
                          skiprows=2, dtype=np.int64, ndmin=2)
        if not np.array_equal(rows[:, 0], np.arange(len(state["truth"]))):
            out.errors.append("labels.csv does not list vertices 0..n-1 in order")
            return out
        out.ari = ari(rows[:, 1], state["truth"])
        if abs(out.ari - evaluated["ari"]) > 1e-9:
            out.errors.append(f"tosca eval ARI {evaluated['ari']} != {out.ari}")
        ref = self.reference(state, state["workdir"] / "graph.mtx")
        lam = np.asarray(summary["lambda"])
        out.est_err = float(np.abs(lam - ref[: len(lam)]).max())
        return gate(out, c.ari_floor, c.est_tol)


# ---------------------------------------------------------- methods-cyclic-1600

@dataclass(frozen=True)
class CyclicScale:
    blocks: int
    block_size: int
    p_next: float
    q: float
    ari_floor: float
    est_tol: float


class MethodsCyclic:
    """tosca against the DDBS and Hermitian baselines on a directed cycle of blocks."""

    name = "methods-cyclic-1600"
    in_process = True
    variants = 1
    scales = {
        "full": CyclicScale(8, 200, 0.05, 0.003, ari_floor=0.75, est_tol=0.1),
        "smoke": CyclicScale(8, 25, 0.4, 0.01, ari_floor=0.9, est_tol=0.15),
    }

    def setup(self, seed: int, workdir: Path, scale: str, env: dict) -> dict:
        c = self.scales[scale]
        n = c.blocks * c.block_size
        rng = np.random.default_rng(seed)
        src, dst = sampler.block_edges(rng, c.block_size,
                                       sampler.cyclic_probs(c.blocks, c.p_next, c.q))
        truth = np.repeat(np.arange(c.blocks), c.block_size)
        a = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        ref = sampler.galerkin_fb_eigenvalues(sampler.transition(a, 1.0),
                                              np.full(n, 1.0 / n), truth)
        return {"scale": c, "graph": graph_from_edges(n, src, dst), "truth": truth,
                "ref": ref}

    def op(self, state: dict, variant: int, recorder=None) -> dict:
        g, k, truth = state["graph"], state["scale"].blocks, state["truth"]
        fb = tosca.cluster_graph(g, k)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), tosca.uniform_density(g.n), k)
        ddbs = tosca.ddbs_cluster(g, k)
        herm = tosca.herm_cluster(g, k)
        coherence = [tosca.coherence_score(g, None, np.flatnonzero(fb.labels == c))
                     for c in range(k)]
        aris = [tosca.adjusted_rand_index(x.labels, truth) for x in (fb, ddbs, herm)]
        return {"fb": fb.labels, "lam": spec.lam, "coherence": coherence, "aris": aris}

    def check(self, state: dict, result: dict) -> Outcome:
        c = state["scale"]
        out = Outcome()
        out.ari = ari(result["fb"], state["truth"])
        if abs(out.ari - result["aris"][0]) > 1e-9:
            out.errors.append(f"tosca ARI {result['aris'][0]} != {out.ari}")
        coherence = np.asarray(result["coherence"])
        if not ((coherence >= 0.0) & (coherence <= 1.0 + 1e-12)).all():
            out.errors.append(f"coherence outside [0, 1]: {coherence}")
        out.est_err = float(np.abs(result["lam"] - state["ref"][: c.blocks]).max())
        out.facts = {"baselines.ddbs_ari": result["aris"][1],
                     "baselines.herm_ari": result["aris"][2]}
        return gate(out, c.ari_floor, c.est_tol)


# --------------------------------------------------------------------- walks-8k

@dataclass(frozen=True)
class WalksScale:
    groups: int
    per_group: int
    block_size: int
    p_block: float
    p_group: float
    q: float
    m_pairs: int
    m_trajectory: int
    ari_floor: float
    est_tol: float


class Walks:
    """Operators estimated from random walks alone, against a Galerkin reference."""

    name = "walks-8k"
    in_process = True
    # Walk samples, and so the eigenvalue gaps, differ between sample seeds.
    variants = 3
    scales = {
        "full": WalksScale(8, 8, 125, 0.08, 0.008, 0.0005, 500_000, 200_000,
                           ari_floor=0.9, est_tol=0.1),
        "smoke": WalksScale(2, 4, 25, 0.4, 0.05, 0.005, 20_000, 20_000,
                            ari_floor=0.9, est_tol=0.15),
    }

    def setup(self, seed: int, workdir: Path, scale: str, env: dict) -> dict:
        c = self.scales[scale]
        r = c.groups * c.per_group
        n = r * c.block_size
        rng = np.random.default_rng(seed)
        probs = sampler.nested_probs(c.groups, c.per_group, c.p_block, c.p_group, c.q)
        src, dst = sampler.block_edges(rng, c.block_size, probs)
        blocks = np.repeat(np.arange(r), c.block_size)
        a = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
        ref = sampler.galerkin_fb_eigenvalues(sampler.transition(a, 1.0),
                                              np.full(n, 1.0 / n), blocks)
        return {"scale": c, "seed": seed, "graph": graph_from_edges(n, src, dst),
                "sets": [np.flatnonzero(blocks == j) for j in range(r)],
                "groups": np.repeat(np.arange(c.groups), c.per_group * c.block_size),
                "block_of": blocks, "ref": ref}

    def op(self, state: dict, variant: int, recorder=None) -> dict:
        c, g = state["scale"], state["graph"]
        sample_seed = variant_seed(state["seed"], variant)
        s = tosca.transition_matrix(g)
        mu = tosca.uniform_density(g.n)
        estimates = []
        for sample_fn, m in ((tosca.sample_pairs, c.m_pairs),
                             (tosca.sample_trajectory, c.m_trajectory)):
            sample = sample_fn(s, mu, m, sample_seed)
            basis = tosca.indicator_basis(g.n, state["sets"])
            est = tosca.estimated_operators(tosca.empirical_grams(sample, basis))
            vals, vecs = np.linalg.eig(est.f)
            order = np.argsort(vals.real)[::-1]
            # Coherent groups: k-means on the leading estimated eigenvectors,
            # one row per basis block, lifted to the vertices.
            feats = vecs[:, order[: c.groups]].real
            blocks = tosca.kmeans(feats, c.groups, tosca.KMeansConfig(seed=sample_seed))
            labels = blocks.labels[state["block_of"]]
            estimates.append({"eigenvalues": vals.real[order], "labels": labels,
                              "ari": tosca.adjusted_rand_index(labels, state["groups"])})
        return {"estimates": estimates}

    def check(self, state: dict, result: dict) -> Outcome:
        c = state["scale"]
        out = Outcome()
        aris, gaps = [], []
        for est in result["estimates"]:
            aris.append(ari(est["labels"], state["groups"]))
            if abs(aris[-1] - est["ari"]) > 1e-9:
                out.errors.append(f"tosca ARI {est['ari']} != {aris[-1]}")
            gaps.append(float(np.abs(est["eigenvalues"] - state["ref"]).max()))
        out.ari, out.est_err = min(aris), max(gaps)
        return gate(out, c.ari_floor, c.est_tol)


WORKLOADS = {w.name: w for w in (CliDsbm(), MethodsCyclic(), Walks())}
