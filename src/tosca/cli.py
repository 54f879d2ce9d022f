"""Command-line interface.

Subcommands cover the full pipeline: generate benchmark graphs, cluster
them, inspect spectra, embed vertices, estimate operators from walks,
evaluate clusterings, and reorder adjacency matrices. Every command is
seeded (flag --seed, fallback env TOSCA_SEED, default 0) and writes
deterministic artifacts: same argv, same output bytes. Exit codes:
2 usage, 3 data, 4 numerical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import galerkin, generators, graph as graph_io
from .baselines import ddbs_cluster, herm_cluster
from .clustering import Clustering, KMeansConfig, cluster_graph
from .datadriven import (
    estimated_operators,
    empirical_grams,
    read_walks,
    sample_pairs,
    sample_trajectory,
    write_walks,
)
from .errors import LengthMismatchError, ToscaError
from .graph import Graph, add_self_loops, read_edge_list, read_matrix_market, transition_matrix
from .metrics import adjusted_rand_index, contingency_table, misclassified_fraction
from .operators import Density, stationary_density, uniform_density
from .spectral import _check_dims, embed_coordinates, fb_spectrum, spectral_gap

__all__ = ["main"]


# Walk pairs (or trajectory steps) that `estimate` samples by default.
_WALKERS = 10000


def _default_seed() -> int:
    return int(os.environ.get("TOSCA_SEED", "0"))


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for integers >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _load_graph(path: str) -> Graph:
    with open(path) as fh:
        first = fh.readline()
    if first.lower().startswith("%%matrixmarket"):
        return read_matrix_market(path)
    return read_edge_list(path)


def _resolve_mu(spec: str | None, g: Graph) -> Density:
    if spec in (None, "uniform"):
        return uniform_density(g.n)
    if spec == "stationary":
        return stationary_density(g)
    # One mass per line, or all masses on one line; '#' starts a comment.
    rows = graph_io._read_rows(spec, np.float64, entry="cannot parse numbers in '{text}'")
    table = rows.table()
    bad = ~np.isfinite(table)
    rows.check(rows.fault_at(bad.any(axis=1), lambda k: f"non-finite mass {table[k][bad[k]][0]}"))
    masses = np.atleast_1d(np.squeeze(table))
    if len(masses) != g.n:
        raise LengthMismatchError(
            f"density file has {len(masses)} entries for {g.n} vertices"
        )
    total = masses.sum()
    if total <= 0.0 or (masses < 0.0).any():
        raise ToscaError("density file must hold nonnegative masses with positive sum")
    return Density(masses / total)


def _prepare(args) -> Graph:
    g = _load_graph(args.graph)
    if args.self_loops is not None:
        g = add_self_loops(g, args.self_loops)
    return g


def _write_labels(path: str, clustering: Clustering, seed: int) -> None:
    labels = np.asarray(clustering.labels, dtype=np.int64)
    graph_io._write_rows(
        path, (np.arange(len(labels)), labels), head=[f"# seed={seed}", "vertex_index,label"]
    )


def _emit(args, summary: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")


def _cmd_generate(args) -> int:
    e = generators.read_prob_matrix(args.probs)
    params = generators.DSBMParams(
        r_b=args.blocks, n_b=args.block_size, e=e, weight=args.weight, seed=args.seed
    )
    g = generators.dsbm_sample(params)
    comments = [f"seed={args.seed}"]
    if args.mtx:
        graph_io.write_matrix_market(g, args.output, comments=comments)
    else:
        graph_io.write_edge_list(g, args.output, comments=comments)
    _emit(args, {"n": g.n, "edges": g.num_edges, "seed": args.seed, "output": args.output})
    return 0


def _cmd_cluster(args) -> int:
    start = time.perf_counter()
    g = _prepare(args)
    cfg = KMeansConfig(seed=args.seed)
    if args.restarts is not None:
        cfg = KMeansConfig(restarts=args.restarts, seed=args.seed)
    summary: dict = {"method": args.method, "k": args.k, "seed": args.seed}
    if args.method == "fb":
        clustering = cluster_graph(
            g, args.k, mu=_resolve_mu(args.mu, g), cfg=cfg,
            use=args.use or "phi", drop_first=args.drop_first,
        )
        summary["kappa"] = [float(x) for x in clustering.spectrum.kappa]
        summary["lambda"] = [float(x) for x in clustering.spectrum.lam]
    elif args.method == "ddbs":
        clustering = ddbs_cluster(g, args.k, cfg)
    else:
        clustering = herm_cluster(g, args.k, cfg)
    _write_labels(args.output, clustering, args.seed)
    summary["inertia"] = clustering.inertia
    summary["wall_time_s"] = time.perf_counter() - start
    summary["output"] = args.output
    _emit(args, summary)
    return 0


def _cmd_spectrum(args) -> int:
    start = time.perf_counter()
    g = _prepare(args)
    mu = _resolve_mu(args.mu, g)
    spec = fb_spectrum(transition_matrix(g), mu, args.num)
    head = [f"# seed={args.seed}", "l,kappa,lambda"]
    graph_io._write_rows(args.output, (np.arange(1, spec.k + 1), spec.kappa, spec.lam), head=head)
    summary = {
        "seed": args.seed,
        "num": args.num,
        "kappa": [float(x) for x in spec.kappa],
        "lambda": [float(x) for x in spec.lam],
        # one value leaves no gap to inspect, and k = 1 is the only choice
        "suggested_k": spectral_gap(spec.lam, args.num) if spec.k > 1 else 1,
        "wall_time_s": time.perf_counter() - start,
        "output": args.output,
    }
    _emit(args, summary)
    return 0


def _cmd_embed(args) -> int:
    g = _prepare(args)
    mu = _resolve_mu(args.mu, g)
    dims = [int(d) for d in args.coords.split(",") if d]
    if not dims:
        raise ValueError("--coords needs at least one eigenfunction index")
    _check_dims(dims, g.n)
    spec = fb_spectrum(transition_matrix(g), mu, max(dims))
    coords = embed_coordinates(spec, dims)
    head = [f"# seed={args.seed}", ",".join(["vertex_index", *(f"phi_{d}" for d in dims)])]
    graph_io._write_rows(args.output, (np.arange(g.n), *coords.T), head=head)
    _emit(args, {"seed": args.seed, "dims": dims, "output": args.output})
    return 0


def _cmd_estimate(args) -> int:
    start = time.perf_counter()
    if args.walks:
        sample = read_walks(args.walks)
        n = sample.n
    else:
        g = _prepare(args)
        mu = _resolve_mu(args.mu, g)
        walkers = _WALKERS if args.walkers is None else args.walkers
        sampler = sample_trajectory if args.mode == "trajectory" else sample_pairs
        # S and its sampling tables are freed here, before the Grams
        sample = sampler(transition_matrix(g), mu, walkers, args.seed)
        n = g.n
    sets = galerkin.read_partition(args.basis, n)
    if n is None:
        # walks without 'n=' in their header fix no vertex count: the
        # partition may widen it
        n = int(max(sample.xs.max(), sample.ys.max())) + 1 if sample.m else 0
        n = max(n, max(max(group) for group in sets) + 1)
    basis = galerkin.indicator_basis(n, sets)
    grams = empirical_grams(sample, basis)
    est = estimated_operators(grams, args.ridge)
    eigenvalues = np.sort(np.linalg.eigvals(est.f).real)[::-1]
    payload = {
        "seed": sample.seed,
        "mode": sample.mode,
        "m": sample.m,
        "r": basis.r,
        "eigenvalues": [float(x) for x in eigenvalues],
        "k_r": est.k.tolist(),
        "t_r": est.t.tolist(),
        "f_r": est.f.tolist(),
        "b_r": est.b.tolist(),
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.save_walks:
        write_walks(sample, args.save_walks)
    _emit(
        args,
        {
            "seed": sample.seed,
            "m": sample.m,
            "eigenvalues": payload["eigenvalues"],
            "wall_time_s": time.perf_counter() - start,
            "output": args.output,
        },
    )
    return 0


def _cmd_eval(args) -> int:
    labels = galerkin.read_labels(args.labels)
    truth = galerkin.read_labels(args.truth)
    metrics = {
        "ari": adjusted_rand_index(labels, truth),
        "nmv": misclassified_fraction(labels, truth),
        "confusion": contingency_table(labels, truth).counts.tolist(),
    }
    text = json.dumps(metrics, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n")
    print(text)
    return 0


def _cmd_reorder(args) -> int:
    g = _load_graph(args.graph)
    labels = galerkin.read_labels(args.labels)
    reordered, perm = graph_io.reorder_by_cluster(g, labels)
    graph_io.write_matrix_market(reordered, args.output, comments=[f"seed={args.seed}"])
    if args.perm:
        head = [f"# seed={args.seed}", "new_index,old_index"]
        graph_io._write_rows(args.perm, (np.arange(g.n), perm), head=head)
    _emit(args, {"seed": args.seed, "output": args.output, "perm": args.perm})
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=_default_seed())
    parser.add_argument("--json", action="store_true", help="machine-readable summary")


def _add_graph_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="edge-list TSV or Matrix Market file")
    parser.add_argument("--self-loops", type=float, default=None, metavar="W",
                        help="add W to every diagonal entry before processing")
    parser.add_argument("--mu", default=None,
                        help="start density: uniform (the default), stationary, or a file of masses")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tosca",
        description="Transfer-operator spectral clustering toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample benchmark graphs")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    dsbm = gen_sub.add_parser("dsbm", help="directed stochastic block model")
    dsbm.add_argument("--blocks", type=_int_at_least(1), required=True)
    dsbm.add_argument("--block-size", type=_int_at_least(1), required=True)
    dsbm.add_argument("--probs", required=True, help="CSV block probability matrix")
    dsbm.add_argument("--weight", type=float, default=1.0)
    dsbm.add_argument("--mtx", action="store_true", help="write Matrix Market instead of TSV")
    dsbm.add_argument("-o", "--output", required=True)
    _add_common(dsbm)
    dsbm.set_defaults(func=_cmd_generate)

    cluster = sub.add_parser("cluster", help="spectral clustering")
    _add_graph_options(cluster)
    cluster.add_argument("-k", type=int, required=True)
    cluster.add_argument("--method", choices=["fb", "ddbs", "herm"], default="fb")
    cluster.add_argument("--use", choices=["phi", "psi", "both"], default=None,
                         help="eigenfunctions to cluster (default phi); --method fb only")
    cluster.add_argument("--drop-first", action="store_true",
                         help="drop the constant eigenfunction before k-means; --method fb only")
    cluster.add_argument("--restarts", type=_int_at_least(1), default=None,
                         help="k-means++ restarts (default 10); --method ddbs and herm only, "
                              "fb starts one run from a pivoted QR")
    cluster.add_argument("-o", "--output", required=True)
    _add_common(cluster)
    cluster.set_defaults(func=_cmd_cluster, usage_error=cluster.error)

    spectrum = sub.add_parser("spectrum", help="singular values / eigenvalues")
    _add_graph_options(spectrum)
    spectrum.add_argument("--num", type=int, required=True)
    spectrum.add_argument("-o", "--output", required=True)
    _add_common(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)

    embed = sub.add_parser("embed", help="eigenfunction coordinates per vertex")
    _add_graph_options(embed)
    embed.add_argument("--coords", default="2,3",
                       help="comma-separated 1-based eigenfunction indices")
    embed.add_argument("-o", "--output", required=True)
    _add_common(embed)
    embed.set_defaults(func=_cmd_embed)

    estimate = sub.add_parser("estimate", help="operators from random-walk data")
    estimate.add_argument("graph", nargs="?", default=None)
    estimate.add_argument("--self-loops", type=float, default=None, metavar="W")
    estimate.add_argument("--mu", default=None, help="start density (default uniform)")
    estimate.add_argument("--walkers", type=_int_at_least(0), default=None,
                          help=f"pairs or trajectory steps to sample (default {_WALKERS})")
    estimate.add_argument("--mode", choices=["pairs", "trajectory"], default=None,
                          help="sample independent pairs (the default) or one trajectory")
    estimate.add_argument("--walks", default=None,
                          help="walk-pair CSV instead of a graph; skips sampling")
    estimate.add_argument("--basis", required=True, help="partition CSV")
    estimate.add_argument("--ridge", type=float, default=None)
    estimate.add_argument("--save-walks", default=None)
    estimate.add_argument("-o", "--output", required=True)
    _add_common(estimate)
    estimate.set_defaults(func=_cmd_estimate, usage_error=estimate.error)

    ev = sub.add_parser("eval", help="compare two label files")
    ev.add_argument("labels")
    ev.add_argument("truth")
    ev.add_argument("-o", "--output", default=None)
    _add_common(ev)
    ev.set_defaults(func=_cmd_eval)

    reorder = sub.add_parser("reorder", help="permute vertices by cluster label")
    reorder.add_argument("graph")
    reorder.add_argument("labels")
    reorder.add_argument("-o", "--output", required=True)
    reorder.add_argument("--perm", default=None, help="write permutation CSV here")
    _add_common(reorder)
    reorder.set_defaults(func=_cmd_reorder)

    return parser


def _check_branch(args) -> None:
    """Usage errors argparse cannot see: input given to a branch of the
    command that does not read it. They go through the subcommand's own
    parser, so its usage line heads the message."""
    if args.command == "estimate":
        if args.walks is None:
            if args.graph is None:
                args.usage_error("a graph or --walks is required")
            return
        options = {"a graph": args.graph, "--self-loops": args.self_loops, "--mu": args.mu,
                   "--mode": args.mode, "--walkers": args.walkers}
        given = [name for name, value in options.items() if value is not None]
        if given:
            args.usage_error(f"--walks does not take {', '.join(given)}; "
                             "they apply to sampling from a graph")
    elif args.command == "cluster" and args.method == "fb":
        if args.restarts is not None:
            args.usage_error("--method fb does not take --restarts; only ddbs and herm do")
    elif args.command == "cluster":
        flags = {"--mu": args.mu is not None, "--use": args.use is not None,
                 "--drop-first": args.drop_first}
        given = [flag for flag, on in flags.items() if on]
        if given:
            args.usage_error(
                f"--method {args.method} does not take {', '.join(given)}; only fb does"
            )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _check_branch(args)
    try:
        return args.func(args)
    except ToscaError as exc:
        print(f"tosca {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (FileNotFoundError, ValueError) as exc:
        print(f"tosca {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
