"""Time and peak memory of tosca at n = 10^5, stage by stage, on one or two checkouts.

Usage, from the root of a checkout:

    python scripts/scale.py STAGE [--against CHECKOUT] [--rounds R] [--workdir DIR]

This checkout's tosca builds the stage's inputs once, in a temporary folder
under DIR. Each round then runs one fresh process per checkout, with
PYTHONPATH set to that checkout's ``src``, this checkout first in even
rounds. A process makes every call of the stage REPEATS times untraced and
once more under tracemalloc, and reports the median and range of the
untraced calls, the peak and the SHA-256 of the outputs. The report gives,
per checkout and call, the median and range of the processes' medians and
the largest peak; with ``--against``, also whether every process gave the
same outputs. The processes inherit OPENBLAS_NUM_THREADS.

The DSBM has 32 blocks of 3125 vertices (p_in = 0.004, q = 1e-4, seed 7).

- ``ingest``: ``read_matrix_market`` and ``read_edge_list`` on its Matrix
  Market file and TSV edge list, and on copies of both with a blank line
  appended and with a comment line halfway; ``add_self_loops(g, 1.0)``.
- ``cluster``: ``tosca cluster g.mtx -k 32 --self-loops 1 -o labels.csv
  --json`` on it, REPEATS fresh processes whose ``ru_maxrss`` is the peak.
  The outputs are ``labels.csv`` and the JSON without ``wall_time_s``.
- ``galerkin``: on 800 blocks of 125 vertices, each vertex with 20
  out-edges into its block and 2 anywhere (seed 0), ``indicator_basis``
  on the blocks and on 3125 sets of 32, and ``project(forward_backward(S,
  uniform), basis)`` with ``reduced_eigenfunctions(red, 8)`` on the blocks.
- ``walks``: ``sample_pairs(S, uniform, 500_000, 3)`` and
  ``sample_trajectory(S, uniform, 200_000, 3)`` on it with unit self-loops
  (rows of equal probabilities), on a copy with weights drawn from
  [0.5, 1.5) (seed 8) and on that copy with every hundredth vertex's row
  left at unit weights.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
SAMPLERS = {"sample_pairs": 500_000, "sample_trajectory": 200_000}
VARIANTS = ("", "_trailing_blank", "_mid_comment")
CLUSTER = ["-m", "tosca.cli", "cluster", "g.mtx", "-k", "32", "--self-loops", "1",
           "-o", "labels.csv", "--json"]


def measure(fn, *args, process: bool = False) -> tuple[dict, object]:
    """Times and peak of fn(*args), and what its last call returned.

    The median and range of REPEATS untraced calls, and the tracemalloc
    peak of one more. With ``process``, fn runs a process and returns
    (its peak RSS in MiB, its output), and the peak is the largest of the
    REPEATS calls' instead.
    """
    times, peaks = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - start)
        if process:
            peak, result = result
            peaks.append(peak)
    if not process:
        tracemalloc.start()
        try:
            result = fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    stats = {"median_s": statistics.median(times), "min_s": min(times), "max_s": max(times)}
    return stats | {"peak_mib": max(peaks)}, result


def digest(*chunks: bytes) -> str:
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def dsbm(blocks: int, n_b: int):
    """The DSBM of ``blocks`` blocks of n_b vertices, p_in = 12.5 / n_b, q = 10 / n, seed 7.

    At 32 blocks of 3125 vertices p_in is 0.004 and q is 1e-4 to the bit.
    """
    import tosca

    probs = np.full((blocks, blocks), 10 / (blocks * n_b))
    np.fill_diagonal(probs, 12.5 / n_b)
    return tosca.dsbm_sample(tosca.DSBMParams(r_b=blocks, n_b=n_b, e=probs, seed=7))


def build_ingest(folder: Path, blocks: int = 32, n_b: int = 3125) -> dict:
    """g.mtx and g.tsv, each also with a trailing blank line and with a comment line halfway."""
    import tosca

    g = dsbm(blocks, n_b)
    for suffix, write, mark in (("mtx", tosca.write_matrix_market, "%"), ("tsv", tosca.write_edge_list, "#")):
        path, blank = folder / f"g.{suffix}", folder / f"g_trailing_blank.{suffix}"
        write(g, path)
        shutil.copyfile(path, blank)
        with open(blank, "a") as fh:
            fh.write("\n")
        with open(path) as src, open(folder / f"g_mid_comment.{suffix}", "w") as dst:
            half = sum(1 for _ in src) // 2
            src.seek(0)
            dst.writelines(islice(src, half))
            dst.write(f"{mark} c\n")
            dst.writelines(src)
    return {"n": g.n, "entries": g.num_edges}


def build_galerkin(folder: Path, blocks: int = 800, n_b: int = 125) -> dict:
    """20 out-edges per vertex into its own block of n_b, 2 anywhere, repeats summed."""
    import tosca

    n = n_b * blocks
    rng = np.random.default_rng(0)
    src = np.repeat(np.arange(n), 22).reshape(n, 22)
    dst = src // n_b * n_b + rng.integers(0, n_b, (n, 22))
    dst[:, 20:] = rng.integers(0, n, (n, 2))
    g = tosca.from_edge_list(n, np.column_stack([src.ravel(), dst.ravel(), np.ones(src.size)]))
    np.savez(folder / "galerkin.npz", n=n, n_b=n_b, src=g.src, dst=g.dst, weight=g.weight)
    return {"n": n, "entries": g.num_edges}


def build_walks(folder: Path, blocks: int = 32, n_b: int = 3125) -> dict:
    """The DSBM with unit self-loops and its two weighted copies, and their rows of equal weights."""
    import tosca

    g = tosca.add_self_loops(dsbm(blocks, n_b), 1.0)
    weight = np.random.default_rng(8).uniform(0.5, 1.5, g.num_edges)
    weights = {
        "unweighted": g.weight,
        "weighted": weight,
        "mostly_weighted": np.where(g.src % 100 == 0, g.weight, weight),
    }
    np.savez(folder / "dsbm.npz", n=g.n, src=g.src, dst=g.dst, **weights)
    starts = np.searchsorted(g.src, np.arange(g.n))
    even = {name: int((np.minimum.reduceat(w, starts) == np.maximum.reduceat(w, starts)).sum())
            for name, w in weights.items()}
    return {"n": g.n, "entries": g.num_edges, "even_rows": even, "m": SAMPLERS}


def ingest(folder: Path) -> dict:
    import tosca

    calls, outputs = {}, {}
    for variant in VARIANTS:
        for read, suffix in ((tosca.read_matrix_market, "mtx"), (tosca.read_edge_list, "tsv")):
            name = read.__name__ + variant
            calls[name], g = measure(read, folder / f"g{variant}.{suffix}")
            outputs[name] = digest(g.src.tobytes(), g.dst.tobytes(), g.weight.tobytes())
    g = tosca.read_matrix_market(folder / "g.mtx")
    calls["add_self_loops"], g = measure(tosca.add_self_loops, g, 1.0)
    outputs["add_self_loops"] = digest(g.src.tobytes(), g.dst.tobytes(), g.weight.tobytes())
    return {"calls": calls, "outputs": outputs}


def run_cli(folder: Path) -> tuple[float, bytes]:
    """(peak RSS in MiB, stdout) of one ``tosca cluster`` process in ``folder``."""
    with subprocess.Popen([sys.executable, *CLUSTER], cwd=folder, stdout=subprocess.PIPE) as proc:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"tosca {' '.join(CLUSTER[3:])} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024, stdout  # ru_maxrss is in KiB on Linux


def cluster(folder: Path) -> dict:
    stats, stdout = measure(run_cli, folder, process=True)
    answer = json.loads(stdout)
    del answer["wall_time_s"]
    return {"calls": {"tosca cluster": stats}, "outputs": {
        "labels.csv": digest((folder / "labels.csv").read_bytes()),
        "json": digest(json.dumps(answer, sort_keys=True).encode()),
    }}


def galerkin(folder: Path) -> dict:
    import tosca

    def project_and_lift(s, basis):
        red = tosca.project(tosca.forward_backward(s, tosca.uniform_density(s.n)), basis)
        return tosca.reduced_eigenfunctions(red, 8)

    arrays = np.load(folder / "galerkin.npz")
    n = int(arrays["n"])
    s = tosca.transition_matrix(tosca.Graph(n, arrays["src"], arrays["dst"], arrays["weight"]))
    blocks, small = np.arange(n).reshape(-1, int(arrays["n_b"])), np.arange(n).reshape(-1, 32)
    basis = tosca.indicator_basis(n, blocks)
    project_and_lift(s, basis)  # load the solver modules before timing
    calls, outputs = {}, {}
    for sets in (blocks, small):
        name = f"indicator_basis_r{len(sets)}"
        calls[name], result = measure(tosca.indicator_basis, n, sets)
        outputs[name] = digest(result.classes.tobytes())
    name = f"project_and_lift_r{len(blocks)}"
    calls[name], (vals, funcs) = measure(project_and_lift, s, basis)
    outputs[name] = digest(vals.tobytes(), funcs.tobytes())
    return {"calls": calls, "outputs": outputs}


def walks(folder: Path) -> dict:
    import tosca

    arrays = np.load(folder / "dsbm.npz")
    n = int(arrays["n"])
    mu = tosca.uniform_density(n)
    calls, outputs = {}, {}
    for weights in ("unweighted", "weighted", "mostly_weighted"):
        s = tosca.transition_matrix(tosca.Graph(n, arrays["src"], arrays["dst"], arrays[weights]))
        tosca.sample_pairs(s, mu, 1, 0)  # builds the cumulative rows
        for sampler, m in SAMPLERS.items():
            name = f"{weights}/{sampler}"
            calls[name], sample = measure(getattr(tosca, sampler), s, mu, m, 3)
            outputs[name] = digest(sample.xs.tobytes(), sample.ys.tobytes())
    return {"calls": calls, "outputs": outputs}


STAGES = {
    "ingest": (build_ingest, ingest),
    "cluster": (build_ingest, cluster),  # reads g.mtx
    "galerkin": (build_galerkin, galerkin),
    "walks": (build_walks, walks),
}


def run_child(checkout: Path, stage: str, folder: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, str(Path(__file__).resolve()), stage, "--child", str(folder)]
    return json.loads(subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=True).stdout)


def summary(runs: list[dict]) -> dict:
    """Per call, the median and range of the processes' medians and the largest peak."""
    calls = {}
    for call in runs[0]["calls"]:
        medians = [run["calls"][call]["median_s"] for run in runs]
        calls[call] = {
            "median_s": round(statistics.median(medians), 4),
            "min_s": round(min(medians), 4),
            "max_s": round(max(medians), 4),
            "peak_mib": round(max(run["calls"][call]["peak_mib"] for run in runs), 1),
        }
    return {"calls": calls, "outputs": runs[-1]["outputs"]}


def machine() -> dict:
    import scipy

    with open("/proc/meminfo") as fh:
        mem = next(line.split()[1] for line in fh if line.startswith("MemTotal:"))
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "mem_total_kib": int(mem),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("--against", type=Path, default=None, help="another checkout to alternate with")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--workdir", type=Path, default=None)
    parser.add_argument("--child", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    build, child = STAGES[args.stage]
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return
    sys.path.insert(0, str(ROOT / "src"))  # build the inputs with this checkout's tosca
    sides = {"this": ROOT} | ({"against": args.against.resolve()} if args.against else {})
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory(dir=args.workdir) as folder:
        inputs = build(Path(folder))
        for round_ in range(args.rounds):
            for side in list(sides) if round_ % 2 == 0 else list(sides)[::-1]:
                runs[side].append(run_child(sides[side], args.stage, Path(folder)))
    report = {"stage": args.stage, **inputs, **machine(), "rounds": args.rounds, "repeats": REPEATS}
    report |= {side: summary(side_runs) for side, side_runs in runs.items()}
    if args.against:
        outputs = [run["outputs"] for side_runs in runs.values() for run in side_runs]
        report["same_outputs"] = all(out == outputs[0] for out in outputs)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
