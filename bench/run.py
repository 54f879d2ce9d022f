"""tosca benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

One client runs ops back to back for S seconds, and at least one op per
input variant of the workload (with --trace 1: at least one untraced and
one traced op). With --trace 0 the last stdout line is a JSON
object whose metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced ops and reports the
per-layer metrics. --smoke runs every workload at a tiny size, untraced
and traced, and checks that every metric of BENCHMARK.json is printed
with its unit. Details of each run, spans included, go to .bench_out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads are pinned before numpy loads; child processes inherit this.
# One thread: on a 2-vCPU machine two BLAS threads made the dense ops swing
# by a third from op to op; see bench/NOTES.md.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
    "ari.min": "1",
    "est_err.max": "1",
}

# Per-layer metrics: span self times (median seconds per traced op), then
# counters and quality figures recorded at the same boundaries.
SPAN_METRICS = [
    "generators.dsbm_sample",
    "graph.write_matrix_market",
    "graph.read_matrix_market",
    "graph.from_edge_list",
    "graph.add_self_loops",
    "graph.transition_matrix",
    "spectral.fb_spectrum",
    "clustering.kmeans",
    "clustering.cluster_graph",
    "clustering.coherence_score",
    "operators.forward_backward",
    "baselines.symmetrize",
    "baselines.ddbs_cluster",
    "baselines.herm_cluster",
    "datadriven.sample_pairs",
    "datadriven.sample_trajectory",
    "datadriven.empirical_grams",
    "datadriven.estimated_operators",
    "galerkin.indicator_basis",
]
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.self_s": "s",
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "graph.edges": "count",
    "spectral.residual_max": "1",
    "clustering.kmeans_inertia": "1",
    "baselines.ddbs_ari": "1",
    "baselines.herm_ari": "1",
    "datadriven.steps_per_s": "1/s",
    "trace.overhead_frac": "1",
}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/meminfo") as fh:
        mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    return {
        "nproc": NPROC,
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, seed: int, seconds: float, traced: bool, scale: str, workdir: Path) -> dict:
    """Set up, run the closed loop, gate every op; return the raw record."""
    from spans import Recorder

    env = dict(os.environ, PYTHONPATH=str(SRC))
    # One set-up is what a fresh process pays before its first op: start an
    # interpreter that imports everything, then build inputs and references.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import workloads"], check=True, cwd=BENCH,
                       env=dict(env, PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}"))
        state = wl.setup(seed, workdir, scale, env)
        setup_times.append(time.perf_counter() - start)

    recorder = Recorder() if traced else None
    ops = []
    deadline = time.perf_counter() + seconds
    min_ops = 2 if traced else wl.variants
    while True:
        index = len(ops)
        # A traced run alternates untraced and traced ops on the same variant.
        tracing = traced and index % 2 == 1
        variant = (index // 2 if traced else index) % wl.variants
        record = {"index": index, "variant": variant, "traced": tracing, "errors": []}
        check_before = recorder.check_s if recorder else 0.0
        if tracing:
            recorder.op_id = index
            if wl.in_process:
                recorder.install()
        start = time.perf_counter()
        try:
            try:
                result = wl.op(state, variant, recorder if tracing else None)
            finally:
                wall = time.perf_counter() - start
                if tracing and wl.in_process:
                    recorder.uninstall()
            outcome = wl.check(state, result)
            record.update(errors=outcome.errors, ari=outcome.ari, est_err=outcome.est_err,
                          facts=outcome.facts)
        except Exception:  # an op or check that raises is a failed op, not a crash
            record["errors"].append(traceback.format_exc(limit=3))
        if tracing:
            # Checks that run inside traced calls are not op time.
            wall -= recorder.check_s - check_before
        record["wall_s"] = wall
        if tracing:
            record["errors"] += list(dict.fromkeys(recorder.errors))
            recorder.errors.clear()
        ops.append(record)
        if time.perf_counter() >= deadline and len(ops) >= min_ops:
            break
    return {
        "setup_times_s": setup_times,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(wl.in_process),
        "ops": ops,
        "recorder": recorder,
    }


def end_to_end_metrics(raw: dict) -> dict:
    ops = raw["ops"]
    # An op that raised has no quality figures; it already fails the run,
    # and the worst possible values stand in for it.
    values = {
        "setup_s": raw["setup_s"],
        "op_s.p50": statistics.median(op["wall_s"] for op in ops),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ari.min": min(op.get("ari", 0.0) for op in ops),
        "est_err.max": max(op.get("est_err", 1.0) for op in ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(raw: dict) -> dict:
    from spans import CHECK, self_times

    recorder = raw["recorder"]
    traced = [op["index"] for op in raw["ops"] if op["traced"]]
    plain = [op["wall_s"] for op in raw["ops"] if not op["traced"]]

    by_name: dict[str, dict[int, float]] = defaultdict(dict)
    for (op, name), value in self_times(recorder.spans).items():
        if name != CHECK:
            by_name[name][op] = value
    facts: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
    for name, op, value in recorder.facts:
        facts[name][op].append(value)
    main_s: dict[int, float] = defaultdict(float)
    for name, start, end, _, op in recorder.spans:
        if name == "cli.main":
            main_s[op] += end - start

    def median_over_ops(per_op) -> float:
        return statistics.median(per_op(op) for op in traced)

    def span_s(name: str) -> float:
        return median_over_ops(lambda op: by_name[name].get(op, 0.0))

    def steps_per_s(op: int) -> float:
        busy = sum(by_name[f"datadriven.{fn}"].get(op, 0.0)
                   for fn in ("sample_pairs", "sample_trajectory"))
        return sum(facts["datadriven.steps"][op]) / busy if busy else 0.0

    def op_fact(name: str) -> float:
        found = [op["facts"][name] for op in raw["ops"]
                 if op["traced"] and name in op.get("facts", {})]
        return statistics.median(found) if found else 0.0

    values = {
        "cli.startup_s": median_over_ops(
            lambda op: sum(facts["cli.wall"][op]) - main_s[op]),
        "cli.self_s": span_s("cli.main"),
        **{f"{name}_s": span_s(name) for name in SPAN_METRICS},
        "graph.edges": max((max(v) for v in facts["graph.edges"].values()), default=0.0),
        "spectral.residual_max": max(
            (max(v) for v in facts["spectral.residual"].values()), default=0.0),
        "clustering.kmeans_inertia": median_over_ops(
            lambda op: (facts["clustering.kmeans_inertia"][op] or [0.0])[0]),
        "baselines.ddbs_ari": op_fact("baselines.ddbs_ari"),
        "baselines.herm_ari": op_fact("baselines.herm_ari"),
        "datadriven.steps_per_s": median_over_ops(steps_per_s),
        "trace.overhead_frac": statistics.median(
            op["wall_s"] for op in raw["ops"] if op["traced"]) / statistics.median(plain) - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run(wl, seed: int, seconds: float, traced: bool, scale: str) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detailed record)."""
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root))
    try:
        raw = measure(wl, seed, seconds, traced, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer_metrics(raw) if traced else end_to_end_metrics(raw)
    failed = sum(1 for op in raw["ops"] if op["errors"])
    result = {"correct": failed == 0, "attempted": len(raw["ops"]), "failed": failed,
              "metrics": metrics}
    recorder = raw.pop("recorder")
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "scale": scale,
              "sizes": dataclasses.asdict(wl.scales[scale]),
              "environment": environment(), **raw, "result": result}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(traced)}-{scale}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if recorder is not None:
        recorder.dump(out_dir / f"{stem}-spans.json")
    return result, detail


def report(result: dict, detail: dict) -> None:
    """Human-readable lines; the caller prints the result line last."""
    print(f"# workload {detail['workload']} seed={detail['seed']} "
          f"trace={detail['trace']} sizes={json.dumps(detail['sizes'])}")
    print(f"# environment {json.dumps(detail['environment'])}")
    walls = [round(op["wall_s"], 3) for op in detail["ops"]]
    print(f"# ops={len(walls)} wall_s={walls} setup_times_s="
          f"{[round(t, 3) for t in detail['setup_times_s']]}")
    for op in detail["ops"]:
        for error in op["errors"]:
            print(f"# op {op['index']} FAILED: {error.strip()}")
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")


def smoke(workloads: dict) -> int:
    """Run every workload at its tiny size, untraced and traced, with the fewest
    ops a run allows; check that the metrics match BENCHMARK.json by name and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads):
        problems.append("BENCHMARK.json workloads differ from the harness")
    for wl in workloads.values():
        for traced in (0, 1):
            result, detail = run(wl, 0, 0.0, bool(traced), "smoke")
            report(result, detail)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[traced]:
                problems.append(f"{wl.name} trace={traced}: metrics {got} != {expected[traced]}")
            if not result["correct"]:
                problems.append(f"{wl.name} trace={traced}: {result['failed']} failed op(s)")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tosca" / "__init__.py").is_file():
        print(f"bench: no tosca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    import tosca

    if not Path(tosca.__file__).resolve().is_relative_to(SRC):
        print(f"bench: imported tosca from {tosca.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, detail = run(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), "full")
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
