"""``scripts/scale.py`` at a tiny size: every stage's inputs, child and report.

Each stage's inputs are built at a few hundred vertices and its child
runs in process with one timed call per measurement; the ``cluster``
child runs the CLI in fresh processes. Two child runs on the same inputs
must give the same output digests, and the summary and ``--against``
comparison must read them.
"""

import importlib.util
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SIZES = {"ingest": (4, 25), "cluster": (32, 25), "galerkin": (16, 4), "walks": (4, 25)}


@pytest.fixture(scope="module")
def scale():
    spec = importlib.util.spec_from_file_location("scale", ROOT / "scripts" / "scale.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("stage", sorted(SIZES))
def test_stage_child_reports_every_call_and_repeats_its_outputs(scale, stage, tmp_path, monkeypatch):
    monkeypatch.setattr(scale, "REPEATS", 1)
    monkeypatch.setattr(scale, "SAMPLERS", {"sample_pairs": 500, "sample_trajectory": 200})
    # The CLI runs in the work folder, so it needs this checkout's src by an absolute path.
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src") + os.pathsep + os.environ.get("PYTHONPATH", ""))
    build, child = scale.STAGES[stage]
    blocks, n_b = SIZES[stage]
    inputs = build(tmp_path, blocks, n_b)
    assert inputs["n"] == blocks * n_b and inputs["entries"] > 0
    runs = [child(tmp_path), child(tmp_path)]
    expected = {
        "ingest": {read + variant for read in ("read_matrix_market", "read_edge_list")
                   for variant in scale.VARIANTS} | {"add_self_loops"},
        "cluster": {"tosca cluster"},
        "galerkin": {"indicator_basis_r16", "indicator_basis_r2", "project_and_lift_r16"},
        "walks": {f"{w}/{s}" for w in ("unweighted", "weighted", "mostly_weighted")
                  for s in ("sample_pairs", "sample_trajectory")},
    }[stage]
    for run in runs:
        assert set(run["calls"]) == expected
        for stats in run["calls"].values():
            assert set(stats) == {"median_s", "min_s", "max_s", "peak_mib"}
            assert 0 <= stats["min_s"] <= stats["median_s"] <= stats["max_s"] and stats["peak_mib"] > 0
        assert set(run["outputs"]) == ({"labels.csv", "json"} if stage == "cluster" else expected)
    assert runs[0]["outputs"] == runs[1]["outputs"]
    if stage == "ingest":  # every file holds the one graph
        assert len(set(runs[0]["outputs"].values()) - {runs[0]["outputs"]["add_self_loops"]}) == 1
    report = scale.summary(runs)
    assert set(report["calls"]) == expected and report["outputs"] == runs[1]["outputs"]


def test_walks_inputs_count_rows_of_equal_weights(scale, tmp_path):
    inputs = scale.build_walks(tmp_path, 4, 25)
    even = inputs["even_rows"]
    assert 0 <= even["weighted"] <= even["mostly_weighted"] <= even["unweighted"] <= inputs["n"]


def test_machine_record(scale, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    record = scale.machine()
    assert record["OPENBLAS_NUM_THREADS"] == "1" and record["cpus"] >= 1 and record["mem_total_kib"] > 0
    assert {"numpy", "scipy", "python"} <= set(record)
