import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tosca
from tosca.cli import main

from conftest import three_cycles_graph, two_triangles_graph


@pytest.fixture
def cycles_tsv(tmp_path):
    path = tmp_path / "cycles.tsv"
    tosca.write_edge_list(three_cycles_graph(self_loops=0.0), path)
    return str(path)


@pytest.fixture
def probs_csv(tmp_path):
    path = tmp_path / "probs.csv"
    path.write_text("0.1,0.8\n0.8,0.1\n")
    return str(path)


class TestGenerate:
    def test_writes_edge_list(self, tmp_path, probs_csv, capsys):
        out = tmp_path / "g.tsv"
        code = main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "10",
            "--probs", probs_csv, "--seed", "3", "-o", str(out),
        ])
        assert code == 0
        g = tosca.read_edge_list(out)
        assert g.n == 20
        assert "# seed=3" in out.read_text().splitlines()[1]

    def test_mtx_output(self, tmp_path, probs_csv):
        out = tmp_path / "g.mtx"
        assert main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "5",
            "--probs", probs_csv, "--mtx", "-o", str(out),
        ]) == 0
        assert out.read_text().startswith("%%MatrixMarket")
        tosca.read_matrix_market(out)

    def test_all_zero_probs(self, tmp_path, capsys):
        probs = tmp_path / "z.csv"
        probs.write_text("0.0,0.0\n0.0,0.0\n")
        out = tmp_path / "g.tsv"
        assert main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "4",
            "--probs", str(probs), "-o", str(out),
        ]) == 0
        assert tosca.read_edge_list(out).num_edges == 0

    def test_missing_probs_file(self, tmp_path, capsys):
        code = main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "4",
            "--probs", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "g.tsv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("text,line", [("0.5,0.5\n0.5,x\n", 2), ("0.5,0.5\n0.5\n", 2)])
    def test_malformed_probs_data_error(self, tmp_path, capsys, text, line):
        probs = tmp_path / "bad.csv"
        probs.write_text(text)
        code = main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "4",
            "--probs", str(probs), "-o", str(tmp_path / "g.tsv"),
        ])
        assert code == 3
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--blocks", "--block-size"])
    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_bad_size_is_usage_error(self, tmp_path, probs_csv, capsys, flag, value):
        out = tmp_path / "g.tsv"
        args = {"--blocks": "2", "--block-size": "4"}
        args[flag] = value
        with pytest.raises(SystemExit) as exc:
            main([
                "generate", "dsbm", "--blocks", args["--blocks"],
                "--block-size", args["--block-size"], "--probs", probs_csv, "-o", str(out),
            ])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_probability_data_error(self, tmp_path, capsys, entry):
        probs = tmp_path / "p.csv"
        probs.write_text(f"0.3,{entry}\n0.1,0.3\n")
        out = tmp_path / "g.tsv"
        code = main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "4",
            "--probs", str(probs), "-o", str(out),
        ])
        assert code == 3
        assert "block probabilities must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("probs", ["0.0,0.0\n0.0,0.0\n", "0.1,0.8\n0.8,0.1\n"])
    def test_bad_weight_data_error(self, tmp_path, capsys, weight, probs):
        path = tmp_path / "p.csv"
        path.write_text(probs)
        out = tmp_path / "g.tsv"
        code = main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "4", "--probs", str(path),
            f"--weight={weight}", "-o", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"edge weight must be positive and finite, got {float(weight)}" in err
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path, probs_csv):
        out_a, out_b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["generate", "dsbm", "--blocks", "2", "--block-size", "10",
                "--probs", probs_csv, "--seed", "1"]
        main(args + ["-o", str(out_a)])
        main(args + ["-o", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_four_block_benchmark_size(self, tmp_path):
        probs = tmp_path / "e4.csv"
        probs.write_text(
            "0.1,0.8,0.1,0.1\n0.1,0.1,0.1,0.8\n0.1,0.1,0.8,0.1\n0.8,0.1,0.1,0.1\n"
        )
        out = tmp_path / "g.tsv"
        assert main([
            "generate", "dsbm", "--blocks", "4", "--block-size", "100",
            "--probs", str(probs), "-o", str(out),
        ]) == 0
        assert tosca.read_edge_list(out).n == 400


class TestCluster:
    def test_three_cycles(self, tmp_path, cycles_tsv, capsys):
        out = tmp_path / "labels.csv"
        code = main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0",
            "--seed", "0", "-o", str(out), "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["k"] == 3
        assert len(summary["lambda"]) == 3
        assert "wall_time_s" in summary
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        labels = np.array([int(l.split(",")[1]) for l in lines[1:]])
        truth = np.repeat([0, 1, 2], 4)
        assert tosca.adjusted_rand_index(labels, truth) == 1.0

    @pytest.mark.parametrize(
        "flags", [["--use", "phi"], ["--use", "both"], ["--drop-first"], ["--use", "psi", "--drop-first"]]
    )
    def test_feature_flags_match_library(self, tmp_path, cycles_tsv, flags):
        out = tmp_path / "labels.csv"
        assert main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0", *flags, "-o", str(out),
        ]) == 0
        g = tosca.add_self_loops(tosca.read_edge_list(cycles_tsv), 1.0)
        use = flags[1] if flags[0] == "--use" else "phi"
        expected = tosca.cluster_graph(g, 3, use=use, drop_first="--drop-first" in flags)
        assert np.array_equal(tosca.galerkin.read_labels(out), expected.labels)

    def test_use_phi_is_the_default(self, tmp_path, cycles_tsv):
        outs = [tmp_path / "default.csv", tmp_path / "phi.csv", tmp_path / "mu.csv"]
        base = ["cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0"]
        assert main([*base, "-o", str(outs[0])]) == 0
        assert main([*base, "--use", "phi", "-o", str(outs[1])]) == 0
        assert main([*base, "--mu", "uniform", "-o", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()

    @pytest.mark.parametrize("method", ["ddbs", "herm"])
    @pytest.mark.parametrize(
        "flags", [["--use", "psi"], ["--use", "phi"], ["--drop-first"], ["--mu", "stationary"],
                  ["--mu", "uniform"]]
    )
    def test_fb_only_flags_are_usage_errors(self, tmp_path, cycles_tsv, capsys, method, flags):
        out = tmp_path / "l.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "cluster", cycles_tsv, "-k", "3", "--method", method, "--self-loops", "1.0",
                *flags, "-o", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tosca cluster ")
        assert f"tosca cluster: error: --method {method} does not take {flags[0]}" in err
        assert not out.exists()

    def test_fb_only_flags_named_together(self, tmp_path, cycles_tsv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "cluster", cycles_tsv, "-k", "3", "--method", "ddbs", "--use", "psi",
                "--drop-first", "--mu", "stationary", "-o", str(tmp_path / "l.csv"),
            ])
        assert exc.value.code == 2
        assert "does not take --mu, --use, --drop-first" in capsys.readouterr().err

    @pytest.mark.parametrize("method", [[], ["--method", "fb"]])
    def test_restarts_is_a_usage_error_for_fb(self, tmp_path, cycles_tsv, capsys, method):
        # fb starts one Lloyd run from a pivoted QR and draws no restarts
        out = tmp_path / "l.csv"
        with pytest.raises(SystemExit) as exc:
            main(["cluster", cycles_tsv, "-k", "3", *method, "--restarts", "3", "-o", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tosca cluster ")
        assert "tosca cluster: error: --method fb does not take --restarts; only ddbs and herm do" in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ddbs", "herm"])
    def test_restarts_default_to_ten_for_the_baselines(self, tmp_path, cycles_tsv, method):
        outs = [tmp_path / "default.csv", tmp_path / "ten.csv", tmp_path / "one.csv"]
        base = ["cluster", cycles_tsv, "-k", "3", "--method", method, "--self-loops", "1.0"]
        assert main([*base, "-o", str(outs[0])]) == 0
        assert main([*base, "--restarts", "10", "-o", str(outs[1])]) == 0
        assert main([*base, "--restarts", "1", "-o", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        g = tosca.add_self_loops(tosca.read_edge_list(cycles_tsv), 1.0)
        cluster = {"ddbs": tosca.ddbs_cluster, "herm": tosca.herm_cluster}[method]
        expected = cluster(g, 3, tosca.KMeansConfig(restarts=1))
        assert np.array_equal(tosca.galerkin.read_labels(outs[2]), expected.labels)

    @pytest.mark.parametrize("restarts", ["0", "-1", "x"])
    def test_bad_restarts_usage_error(self, tmp_path, cycles_tsv, capsys, restarts):
        with pytest.raises(SystemExit) as exc:
            main([
                "cluster", cycles_tsv, "-k", "3", "--restarts", restarts,
                "-o", str(tmp_path / "l.csv"),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tosca cluster ")
        assert "argument --restarts" in err

    def test_k_too_large_usage_error(self, tmp_path, cycles_tsv, capsys):
        code = main([
            "cluster", cycles_tsv, "-k", "40", "--self-loops", "1.0",
            "-o", str(tmp_path / "l.csv"),
        ])
        assert code == 2

    def test_dangling_vertex_data_error(self, tmp_path, capsys):
        path = tmp_path / "dangling.tsv"
        tosca.write_edge_list(tosca.from_edge_list(2, [(0, 1, 1.0)]), path)
        code = main(["cluster", str(path), "-k", "2", "-o", str(tmp_path / "l.csv")])
        assert code == 3
        assert "self-loops" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_self_loops_data_error(self, tmp_path, cycles_tsv, capsys, weight):
        code = main([
            "cluster", cycles_tsv, "-k", "2", "--self-loops", weight, "-o", str(tmp_path / "l.csv"),
        ])
        assert code == 3
        assert "self-loop weight must be positive and finite" in capsys.readouterr().err

    def test_herm_on_symmetric_numerical_error(self, tmp_path, capsys):
        path = tmp_path / "sym.tsv"
        g = tosca.from_edge_list(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                                 directed=False)
        tosca.write_edge_list(g, path)
        code = main([
            "cluster", str(path), "-k", "2", "--method", "herm",
            "-o", str(tmp_path / "l.csv"),
        ])
        assert code == 4

    @pytest.mark.parametrize(
        "text",
        ["1\n2\n3\n1\n2\n3\n1\n2\n3\n1\n2\n3\n", "# masses\n1 2 3 1 2 3 1 2 3 1 2 3\n"],
    )
    def test_mu_file_one_column_or_one_row(self, tmp_path, cycles_tsv, capsys, text):
        mu = tmp_path / "mu.txt"
        mu.write_text(text)
        code = main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0", "--mu", str(mu),
            "-o", str(tmp_path / "l.csv"), "--json",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lambda"][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("text,line", [("abc\n", 1), ("# c\n0.5\n0.5 x\n", 3)])
    def test_malformed_mu_file_data_error(self, tmp_path, cycles_tsv, capsys, text, line):
        mu = tmp_path / "mu.txt"
        mu.write_text(text)
        code = main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0", "--mu", str(mu),
            "-o", str(tmp_path / "l.csv"),
        ])
        assert code == 3
        assert f"line {line}:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path, cycles_tsv):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0", "--seed", "7"]
        main(args + ["-o", str(out_a)])
        main(args + ["-o", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_ddbs_method(self, tmp_path, cycles_tsv):
        out = tmp_path / "l.csv"
        assert main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0",
            "--method", "ddbs", "-o", str(out),
        ]) == 0

    @pytest.mark.parametrize("method", ["ddbs", "herm"])
    def test_baseline_byte_identical_reruns(self, tmp_path, cycles_tsv, method):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0", "--seed", "7",
            "--method", method,
        ]
        assert main(args + ["-o", str(out_a)]) == 0
        assert main(args + ["-o", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSpectrum:
    def test_csv_and_gap(self, tmp_path, cycles_tsv, capsys):
        out = tmp_path / "spec.csv"
        code = main([
            "spectrum", cycles_tsv, "--num", "6", "--self-loops", "1.0",
            "-o", str(out), "--json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["suggested_k"] == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "l,kappa,lambda"
        first = lines[2].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(1.0, abs=1e-10)

    def test_csv_bytes(self, tmp_path, cycles_tsv, capsys):
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", cycles_tsv, "--num", "6", "--self-loops", "1.0",
            "--seed", "5", "-o", str(out), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert out.read_text() == "# seed=5\nl,kappa,lambda\n" + "".join(
            f"{i},{kappa:.17g},{lam:.17g}\n"
            for i, (kappa, lam) in enumerate(zip(summary["kappa"], summary["lambda"]), start=1)
        )

    def test_one_value_suggests_k_one(self, tmp_path, cycles_tsv, capsys):
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", cycles_tsv, "--num", "1", "--self-loops", "1.0", "-o", str(out), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["suggested_k"] == 1
        assert len(summary["lambda"]) == 1
        assert out.read_text().splitlines()[2].startswith("1,")

    def test_env_seed_fallback(self, tmp_path, cycles_tsv, monkeypatch):
        monkeypatch.setenv("TOSCA_SEED", "42")
        out = tmp_path / "spec.csv"
        main(["spectrum", cycles_tsv, "--num", "3", "--self-loops", "1.0", "-o", str(out)])
        assert out.read_text().splitlines()[0] == "# seed=42"


class TestEmbed:
    def test_constant_first_dim(self, tmp_path, cycles_tsv):
        out = tmp_path / "coords.csv"
        assert main([
            "embed", cycles_tsv, "--coords", "1", "--self-loops", "1.0",
            "-o", str(out),
        ]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()[2:]]
        values = np.array([float(r[1]) for r in rows])
        assert np.abs(values - values[0]).max() < 1e-8

    def test_two_dims(self, tmp_path, cycles_tsv):
        out = tmp_path / "coords.csv"
        main(["embed", cycles_tsv, "--coords", "2,3", "--self-loops", "1.0", "-o", str(out)])
        header = out.read_text().splitlines()[1]
        assert header == "vertex_index,phi_2,phi_3"

    def test_fresh_processes_write_the_same_bytes(self, tmp_path):
        # ARPACK restarts on this graph; its restart vectors must not come
        # from operating-system entropy
        graph = tmp_path / "g.tsv"
        tosca.write_edge_list(two_triangles_graph(self_loops=0.0), graph)
        outputs = []
        for name in ("a.csv", "b.csv"):
            argv = ["embed", str(graph), "--coords", "1,2,3", "--self-loops", "1", "-o", name]
            code = f"import sys; from tosca.cli import main; sys.exit(main({argv!r}))"
            proc = run_python(code, tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_bytes(self, tmp_path, cycles_tsv):
        out = tmp_path / "coords.csv"
        assert main([
            "embed", cycles_tsv, "--coords", "1,3", "--self-loops", "1.0",
            "--seed", "5", "-o", str(out),
        ]) == 0
        g = tosca.add_self_loops(tosca.read_edge_list(cycles_tsv), 1.0)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), tosca.uniform_density(g.n), 3)
        coords = tosca.embed_coordinates(spec, [1, 3]).tolist()
        assert out.read_text() == "# seed=5\nvertex_index,phi_1,phi_3\n" + "".join(
            f"{i},{a:.17g},{b:.17g}\n" for i, (a, b) in enumerate(coords)
        )

    @pytest.mark.parametrize(
        "n, coords, bad", [(3, "0", 0), (12, "99", 99), (12, "2,0", 0), (12, "13,99", 13)]
    )
    def test_bad_dim_usage_error(self, tmp_path, capsys, n, coords, bad):
        # the index the user gave is named, against the n eigenfunctions
        # the graph has, before any spectrum is solved
        graph = tmp_path / "g.tsv"
        edges = [(i, (i + 1) % 3, 1.0) for i in range(3)]
        tosca.write_edge_list(
            three_cycles_graph(self_loops=0.0) if n == 12 else tosca.from_edge_list(3, edges),
            graph,
        )
        assert main([
            "embed", str(graph), "--coords", coords, "--self-loops", "1.0",
            "-o", str(tmp_path / "c.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"tosca embed: error: eigenfunction index {bad} outside [1, {n}]\n"


class TestEstimate:
    def test_estimate_from_graph(self, tmp_path, cycles_tsv, capsys):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition(
            [range(0, 4), range(4, 8), range(8, 12)], partition
        )
        out = tmp_path / "est.json"
        code = main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "20000",
            "--basis", str(partition), "--seed", "0", "-o", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 20000
        assert len(payload["eigenvalues"]) == 3
        assert np.asarray(payload["f_r"]).shape == (3, 3)
        # estimated eigenvalues land near the exact projected ones
        g = tosca.add_self_loops(three_cycles_graph(self_loops=0.0), 1.0)
        op = tosca.forward_backward(
            tosca.transition_matrix(g), tosca.uniform_density(12)
        )
        basis = tosca.indicator_basis(12, [range(0, 4), range(4, 8), range(8, 12)])
        oracle, _ = tosca.reduced_eigenfunctions(tosca.project(op, basis), 3)
        assert np.abs(np.asarray(payload["eigenvalues"]) - oracle).max() < 0.05

    @pytest.mark.parametrize("walkers", ["-5", "x"])
    def test_bad_walkers_usage_error(self, tmp_path, cycles_tsv, capsys, walkers):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 12)], partition)
        with pytest.raises(SystemExit) as exc:
            main([
                "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", walkers,
                "--basis", str(partition), "-o", str(tmp_path / "est.json"),
            ])
        assert exc.value.code == 2
        assert "argument --walkers" in capsys.readouterr().err

    def test_zero_walkers_data_error(self, tmp_path, cycles_tsv, capsys):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 12)], partition)
        assert main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "0",
            "--basis", str(partition), "-o", str(tmp_path / "est.json"),
        ]) == 3
        assert "cannot estimate from an empty sample" in capsys.readouterr().err

    def test_estimate_from_walks_csv(self, tmp_path, cycles_tsv):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 6), range(6, 12)], partition)
        walks = tmp_path / "walks.csv"
        g = tosca.read_edge_list(cycles_tsv)
        g = tosca.add_self_loops(g, 1.0)
        sample = tosca.sample_pairs(
            tosca.transition_matrix(g), tosca.uniform_density(12), 5000, seed=1
        )
        tosca.write_walks(sample, walks)
        out = tmp_path / "est.json"
        assert main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 5000
        assert payload["seed"] == 1

    def test_unknown_walk_mode_data_error(self, tmp_path, capsys):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 2), range(2, 4)], partition)
        walks = tmp_path / "bad.csv"
        walks.write_text("# mode=trajectory seed=0\nx,y\n0,1\n1,2\n")
        code = main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_output_bytes_pinned(self, tmp_path, cycles_tsv):
        # Digests of the outputs when the Grams were counted per vertex;
        # counting per basis class gives the same bytes. Vertex 11 is in no set.
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 4), range(4, 8), range(8, 11)], partition)
        out = tmp_path / "out"
        out.mkdir()
        graph = [cycles_tsv, "--self-loops", "1.0", "--walkers", "20000"]
        runs = {
            "pairs": [*graph, "--seed", "3", "--save-walks", str(out / "pairs.csv")],
            "trajectory": [*graph, "--mode", "trajectory", "--seed", "4",
                           "--save-walks", str(out / "trajectory.csv")],
            "walks": ["--walks", str(out / "trajectory.csv"), "--ridge", "1e-3"],
        }
        for name, args in runs.items():
            argv = ["estimate", *args, "--basis", str(partition), "-o", str(out / f"{name}.json")]
            assert main(argv) == 0
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
        }
        assert digests == {
            "pairs.csv": "1a00d4f475b6119d5ce8630429f6ede19906a4511207c049c81002dc1161a804",
            "pairs.json": "1ea87704974954c964a973fa5dcb727391d66f151020a747d5be47daac2a45c9",
            "trajectory.csv": "56a6f5cff4254d335904c496c93f8e73148ebcf3acdd5977a5d0612af0bfdedb",
            "trajectory.json": "3eb306780a31483d6108fab00a0a4edec2b4c86c157d80c4e4d39614da0ff9ce",
            "walks.json": "1affe0f0e586869889997b5766030993fc1ed85ec9f7dcb63d09422297c196b1",
        }

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    def test_bad_ridge_usage_error(self, tmp_path, cycles_tsv, capsys, ridge):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 6), range(6, 12)], partition)
        assert main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "100",
            "--basis", str(partition), "--ridge", ridge, "-o", str(tmp_path / "est.json"),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"tosca estimate: error: ridge must be a finite number >= 0, got {float(ridge)}\n"

    def test_negative_walk_vertex_data_error(self, tmp_path, capsys):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 2), range(2, 4)], partition)
        walks = tmp_path / "bad.csv"
        walks.write_text("# mode=independent_pairs seed=0\nx,y\n0,1\n-1,2\n")
        code = main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 4:" in capsys.readouterr().err

    def test_header_only_partition_data_error(self, tmp_path, cycles_tsv, capsys):
        partition = tmp_path / "part.csv"
        partition.write_text("vertex_index,set_index\n")
        code = main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "100",
            "--basis", str(partition), "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 1: no partition rows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row,message", [("-1,1", "negative vertex -1"), ("12,1", "vertex 12 outside [0, 12)")]
    )
    def test_partition_vertex_outside_graph_data_error(
        self, tmp_path, cycles_tsv, capsys, row, message
    ):
        partition = tmp_path / "part.csv"
        partition.write_text(f"vertex_index,set_index\n0,0\n{row}\n")
        code = main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "100",
            "--basis", str(partition), "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert f"line 3: {message}" in capsys.readouterr().err

    def test_partition_repeated_vertex_data_error(self, tmp_path, cycles_tsv, capsys):
        partition = tmp_path / "part.csv"
        partition.write_text("vertex_index,set_index\n0,0\n1,0\n# c\n1,1\n")
        code = main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "100",
            "--basis", str(partition), "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 5: vertex 1 appears in two sets" in capsys.readouterr().err
        assert not (tmp_path / "est.json").exists()

    def test_walks_partition_negative_vertex_data_error(self, tmp_path, capsys):
        walks = tmp_path / "walks.csv"
        walks.write_text("# mode=independent_pairs seed=0\nx,y\n0,1\n1,0\n")
        partition = tmp_path / "part.csv"
        partition.write_text("vertex_index,set_index\n0,0\n-1,1\n")
        code = main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 3: negative vertex -1" in capsys.readouterr().err

    def test_saved_walks_record_vertex_count(self, tmp_path, cycles_tsv):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 6), range(6, 12)], partition)
        walks = tmp_path / "walks.csv"
        assert main([
            "estimate", cycles_tsv, "--self-loops", "1.0", "--walkers", "50",
            "--basis", str(partition), "--save-walks", str(walks), "-o", str(tmp_path / "e.json"),
        ]) == 0
        assert walks.read_text().startswith("# mode=independent_pairs seed=0 n=12\n")

    def test_walks_vertex_count_bounds_the_partition(self, tmp_path, capsys):
        # with n in the header, a set no walk can reach is a data error
        walks = tmp_path / "walks.csv"
        walks.write_text("# mode=independent_pairs seed=0 n=4\nx,y\n0,1\n1,0\n0,0\n")
        partition = tmp_path / "part.csv"
        tosca.galerkin.write_partition([[0], [1, 5]], partition)
        code = main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(tmp_path / "est.json"),
        ])
        assert code == 3
        assert "line 4: vertex 5 outside [0, 4)" in capsys.readouterr().err

    def test_walks_partition_widens_vertex_count(self, tmp_path):
        # walks fix no vertex count, so a partition may name unvisited vertices
        walks = tmp_path / "walks.csv"
        walks.write_text("# mode=independent_pairs seed=0\nx,y\n0,1\n1,0\n0,0\n")
        partition = tmp_path / "part.csv"
        tosca.galerkin.write_partition([[0], [1, 5]], partition)
        out = tmp_path / "est.json"
        assert main([
            "estimate", "--walks", str(walks), "--basis", str(partition), "-o", str(out),
        ]) == 0
        assert json.loads(out.read_text())["r"] == 2

    def test_graph_or_walks_required(self, tmp_path, capsys):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([[0]], partition)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--basis", str(partition), "-o", str(tmp_path / "e.json")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tosca estimate ")
        assert "tosca estimate: error: a graph or --walks is required" in err

    @pytest.mark.parametrize(
        "given, named",
        [
            (["--mu", "stationary"], "--mu"),
            (["--mode", "trajectory"], "--mode"),
            (["--mode", "pairs"], "--mode"),
            (["--walkers", "5"], "--walkers"),
            (["--walkers", "10000"], "--walkers"),
            (["--self-loops", "3"], "--self-loops"),
            (["{graph}"], "a graph"),
            (
                ["--mu", "stationary", "--mode", "trajectory", "--walkers", "5",
                 "--self-loops", "3"],
                "--self-loops, --mu, --mode, --walkers",
            ),
        ],
    )
    def test_walks_take_no_sampling_input(self, tmp_path, cycles_tsv, capsys, given, named):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 6), range(6, 12)], partition)
        walks = tmp_path / "walks.csv"
        walks.write_text("# mode=independent_pairs seed=0 n=12\nx,y\n0,1\n1,0\n")
        out = tmp_path / "est.json"
        with pytest.raises(SystemExit) as exc:
            main([
                "estimate", *(arg.format(graph=cycles_tsv) for arg in given),
                "--walks", str(walks), "--basis", str(partition), "-o", str(out),
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: tosca estimate ")
        assert f"tosca estimate: error: --walks does not take {named};" in err
        assert not out.exists()

    def test_sampling_defaults_spelled_out_give_the_same_bytes(self, tmp_path, cycles_tsv):
        partition = tmp_path / "partition.csv"
        tosca.galerkin.write_partition([range(0, 6), range(6, 12)], partition)
        outs = [tmp_path / "default.json", tmp_path / "spelled.json"]
        base = ["estimate", cycles_tsv, "--self-loops", "1.0", "--basis", str(partition)]
        assert main([*base, "-o", str(outs[0])]) == 0
        assert main([
            *base, "--mu", "uniform", "--mode", "pairs", "--walkers", "10000", "-o", str(outs[1]),
        ]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["m"] == 10000


GOOD_INPUTS = {
    "graph_tsv": "# n=4 directed=1\n0\t1\t1.0\n1\t2\t1.0\n2\t3\t1.0\n3\t0\t1.0\n",
    "graph_mtx": "%%MatrixMarket matrix coordinate real general\n4 4 4\n1 2 1\n2 3 1\n3 4 1\n4 1 1\n",
    "mu": "1\n1\n1\n1\n",
    "probs": "# block probabilities\n0.5,0.1\n0.1,0.5\n",
    "basis": "vertex_index,set_index\n0,0\n1,0\n2,1\n3,1\n",
    "walks": "x,y\n0,1\n1,2\n2,3\n3,0\n",
    "labels": "vertex_index,label\n0,0\n1,0\n2,1\n3,1\n",
    "truth": "vertex_index,label\n0,1\n1,1\n2,0\n3,0\n",
}

# id -> (input given a malformed line 3, argv); {name} is the path of that input
CLI_INPUTS = {
    "tsv-cluster": ("graph_tsv", "cluster {graph_tsv} -k 2 --self-loops 1 -o {out}"),
    "mtx-cluster": ("graph_mtx", "cluster {graph_mtx} -k 2 --self-loops 1 -o {out}"),
    "nan-tsv-cluster": ("graph_tsv", "cluster {graph_tsv} -k 2 --self-loops 1 -o {out}"),
    "inf-mtx-cluster": ("graph_mtx", "cluster {graph_mtx} -k 2 --self-loops 1 -o {out}"),
    "mu-spectrum": ("mu", "spectrum {graph_tsv} --num 2 --mu {mu} -o {out}"),
    "nan-mu-spectrum": ("mu", "spectrum {graph_tsv} --num 2 --mu {mu} -o {out}"),
    "probs-generate": ("probs", "generate dsbm --blocks 2 --block-size 2 --probs {probs} -o {out}"),
    "basis-graph-estimate": ("basis", "estimate {graph_tsv} --walkers 50 --basis {basis} -o {out}"),
    "basis-walks-estimate": ("basis", "estimate --walks {walks} --basis {basis} -o {out}"),
    "walks-estimate": ("walks", "estimate --walks {walks} --basis {basis} -o {out}"),
    "labels-eval": ("labels", "eval {labels} {truth}"),
    "truth-eval": ("truth", "eval {labels} {truth}"),
    "labels-reorder": ("labels", "reorder {graph_tsv} {labels} -o {out}"),
}


# id -> its malformed line 3, where it is not "0,x\tx 1"
BAD_LINES = {
    "mtx-cluster": "1 2 x\n",
    "nan-mu-spectrum": "nan\n",
    "nan-tsv-cluster": "1\t2\tnan\n",
    "inf-mtx-cluster": "2 3 inf\n",
}


@pytest.mark.parametrize("case", CLI_INPUTS)
def test_malformed_line_3_in_any_input_is_a_data_error(tmp_path, capsys, case):
    bad, argv = CLI_INPUTS[case]
    paths = {"out": str(tmp_path / "out")}
    for name, text in GOOD_INPUTS.items():
        lines = text.splitlines(keepends=True)
        if name == bad:
            lines[2] = BAD_LINES.get(case, "0,x\tx 1\n")
        (tmp_path / name).write_text("".join(lines))
        paths[name] = str(tmp_path / name)
    assert main([arg.format_map(paths) for arg in argv.split()]) == 3
    assert "line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# n=0 directed=1\n"])
@pytest.mark.parametrize(
    "argv",
    [
        "cluster {graph} -k 1 -o {out}",
        "spectrum {graph} --num 1 -o {out}",
        "embed {graph} --coords 1 -o {out}",
        "estimate {graph} --walkers 10 --basis {basis} -o {out}",
    ],
)
def test_graph_without_vertices_is_a_data_error(tmp_path, capsys, text, argv):
    paths = {name: str(tmp_path / name) for name in ("graph", "basis", "out")}
    Path(paths["graph"]).write_text(text)
    Path(paths["basis"]).write_text("vertex_index,set_index\n0,0\n")
    assert main(argv.format_map(paths).split()) == 3
    assert "no vertices" in capsys.readouterr().err


class TestEvalReorder:
    def test_eval_json(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        truth = tmp_path / "truth.csv"
        labels.write_text("vertex_index,label\n0,0\n1,0\n2,1\n3,1\n")
        truth.write_text("vertex_index,label\n0,1\n1,1\n2,0\n3,0\n")
        assert main(["eval", str(labels), str(truth)]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["ari"] == 1.0
        assert metrics["nmv"] == 0.0
        assert metrics["confusion"] == [[0, 2], [2, 0]]

    def test_eval_length_mismatch(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        truth = tmp_path / "truth.csv"
        labels.write_text("vertex_index,label\n0,0\n")
        truth.write_text("vertex_index,label\n0,0\n1,1\n")
        assert main(["eval", str(labels), str(truth)]) == 3

    @pytest.mark.parametrize(
        "rows,line", [("0,0\n1,1\n3,1\n", 4), ("0,0\n1\n2,1\n", 3)]
    )
    def test_eval_bad_label_file_data_error(self, tmp_path, capsys, rows, line):
        # a vertex gap used to be scored as if the rows were 0..n-1
        labels = tmp_path / "labels.csv"
        truth = tmp_path / "truth.csv"
        labels.write_text("vertex_index,label\n" + rows)
        truth.write_text("vertex_index,label\n0,0\n1,1\n2,1\n")
        assert main(["eval", str(labels), str(truth)]) == 3
        assert f"line {line}:" in capsys.readouterr().err

    def test_eval_header_only_labels_data_error(self, tmp_path, capsys):
        labels = tmp_path / "e.csv"
        labels.write_text("vertex_index,label\n")
        assert main(["eval", str(labels), str(labels)]) == 3
        assert "line 1: no label rows" in capsys.readouterr().err

    def test_reorder_round_trip(self, tmp_path, cycles_tsv, capsys):
        labels_path = tmp_path / "labels.csv"
        main([
            "cluster", cycles_tsv, "-k", "3", "--self-loops", "1.0",
            "-o", str(labels_path),
        ])
        out = tmp_path / "reordered.mtx"
        perm_path = tmp_path / "perm.csv"
        code = main([
            "reorder", cycles_tsv, str(labels_path), "-o", str(out),
            "--perm", str(perm_path),
        ])
        assert code == 0
        reordered = tosca.read_matrix_market(out)
        original = tosca.read_edge_list(cycles_tsv)
        assert reordered.n == original.n
        assert reordered.num_edges == original.num_edges
        perm_lines = perm_path.read_text().splitlines()
        assert perm_lines[1] == "new_index,old_index"
        assert len(perm_lines) == 2 + original.n
        labels = tosca.galerkin.read_labels(labels_path)
        _, perm = tosca.reorder_by_cluster(original, labels)
        assert perm_path.read_text() == "# seed=0\nnew_index,old_index\n" + "".join(
            f"{new},{old}\n" for new, old in enumerate(perm.tolist())
        )

    def test_missing_graph_file(self, tmp_path, capsys):
        assert main([
            "cluster", str(tmp_path / "nope.tsv"), "-k", "2",
            "-o", str(tmp_path / "l.csv"),
        ]) == 2


class TestGridCornerRoundTrips:
    @pytest.mark.parametrize("p,q", [(0.01, 0.01), (0.01, 0.99), (0.99, 0.01), (0.99, 0.99)])
    def test_generate_cluster_reorder_read(self, tmp_path, p, q):
        probs = tmp_path / "probs.csv"
        probs.write_text(f"{p},{q}\n{q},{p}\n")
        graph_path = tmp_path / "g.tsv"
        labels = tmp_path / "l.csv"
        reordered = tmp_path / "r.mtx"
        assert main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "20",
            "--probs", str(probs), "--seed", "0", "-o", str(graph_path),
        ]) == 0
        assert main([
            "cluster", str(graph_path), "-k", "2", "--self-loops", "1.0",
            "--seed", "0", "-o", str(labels),
        ]) == 0
        assert main([
            "reorder", str(graph_path), str(labels), "-o", str(reordered),
        ]) == 0
        back = tosca.read_matrix_market(reordered)
        assert back.n == 40


class TestDegenerateSpectrum:
    # Most vertices of these graphs are isolated with a self-loop, so
    # sigma = 1 is highly degenerate; Lanczos answers from its seeded
    # random start vector.
    @pytest.mark.parametrize("p,n_b", [(0.01, 20), (0.001, 100)])
    def test_cluster_exits_zero_and_repeats_bytes(self, tmp_path, capsys, p, n_b):
        probs = tmp_path / "probs.csv"
        probs.write_text(f"{p},{p}\n{p},{p}\n")
        graph_path = tmp_path / "g.tsv"
        assert main([
            "generate", "dsbm", "--blocks", "2", "--block-size", str(n_b),
            "--probs", str(probs), "--seed", "0", "-o", str(graph_path),
        ]) == 0
        outputs = []
        for name in ("a.csv", "b.csv"):
            capsys.readouterr()
            assert main([
                "cluster", str(graph_path), "-k", "2", "--self-loops", "1.0",
                "--seed", "0", "--json", "-o", str(tmp_path / name),
            ]) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        g = tosca.add_self_loops(tosca.read_edge_list(graph_path), 1.0)
        spec = tosca.fb_spectrum(tosca.transition_matrix(g), tosca.uniform_density(g.n), 2)
        assert json.loads(capsys.readouterr().out)["kappa"] == spec.kappa.tolist()

    def test_bounded_dense_fallback_is_a_numerical_error(self, tmp_path, capsys, monkeypatch):
        # an ARPACK failure exits 4 at any n: no dense solve answers instead
        probs = tmp_path / "probs.csv"
        probs.write_text("0.001,0.001\n0.001,0.001\n")
        graph_path = tmp_path / "g.tsv"
        assert main([
            "generate", "dsbm", "--blocks", "2", "--block-size", "100",
            "--probs", str(probs), "--seed", "0", "-o", str(graph_path),
        ]) == 0

        def failing(*args, **kwargs):
            raise spla.ArpackError(-9999)

        monkeypatch.setattr(spla, "eigsh", failing)
        capsys.readouterr()
        code = main([
            "cluster", str(graph_path), "-k", "2", "--self-loops", "1.0",
            "-o", str(tmp_path / "l.csv"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "ARPACK failed" in err
        assert not (tmp_path / "l.csv").exists()


SCIPY_MODULES = ("scipy.sparse", "scipy.linalg", "scipy.optimize")


def run_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this tosca."""
    src = str(Path(tosca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )


def scipy_left_loaded(statement):
    """Code that runs ``statement`` and prints the scipy modules it loaded."""
    return (
        "import sys, tosca, tosca.cli\n"
        f"{statement}\n"
        f"print(sorted(m for m in {SCIPY_MODULES!r} if m in sys.modules))"
    )


class TestImports:
    def test_cli_does_not_load_scipy_optimize(self):
        # only misclassified_fraction (tosca eval) needs scipy.optimize,
        # and loading it costs every CLI process start-up time
        src = str(Path(tosca.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, tosca, tosca.cli; "
            "sys.exit('scipy.optimize' in sys.modules)"
        )
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_loads_no_scipy(self):
        # scipy loads where a function first needs it, not at import
        proc = run_python(scipy_left_loaded("pass"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_generate_and_eval_run_without_scipy(self, tmp_path, probs_csv):
        truth = tmp_path / "truth.csv"
        truth.write_text("vertex_index,label\n" + "".join(f"{i},{i // 20}\n" for i in range(40)))
        generate = (
            f"tosca.cli.main(['generate', 'dsbm', '--blocks', '2', '--block-size', '20', "
            f"'--probs', {probs_csv!r}, '--mtx', '-o', 'g.mtx', '--json'])"
        )
        proc = run_python(scipy_left_loaded(generate), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("[]")
        # the scored labels are the blocks with vertex 0 moved to block 1
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "vertex_index,label\n0,1\n" + "".join(f"{i},{i // 20}\n" for i in range(1, 40))
        )
        evaluate = "tosca.cli.main(['eval', 'labels.csv', 'truth.csv'])"
        proc = run_python(scipy_left_loaded(evaluate), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("[]")
        assert '"nmv": 0.025' in proc.stdout
        # operators from saved walks: the indicator basis is its class map alone
        (tmp_path / "w.csv").write_text(
            "# mode=independent_pairs seed=0 n=40\nx,y\n" + "".join(f"{i},{(i + 1) % 40}\n" for i in range(40))
        )
        (tmp_path / "p.csv").write_text(
            "vertex_index,set_index\n" + "".join(f"{i},{i // 20}\n" for i in range(40))
        )
        estimate = "tosca.cli.main(['estimate', '--walks', 'w.csv', '--basis', 'p.csv', '-o', 'est.json'])"
        proc = run_python(scipy_left_loaded(estimate), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().endswith("[]")
        assert json.loads((tmp_path / "est.json").read_text())["r"] == 2
