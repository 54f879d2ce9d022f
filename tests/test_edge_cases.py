"""Small-graph and format corner cases across modules."""

import json

import numpy as np
import pytest

import tosca
from tosca.cli import main
from tosca.errors import KOutOfRangeError, KTooLargeError, LengthMismatchError

from conftest import random_undirected_graph, three_cycles_graph


class TestSingleVertex:
    def test_self_loop_pipeline(self):
        g = tosca.from_edge_list(1, [(0, 0, 2.0)])
        s = tosca.transition_matrix(g)
        assert s.dense().tolist() == [[1.0]]
        spec = tosca.fb_spectrum(s, tosca.uniform_density(1), 1)
        assert spec.lam.tolist() == [1.0]
        assert tosca.coherence_score(g, None, {0}) == 1.0

    def test_cluster_single_vertex(self):
        g = tosca.from_edge_list(1, [(0, 0, 1.0)])
        result = tosca.cluster_graph(g, 1)
        assert result.labels.tolist() == [0]


class TestMatrixMarketVariants:
    def test_integer_field(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "2 2 2\n"
            "1 2 3\n"
            "2 1 1\n"
        )
        g = tosca.read_matrix_market(path)
        assert g.edge_multiset() == {(0, 1): 3.0, (1, 0): 1.0}

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 1\n"
            "% another\n"
            "1 2 1.5\n"
        )
        g = tosca.read_matrix_market(path)
        assert g.edge_multiset() == {(0, 1): 1.5}

    def test_entry_count_mismatch(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 2 1.0\n"
        )
        with pytest.raises(tosca.errors.ParseError):
            tosca.read_matrix_market(path)

    def test_all_equal_negative_entries_rejected_by_graph(self, tmp_path):
        # the shift keeps the formula even when max == min; the zero
        # weights it produces are rejected downstream
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 2 -1.0\n"
            "2 1 -1.0\n"
        )
        with pytest.raises(tosca.errors.NonPositiveWeightError):
            tosca.read_matrix_market(path)

    @pytest.mark.parametrize("value", ["-1.0", "0"])
    def test_all_equal_non_positive_entries_say_why(self, tmp_path, value):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            f"2 2 2\n1 2 {value}\n2 1 {value}\n"
        )
        with pytest.raises(
            tosca.errors.NonPositiveWeightError,
            match=rf"all 2 stored values equal {float(value)} <= 0, so the shift .* "
            "cannot make them positive",
        ):
            tosca.read_matrix_market(path)


class TestEdgeListInference:
    def test_n_inferred_without_header(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t3\t1.0\n3\t0\t2.0\n")
        g = tosca.read_edge_list(path)
        assert g.n == 4

    @pytest.mark.parametrize("text", ["", "\n", "# n=0\n"])
    def test_no_vertices_rejected(self, tmp_path, text):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        with pytest.raises(tosca.errors.EmptyMatrixError, match="no vertices"):
            tosca.read_edge_list(path)


class TestCliExtras:
    @pytest.fixture
    def undirected_tsv(self, tmp_path):
        g = tosca.from_edge_list(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)], directed=False
        )
        path = tmp_path / "ring.tsv"
        tosca.write_edge_list(g, path)
        return str(path)

    def test_stationary_mu(self, tmp_path, undirected_tsv):
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", undirected_tsv, "--num", "3", "--mu", "stationary",
            "--self-loops", "1.0", "-o", str(out),
        ]) == 0

    def test_mu_from_file(self, tmp_path, undirected_tsv):
        mu_file = tmp_path / "mu.txt"
        mu_file.write_text("1\n1\n2\n4\n")
        out = tmp_path / "spec.csv"
        assert main([
            "spectrum", undirected_tsv, "--num", "2", "--mu", str(mu_file),
            "--self-loops", "1.0", "-o", str(out),
        ]) == 0

    def test_mu_file_wrong_length(self, tmp_path, undirected_tsv):
        mu_file = tmp_path / "mu.txt"
        mu_file.write_text("1\n1\n")
        assert main([
            "spectrum", undirected_tsv, "--num", "2", "--mu", str(mu_file),
            "--self-loops", "1.0", "-o", str(tmp_path / "s.csv"),
        ]) == 3

    def test_save_walks_round_trip(self, tmp_path, undirected_tsv):
        partition = tmp_path / "p.csv"
        tosca.galerkin.write_partition([[0, 1], [2, 3]], partition)
        walks = tmp_path / "walks.csv"
        est_a = tmp_path / "a.json"
        est_b = tmp_path / "b.json"
        assert main([
            "estimate", undirected_tsv, "--self-loops", "1.0", "--walkers", "2000",
            "--basis", str(partition), "--seed", "5", "-o", str(est_a),
            "--save-walks", str(walks),
        ]) == 0
        assert main([
            "estimate", "--walks", str(walks), "--basis", str(partition),
            "-o", str(est_b),
        ]) == 0
        assert json.loads(est_a.read_text()) == json.loads(est_b.read_text())

    def test_trajectory_mode(self, tmp_path, undirected_tsv):
        partition = tmp_path / "p.csv"
        tosca.galerkin.write_partition([[0, 1], [2, 3]], partition)
        out = tmp_path / "est.json"
        assert main([
            "estimate", undirected_tsv, "--self-loops", "1.0", "--walkers", "500",
            "--mode", "trajectory", "--basis", str(partition), "-o", str(out),
        ]) == 0
        assert json.loads(out.read_text())["mode"] == "single_trajectory"


def test_coherence_with_explicit_density():
    g = tosca.from_edge_list(
        3, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]
    )
    mu = tosca.Density(np.array([0.25, 0.25, 0.5]))
    assert tosca.coherence_score(g, mu, {2}) == pytest.approx(1.0, abs=1e-12)
    assert tosca.coherence_score(g, mu, {0, 1}) == pytest.approx(1.0, abs=1e-12)


def _k_entry_points():
    """name -> (n, call(k)) for every function that takes a cluster or eigenpair count k."""
    directed = three_cycles_graph()
    s, mu = tosca.transition_matrix(directed), tosca.uniform_density(directed.n)
    undirected = random_undirected_graph(7, np.random.default_rng(0))
    basis = tosca.indicator_basis(12, [range(0, 4), range(4, 8), range(8, 12)])
    reduced = tosca.project(tosca.forward_backward(s, mu), basis)
    points = np.arange(10.0)
    return {
        "fb_spectrum": (12, lambda k: tosca.fb_spectrum(s, mu, k)),
        "koopman_spectrum": (7, lambda k: tosca.koopman_spectrum(undirected, k)),
        "kmeans": (10, lambda k: tosca.kmeans(points, k)),
        "ddbs_cluster": (12, lambda k: tosca.ddbs_cluster(directed, k)),
        "herm_cluster": (12, lambda k: tosca.herm_cluster(directed, k)),
        "reduced_eigenfunctions": (3, lambda k: tosca.reduced_eigenfunctions(reduced, k)),
    }


@pytest.mark.parametrize("entry", list(_k_entry_points()))
@pytest.mark.parametrize("past", [False, True])
def test_k_outside_range_is_one_error(entry, past):
    n, call = _k_entry_points()[entry]
    k = n + 1 if past else 0
    with pytest.raises(KTooLargeError) as info:  # the second name catches every k error
        call(k)
    assert type(info.value) is KOutOfRangeError
    assert str(info.value) == f"k={k} outside [1, {n}]"
    assert info.value.exit_code == 2


_DENSITY_ENTRY_POINTS = {
    "image_density": lambda s, mu: tosca.image_density(s, mu),
    "fb_spectrum": lambda s, mu: tosca.fb_spectrum(s, mu, 2),
    "sample_pairs": lambda s, mu: tosca.sample_pairs(s, mu, 10),
    "sample_trajectory": lambda s, mu: tosca.sample_trajectory(s, mu, 10),
}


@pytest.mark.parametrize("entry", list(_DENSITY_ENTRY_POINTS))
@pytest.mark.parametrize("length", [3, 6])
def test_density_of_wrong_length_is_one_error(entry, length):
    cycle = tosca.from_edge_list(4, [(i, (i + 1) % 4, 1.0) for i in range(4)])
    s = tosca.transition_matrix(tosca.add_self_loops(cycle, 1.0))
    with pytest.raises(LengthMismatchError) as info:
        _DENSITY_ENTRY_POINTS[entry](s, tosca.Density(np.full(length, 1.0 / length)))
    assert str(info.value) == f"density has {length} entries for a graph of 4 vertices"
    assert info.value.exit_code == 3
