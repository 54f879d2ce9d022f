"""Snapshot of the public API: module ``__all__`` lists, package re-exports, error exit codes.

The traced benchmark (``bench/spans.py``) wraps exactly the functions the
``__all__`` lists name, so a change here also changes what it records.
"""

import importlib
import pkgutil
import types

import tosca
from tosca import errors

MODULE_ALL = {
    "baselines": ["SymmetrizedMatrix", "symmetrize", "ddbs_cluster", "herm_cluster"],
    "cli": ["main"],
    "clustering": ["Clustering", "KMeansConfig", "kmeans", "cluster_graph", "coherence_score"],
    "datadriven": [
        "WalkSample", "EmpiricalGrams", "EstimatedOperators", "sample_pairs",
        "sample_trajectory", "empirical_grams", "estimated_operators", "write_walks",
        "read_walks",
    ],
    "errors": None,
    "galerkin": [
        "Basis", "ReducedOperator", "indicator_basis", "project", "reduced_eigenfunctions",
        "read_partition", "read_labels", "write_partition", "GRAM_CONDITION_LIMIT",
    ],
    "generators": [
        "DSBMParams", "dsbm_sample", "two_block_sweep", "SweepRow", "read_prob_matrix",
        "write_sweep_csv",
    ],
    "graph": [
        "Graph", "DegreeInfo", "TransitionMatrix", "from_edge_list", "add_self_loops",
        "transition_matrix", "lazy_chain", "degree_info", "read_matrix_market",
        "write_matrix_market", "read_edge_list", "write_edge_list", "reorder_by_cluster",
    ],
    "metrics": [
        "ContingencyTable", "contingency_table", "adjusted_rand_index", "misclassified_fraction",
    ],
    "operators": [
        "Density", "OperatorMatrix", "OperatorKind", "uniform_density", "image_density",
        "koopman", "perron_frobenius", "reweighted", "forward_backward", "backward_forward",
        "covariance_matrices", "stationary_density",
    ],
    "spectral": [
        "SpectrumResult", "KoopmanSpectrum", "fb_spectrum", "koopman_spectrum", "spectral_gap",
        "embed_coordinates",
    ],
}

REEXPORTS = {
    "Basis", "Clustering", "DSBMParams", "DegreeInfo", "Density", "EmpiricalGrams",
    "EstimatedOperators", "Graph", "KMeansConfig", "KoopmanSpectrum", "OperatorMatrix",
    "ReducedOperator", "SpectrumResult", "SweepRow", "SymmetrizedMatrix", "TransitionMatrix",
    "WalkSample", "add_self_loops", "adjusted_rand_index", "backward_forward", "cluster_graph",
    "coherence_score", "contingency_table", "covariance_matrices", "ddbs_cluster",
    "degree_info", "dsbm_sample", "embed_coordinates", "empirical_grams",
    "estimated_operators", "fb_spectrum", "forward_backward", "from_edge_list",
    "herm_cluster", "image_density", "indicator_basis", "kmeans", "koopman",
    "koopman_spectrum", "lazy_chain", "misclassified_fraction", "perron_frobenius", "project",
    "read_edge_list", "read_matrix_market", "read_walks", "reduced_eigenfunctions",
    "reorder_by_cluster", "reweighted", "sample_pairs", "sample_trajectory", "spectral_gap",
    "stationary_density", "symmetrize", "transition_matrix", "two_block_sweep",
    "uniform_density", "write_edge_list", "write_matrix_market", "write_walks",
}

# 2 usage, 3 data, 4 numerical
EXIT_CODES = {
    "ToscaError": 3,
    "IndexOutOfRangeError": 2,
    "NonPositiveWeightError": 3,
    "DanglingVertexError": 3,
    "ParseError": 3,
    "EmptyMatrixError": 3,
    "LengthMismatchError": 3,
    "NonPositiveDensityError": 3,
    "NotUndirectedError": 3,
    "ZeroDegreeError": 3,
    "KOutOfRangeError": 2,
    "KTooLargeError": 2,
    "TooFewValuesError": 2,
    "DegeneratePointsError": 4,
    "OverlappingSetsError": 3,
    "EmptySetError": 3,
    "SingularGramError": 4,
    "EmptySampleError": 3,
    "EmptySubsetError": 3,
    "DegenerateSpectrumError": 4,
    "NotConvergedError": 4,
}


def test_module_all_lists():
    names = sorted(info.name for info in pkgutil.iter_modules(tosca.__path__))
    found = {
        name: getattr(importlib.import_module(f"tosca.{name}"), "__all__", None) for name in names
    }
    assert found == MODULE_ALL


def test_every_all_name_exists():
    for name, public in MODULE_ALL.items():
        module = importlib.import_module(f"tosca.{name}")
        for attr in public or ():
            assert hasattr(module, attr), f"tosca.{name}.{attr}"


def test_package_reexports():
    found = {
        name for name, value in vars(tosca).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert found == REEXPORTS


def test_error_classes_and_exit_codes():
    found = {
        name: value.exit_code for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert found == EXIT_CODES
    assert all(issubclass(getattr(errors, name), errors.ToscaError) for name in EXIT_CODES)
    assert errors.KTooLargeError is errors.KOutOfRangeError
