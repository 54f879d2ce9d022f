import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import tosca
from tosca.errors import LengthMismatchError
from tosca.metrics import _max_weight_assignment


def pair_counting_ari(a, b):
    """O(n^2) oracle: classify every pair as together/apart in each."""
    n = len(a)
    n11 = n10 = n01 = n00 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    total = comb(n, 2)
    sum_rows = n11 + n10
    sum_cols = n11 + n01
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0 if (n10 == 0 and n01 == 0) else 0.0
    return (n11 - expected) / (max_index - expected)


class TestAdjustedRandIndex:
    def test_identity(self, rng):
        a = rng.integers(0, 4, 30)
        assert tosca.adjusted_rand_index(a, a) == 1.0

    def test_label_permutation_invariance(self):
        assert tosca.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_worked_example(self):
        assert tosca.adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == -0.5

    def test_symmetry_exact(self, rng):
        for _ in range(20):
            a = rng.integers(0, 4, 25)
            b = rng.integers(0, 3, 25)
            assert tosca.adjusted_rand_index(a, b) == tosca.adjusted_rand_index(b, a)

    def test_relabel_invariance(self, rng):
        a = rng.integers(0, 5, 40)
        b = rng.integers(0, 4, 40)
        relabel = rng.permutation(5)
        assert tosca.adjusted_rand_index(a, b) == tosca.adjusted_rand_index(
            relabel[a], b
        )

    def test_against_pair_counting_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 60))
            a = rng.integers(0, int(rng.integers(2, 6)), n)
            b = rng.integers(0, int(rng.integers(2, 6)), n)
            assert tosca.adjusted_rand_index(a, b) == pytest.approx(
                pair_counting_ari(a, b), abs=1e-12
            )

    def test_degenerate_cases(self):
        assert tosca.adjusted_rand_index([0, 1, 2], [2, 0, 1]) == 1.0
        assert tosca.adjusted_rand_index([0, 0, 0], [0, 0, 0]) == 1.0
        assert tosca.adjusted_rand_index([0, 1, 2], [0, 0, 0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            tosca.adjusted_rand_index([0, 1], [0, 1, 2])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_invariant_under_vertex_relabelling(self, data):
        n = data.draw(st.integers(2, 40))
        labels = arrays(np.int64, n, elements=st.integers(0, 4))
        a, b = data.draw(labels), data.draw(labels)
        perm = np.array(data.draw(st.permutations(range(n))))
        assert tosca.adjusted_rand_index(a[perm], b[perm]) == tosca.adjusted_rand_index(a, b)


class TestMisclassifiedFraction:
    def test_identical(self):
        assert tosca.misclassified_fraction([0, 1, 0, 1], [0, 1, 0, 1]) == 0.0

    def test_one_flip_in_hundred(self):
        a = np.repeat([0, 1], 50)
        b = a.copy()
        b[0] = 1
        assert tosca.misclassified_fraction(a, b) == pytest.approx(0.01, abs=0)

    def test_three_cluster_confusion(self):
        # contingency [[5,1,0],[0,4,2],[1,0,7]]: best bijection matches 16/20
        counts = [[5, 1, 0], [0, 4, 2], [1, 0, 7]]
        a, b = [], []
        for i, row in enumerate(counts):
            for j, c in enumerate(row):
                a += [i] * c
                b += [j] * c
        assert tosca.misclassified_fraction(a, b) == pytest.approx(0.2, abs=0)
        # exhaustive bijection oracle
        best = max(
            sum(counts[i][perm[i]] for i in range(3))
            for perm in itertools.permutations(range(3))
        )
        assert tosca.misclassified_fraction(a, b) == (20 - best) / 20

    def test_upper_bound(self, rng):
        for _ in range(20):
            n = int(rng.integers(6, 50))
            k = int(rng.integers(2, 5))
            a = rng.integers(0, k, n)
            b = rng.integers(0, k, n)
            ka = len(np.unique(a))
            assert tosca.misclassified_fraction(a, b) <= 1.0 - 1.0 / max(ka, 1) + 1e-12

    def test_zero_iff_bijection(self, rng):
        a = rng.integers(0, 4, 30)
        relabel = rng.permutation(4)
        assert tosca.misclassified_fraction(a, relabel[a]) == 0.0
        b = a.copy()
        b[0] = (b[0] + 1) % 4
        assert tosca.misclassified_fraction(a, b) > 0.0

    def test_unequal_cluster_counts_padded(self):
        a = [0, 0, 1, 1, 2, 2]
        b = [0, 0, 1, 1, 1, 1]
        assert tosca.misclassified_fraction(a, b) == pytest.approx(2 / 6, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            tosca.misclassified_fraction([0], [0, 1])


def padded_square(counts):
    """The count table zero-padded square, as misclassified_fraction pads it."""
    size = max(counts.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    return padded


@st.composite
def weight_matrices(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    # a small value range forces ties; 0 alone gives the all-zero table
    top = draw(st.sampled_from([0, 1, 2, 5, 1000]))
    return padded_square(draw(arrays(np.int64, (rows, cols), elements=st.integers(0, top))))


def scipy_misclassified_fraction(a, b):
    """Reference: the same padded table solved by scipy's assignment solver."""
    table = tosca.contingency_table(a, b)
    padded = padded_square(table.counts)
    rows, cols = linear_sum_assignment(padded, maximize=True)
    return (table.n - int(padded[rows, cols].sum())) / table.n


class TestMaxWeightAssignment:
    @settings(max_examples=400, deadline=None)
    @given(weight_matrices())
    def test_total_equals_scipy(self, w):
        cols = _max_weight_assignment(w)
        assert sorted(cols.tolist()) == list(range(len(w)))
        rows, ref_cols = linear_sum_assignment(w, maximize=True)
        assert int(w[np.arange(len(w)), cols].sum()) == int(w[rows, ref_cols].sum())

    @pytest.mark.parametrize(
        "w,total",
        [([[7]], 7), ([[0]], 0), ([[0, 0], [0, 0]], 0), ([[3, 3], [3, 3]], 6),
         ([[1, 2], [2, 4]], 5), ([[5, 1, 0], [0, 4, 2], [1, 0, 7]], 16)],
    )
    def test_small_cases(self, w, total):
        w = np.asarray(w, dtype=np.int64)
        cols = _max_weight_assignment(w)
        assert int(w[np.arange(len(w)), cols].sum()) == total

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)), min_size=1, max_size=60)
    )
    def test_misclassified_fraction_equals_scipy_reference(self, pairs):
        a, b = zip(*pairs)
        assert tosca.misclassified_fraction(a, b) == scipy_misclassified_fraction(a, b)


@pytest.mark.parametrize("score", [
    tosca.contingency_table, tosca.adjusted_rand_index, tosca.misclassified_fraction,
])
@pytest.mark.parametrize("labels", [[], np.empty(0, dtype=np.int64)])
def test_empty_labels_rejected(score, labels):
    with pytest.raises(LengthMismatchError) as caught:
        score(labels, labels)
    assert str(caught.value) == "need at least one element"


class TestContingencyTable:
    def test_counts_and_marginals(self):
        table = tosca.contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
        assert table.counts.tolist() == [[1, 1], [1, 1]]
        assert table.n == 4
        assert table.row_marginals.tolist() == [2, 2]
        assert table.col_marginals.tolist() == [2, 2]
