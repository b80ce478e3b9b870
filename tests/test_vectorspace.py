"""Cosine/Pearson similarity, co-occurrence products, threshold graphs."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import make_matrix, random_pruned_counts
from cowordmap.errors import ConfigError, CowordMapWarning, DataError
from cowordmap.vectorspace import (
    Graph,
    SimilarityMatrix,
    cooccurrence,
    cosine_matrix,
    pearson_matrix,
    threshold_graph,
)


def cosine_oracle(data):
    """Pairwise cosine by explicit double loop."""
    k = data.shape[1]
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            num = sum(data[i, a] * data[i, b] for i in range(data.shape[0]))
            na = math.sqrt(sum(data[i, a] ** 2 for i in range(data.shape[0])))
            nb = math.sqrt(sum(data[i, b] ** 2 for i in range(data.shape[0])))
            out[a, b] = num / (na * nb)
    return out


class TestCosine:
    def test_identical_columns(self):
        sim = cosine_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert sim.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_columns(self):
        sim = cosine_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert sim.values[0, 1] == 0.0

    def test_matches_double_loop(self):
        rng = np.random.default_rng(2)
        data = rng.random((10, 15)) * 5
        sim = cosine_matrix(data)
        np.testing.assert_allclose(sim.values, cosine_oracle(data), atol=1e-12)

    def test_matches_scipy_cdist(self):
        distance = pytest.importorskip("scipy.spatial.distance")
        rng = np.random.default_rng(14)
        for _ in range(200):
            data = random_pruned_counts(rng).astype(float)
            oracle = 1 - distance.cdist(data.T, data.T, "cosine")
            np.testing.assert_allclose(cosine_matrix(data).values, oracle,
                                       rtol=1e-12, atol=1e-12)

    def test_exactly_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(4)
        data = rng.random((8, 12))
        sim = cosine_matrix(data)
        assert np.array_equal(sim.values, sim.values.T)
        assert (np.diag(sim.values) == 1.0).all()

    def test_zero_vector_is_dropped_with_warning_naming_it(self):
        data = np.array([[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]])
        with pytest.warns(CowordMapWarning, match="all-zero vectors before cosine: bad_term"):
            sim = cosine_matrix(data, labels=["good", "bad_term", "other"])
        assert sim.labels == ["good", "other"]
        np.testing.assert_allclose(sim.values, cosine_oracle(data[:, [0, 2]]), atol=1e-12)

    def test_warning_names_ten_dropped_vectors_then_the_count(self):
        data = np.zeros((2, 13))
        data[:, 12] = 1.0
        labels = [f"z{k}" for k in range(12)] + ["kept"]
        with pytest.warns(CowordMapWarning) as caught:
            sim = cosine_matrix(data, labels=labels)
        assert str(caught[0].message) == (
            "dropped all-zero vectors before cosine: "
            + ", ".join(labels[:10]) + ", ... (12 in all)"
        )
        assert caught[0].filename == __file__  # attributed to the caller
        assert sim.labels == ["kept"]

    def test_all_zero_is_fatal(self):
        with pytest.warns(CowordMapWarning):
            with pytest.raises(DataError, match="all vectors are all-zero"):
                cosine_matrix(np.zeros((3, 2)))

    def test_positive_column_has_positive_cosine_with_any_nonzero(self):
        # A term present in every document keeps a positive similarity with
        # every other surviving term, which is what parks it in the center
        # of a thresholded map.
        rng = np.random.default_rng(6)
        counts = random_pruned_counts(rng, 8, 10).astype(float)
        counts[:, 0] = rng.integers(1, 9, size=counts.shape[0])
        sim = cosine_matrix(counts)
        assert (sim.values[0, 1:] > 0).all()


class TestPearson:
    def test_affine_dependence(self):
        data = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        assert pearson_matrix(data).values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        data = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert pearson_matrix(data).values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            data = random_pruned_counts(rng).astype(float)
            data = data[:, data.std(axis=0) > 0]  # constant columns have no correlation
            if data.shape[1] < 2:
                continue
            np.testing.assert_allclose(pearson_matrix(data).values,
                                       np.corrcoef(data, rowvar=False), rtol=1e-12, atol=1e-12)

    def test_equals_cosine_of_centered_data(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            data = rng.random((rng.integers(3, 30), 2)) * 10
            centered = data - data.mean(axis=0)
            if (np.linalg.norm(centered, axis=0) == 0).any():
                continue
            p = pearson_matrix(data).values[0, 1]
            c = cosine_matrix(centered).values[0, 1]
            assert abs(p - c) < 1e-12

    def test_constant_column_dropped_with_warning(self):
        data = np.array([[1.0, 5.0, 2.0], [2.0, 5.0, 1.0], [3.0, 5.0, 2.0]])
        with pytest.warns(CowordMapWarning, match="flat"):
            sim = pearson_matrix(data, labels=["a", "flat", "b"])
        assert sim.labels == ["a", "b"]
        assert sim.values.shape == (2, 2)

    def test_all_constant_is_fatal(self):
        data = np.full((4, 2), 3.0)
        with pytest.warns(CowordMapWarning):
            with pytest.raises(DataError):
                pearson_matrix(data)

    def test_shift_invariance_pearson_only(self):
        rng = np.random.default_rng(10)
        data = rng.random((12, 2)) + 0.5
        shifted = data.copy()
        shifted[:, 0] += 100.0
        p0 = pearson_matrix(data).values[0, 1]
        p1 = pearson_matrix(shifted).values[0, 1]
        assert abs(p0 - p1) < 1e-9
        c0 = cosine_matrix(data).values[0, 1]
        c1 = cosine_matrix(shifted).values[0, 1]
        assert abs(c0 - c1) > 1e-6

    def test_values_within_unit_interval(self):
        rng = np.random.default_rng(12)
        sim = pearson_matrix(rng.random((9, 7)))
        assert (sim.values >= -1).all() and (sim.values <= 1).all()


class TestCooccurrence:
    def test_hand_multiplication(self):
        m = make_matrix([[2, 1], [0, 1]])
        cooc = cooccurrence(m, mode="words")
        assert np.array_equal(cooc.values, [[4, 2], [2, 2]])
        assert cooc.labels == ["t1", "t2"]

    def test_binary_diagonal_is_docfreq(self):
        rng = np.random.default_rng(14)
        counts = (random_pruned_counts(rng, 8, 10) > 0).astype(int)
        m = make_matrix(counts)
        cooc = cooccurrence(m, mode="words")
        np.testing.assert_array_equal(np.diag(cooc.values), counts.sum(axis=0))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(16)
        counts = random_pruned_counts(rng, 10, 15)
        m = make_matrix(counts)
        for mode, expected_shape in (("words", counts.shape[1]), ("documents", counts.shape[0])):
            cooc = cooccurrence(m, mode=mode)
            a = counts.T if mode == "words" else counts
            n = a.shape[0]
            manual = np.zeros((n, n), dtype=np.int64)
            for x in range(n):
                for y in range(n):
                    for z in range(a.shape[1]):
                        manual[x, y] += a[x, z] * a[y, z]
            assert cooc.values.shape == (expected_shape, expected_shape)
            assert np.array_equal(cooc.values, manual)
            assert np.array_equal(cooc.values, cooc.values.T)

    def test_words_equals_documents_of_transposed(self):
        rng = np.random.default_rng(18)
        counts = random_pruned_counts(rng, 6, 9)
        words = cooccurrence(make_matrix(counts), mode="words")
        flipped = cooccurrence(make_matrix(counts.T), mode="documents")
        assert np.array_equal(words.values, flipped.values.T)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            cooccurrence(make_matrix([[1]]), mode="phrases")

    @pytest.mark.parametrize("mode", ["words", "documents"])
    def test_exact_up_to_the_float64_integer_bound(self, mode):
        """A sum of squares of 2^53 - 1 multiplies exactly; 2^53 + 100 is refused."""
        column = [94906265, 10885, 71, 50]  # squares sum to 2**53 - 1
        assert sum(c * c for c in column) == 2**53 - 1
        counts = np.array([column, [1, 1, 1, 1]], dtype=np.int64).T
        if mode == "documents":
            counts = counts.T
        got = cooccurrence(make_matrix(counts), mode=mode).values
        oracle = counts.T @ counts if mode == "words" else counts @ counts.T
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle)
        assert got.max() == 2**53 - 1
        over = counts.copy()
        over[(3, 0) if mode == "words" else (0, 3)] += 1  # 2**53 + 100
        with pytest.raises(DataError, match=r"2\^53"):
            cooccurrence(make_matrix(over), mode=mode)


def threshold_graph_reference(matrix, threshold, rule="geq"):
    """The pair-by-pair threshold_graph the vectorized one replaced, verbatim."""
    if rule not in ("geq", "gt"):
        raise ConfigError(f"unknown rule {rule!r}; use geq or gt")
    values = matrix.values
    if values.shape[0] != values.shape[1] or not np.allclose(
        values, values.T, atol=1e-12
    ):
        raise DataError("threshold_graph requires a symmetric matrix")
    edges, weights = [], []
    n = len(matrix.labels)
    for a in range(n):
        for b in range(a + 1, n):
            v = float(values[a, b])
            if v >= threshold if rule == "geq" else v > threshold:
                edges.append((a, b))
                weights.append(v)
    return Graph(matrix.labels, edges, weights)


class TestThresholdGraph:
    def sim(self, values, labels):
        return SimilarityMatrix(values=np.array(values), labels=labels)

    def test_geq_keeps_boundary(self):
        matrix = self.sim([[9, 1], [1, 9]], ["a", "b"])
        g = threshold_graph(matrix, 1.0, rule="geq")
        assert g.edges.tolist() == [[0, 1]] and g.weights.tolist() == [1.0]

    def test_gt_drops_boundary(self):
        matrix = self.sim([[9, 1], [1, 9]], ["a", "b"])
        with pytest.warns(CowordMapWarning, match="no edges"):
            g = threshold_graph(matrix, 1.0, rule="gt")
        assert g.edges.shape == (0, 2)
        assert g.nodes == ["a", "b"]  # isolates retained

    def test_zero_offdiagonal_no_edges(self):
        matrix = self.sim(np.diag([3, 3, 3]), ["a", "b", "c"])
        with pytest.warns(CowordMapWarning):
            g = threshold_graph(matrix, 0.5, rule="geq")
        assert len(g.nodes) == 3 and not len(g.edges)

    def test_edge_count_monotone_in_threshold(self):
        rng = np.random.default_rng(20)
        values = rng.random((8, 8))
        values = (values + values.T) / 2
        matrix = self.sim(values, [f"n{i}" for i in range(8)])
        counts = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CowordMapWarning)
            for threshold in np.linspace(0, 1.2, 13):
                g = threshold_graph(matrix, float(threshold), rule="geq")
                counts.append(len(g.edges))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_requires_symmetry(self):
        matrix = self.sim([[1, 2], [0, 1]], ["a", "b"])
        with pytest.raises(DataError, match="symmetric"):
            threshold_graph(matrix, 0.5)

    def test_symmetry_tolerance_is_absolute(self):
        """Large values that differ by 1 are not symmetric, whatever their size."""
        matrix = self.sim([[1, 100000], [100001, 1]], ["a", "b"])
        with pytest.raises(DataError, match="symmetric"):
            threshold_graph(matrix, 0.5)

    def test_diagonal_ignored(self):
        matrix = self.sim([[9, 0], [0, 9]], ["a", "b"])
        with pytest.warns(CowordMapWarning):
            g = threshold_graph(matrix, 1.0, rule="geq")
        assert not len(g.edges)  # no self-loops from the diagonal


    @pytest.mark.parametrize("rule", ["geq", "gt"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pairwise_reference(self, seed, dtype, rule):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 30))
        if np.issubdtype(dtype, np.integer):
            values = rng.integers(-3, 6, size=(n, n))
        else:
            values = rng.normal(size=(n, n))
        values = np.triu(values) + np.triu(values, 1).T
        matrix = self.sim(values.astype(dtype), [f"n{i}" for i in range(n)])
        # values that sit exactly on the threshold, one between them, NaN
        thresholds = [float(v) for v in values.flat[:3]] + [0.25, math.nan]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CowordMapWarning)
            for threshold in thresholds:
                got = threshold_graph(matrix, threshold, rule=rule)
                want = threshold_graph_reference(matrix, threshold, rule=rule)
                assert got.edges.tolist() == want.edges.tolist()
                assert got.weights.tolist() == want.weights.tolist()
                assert got.nodes == want.nodes and not got.dotted.any()
                assert got.edges.dtype == np.int64 and got.weights.dtype == np.float64

    @pytest.mark.parametrize("rule", ["geq", "gt"])
    def test_nan_cell_rejected_like_reference(self, rule):
        values = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, math.nan], [0.2, math.nan, 1.0]])
        matrix = self.sim(values, ["a", "b", "c"])
        for fn in (threshold_graph, threshold_graph_reference):
            with pytest.raises(DataError, match="symmetric"):
                fn(matrix, 0.3, rule=rule)


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(DataError, match="self-loop"):
            Graph(["a", "b"], [(0, 1), (1, 1)], [1.0, 1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(DataError, match="duplicate"):
            Graph(["a", "a"], [], [])

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(DataError, match=r"edge \(0, 1\) out of range for 1 nodes"):
            Graph(["a"], [(0, 1)], [1.0])
        with pytest.raises(DataError, match="out of range"):
            Graph(["a", "b"], [(-1, 1)], [1.0])

    def test_rejects_non_finite_weights(self):
        with pytest.raises(DataError, match=r"non-finite edge weight on \(1, 2\)"):
            Graph(["a", "b", "c"], [(0, 1), (1, 2)], [1.0, math.nan])

    @pytest.mark.parametrize("edges, weights, dotted, sizes", [
        ([(0, 1)], [1.0, 2.0], None, None),
        ([(0, 1)], [1.0], [True, False], None),
        ([(0, 1)], [1.0], None, [1.0]),
        ([0, 1, 2], [1.0], None, None),
    ])
    def test_rejects_arrays_of_other_lengths(self, edges, weights, dotted, sizes):
        with pytest.raises(DataError, match="one row per edge"):
            Graph(["a", "b"], edges, weights, dotted, sizes)

    def test_components_and_subgraph(self):
        g = Graph(list("abcde"), [(0, 1), (2, 3)], [1.0, 2.0], [False, True],
                  [1.0, 2.0, 3.0, np.nan, 5.0])
        assert g.connected_components() == [[0, 1], [2, 3], [4]]
        sub = g.subgraph([2, 3])
        assert sub.nodes == ["c", "d"]
        assert sub.edges.tolist() == [[0, 1]] and sub.weights.tolist() == [2.0]
        assert sub.dotted.tolist() == [True]
        assert np.array_equal(sub.sizes, [3.0, np.nan], equal_nan=True)

    def test_components_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(11)
        isolated = 0
        for n in (0, 1, 2, 7, 20, 50):
            for density in (0.0, 0.02, 0.08, 0.3):
                pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                         if rng.random() < density]
                order = rng.permutation(len(pairs))  # edge order must not matter
                g = Graph([f"n{i}" for i in range(n)],
                          [pairs[k] for k in order], np.ones(len(pairs)))
                reference = nx.Graph()
                reference.add_nodes_from(range(n))
                reference.add_edges_from(pairs)
                want = sorted(sorted(c) for c in nx.connected_components(reference))
                got = g.connected_components()
                assert got == want
                assert [c[0] for c in got] == sorted(c[0] for c in got)
                isolated += sum(len(c) == 1 for c in got)
        assert isolated > 0
