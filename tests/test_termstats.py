"""Expected values, tf-idf, chi-square, obs/exp, and term selection."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import make_matrix, random_pruned_counts
from cowordmap.errors import ConfigError, CowordMapWarning, DataError
from cowordmap.termstats import (
    chi_square,
    distinct_expected_cells,
    expected_matrix,
    obs_exp,
    select_terms,
    term_scores,
    tfidf_matrix,
)


def chi2_oracle(counts, yates: bool):
    """Textbook contingency-table computation, in pure Python loops."""
    rows = len(counts)
    cols = len(counts[0])
    row_sum = [sum(counts[i][k] for k in range(cols)) for i in range(rows)]
    col_sum = [sum(counts[i][k] for i in range(rows)) for k in range(cols)]
    grand = sum(row_sum)
    per_cell = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(cols):
            expected = row_sum[i] * col_sum[k] / grand
            deviation = abs(counts[i][k] - expected)
            if yates and counts[i][k] < 5:
                deviation = max(deviation - 0.5, 0.0)
            per_cell[i][k] = deviation * deviation / expected
    total = sum(sum(row) for row in per_cell)
    return total, per_cell


def term_scores_oracle(m, yates):
    """The whole-matrix term_scores: the former chi_square, obs_exp and
    tf-idf column-sum bodies inlined, with numpy's own column sums."""
    observed = m.counts.astype(float)
    expected = np.outer(m.row_margins, m.col_margins) / m.total
    deviation = np.abs(observed - expected)
    if yates == "observed_lt_5":
        applied = m.counts < 5
        deviation = np.where(applied, np.maximum(deviation - 0.5, 0.0), deviation)
    per_cell = deviation**2 / expected
    doc_freq = (m.counts > 0).sum(axis=0)
    idf = np.log2(m.n_docs / doc_freq)
    return {
        "freq": m.col_margins.astype(np.int64),
        "doc_freq": doc_freq.astype(np.int64),
        "tfidf": (m.counts * idf[np.newaxis, :]).sum(axis=0),
        "chi2": per_cell.sum(axis=0),
        "obs_exp_sum": (m.counts / expected).sum(axis=0),
    }


def term_scores_by_rows(m, yates):
    """The former term_scores body: chi-square, obs/exp and tf-idf cells of
    each dense row added to three running column sums from +0.0."""
    idf = np.log2(m.n_docs / m.doc_freq)
    chi2, ratio, tfidf = np.zeros((3, m.n_terms))
    for margin, counts in zip(m.row_margins, m.rows()):
        expected = np.multiply.outer(margin, m.col_margins) / m.total
        deviation = np.abs(counts - expected)
        if yates == "observed_lt_5":
            deviation = np.where(counts < 5, np.maximum(deviation - 0.5, 0.0), deviation)
        chi2 += deviation**2 / expected
        ratio += counts / expected
        tfidf += counts * idf
    return {"tfidf": tfidf, "chi2": chi2, "obs_exp_sum": ratio}


def random_count_matrix(seed, rows, cols, repeat_rows=True):
    """A ``rows`` x ``cols`` count matrix without zero margins; with
    ``repeat_rows``, as many rows again copy random earlier ones."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 13, size=(rows, cols))
    counts[rng.random((rows, cols)) > rng.uniform(0.1, 1.0)] = 0
    counts[np.arange(rows), rng.integers(0, cols, size=rows)] += 1
    counts[rng.integers(0, rows, size=cols), np.arange(cols)] += 1
    if repeat_rows:
        counts = np.vstack([counts, counts[rng.integers(0, len(counts), size=len(counts))]])
    return make_matrix(counts)


class TestRowByRowScores:
    """term_scores, one dense row at a time, keeps the bits of the whole-matrix computation."""

    def test_random_matrices_match_oracle_bitwise(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            shape=st.sampled_from([(40, 12), (40, 1), (2, 12), (60, 3)]),
            repeat_rows=st.booleans(),
            yates=st.sampled_from(["observed_lt_5", "off"]),
        )
        def check(seed, shape, repeat_rows, yates):
            m = random_count_matrix(seed, *shape, repeat_rows=repeat_rows)
            oracle = term_scores_oracle(m, yates)
            scores = term_scores(m, yates=yates)
            for field, values in oracle.items():
                assert np.array_equal(getattr(scores, field), values), field
            for field, values in term_scores_by_rows(m, yates).items():
                assert getattr(scores, field).tobytes() == values.tobytes(), field
            assert np.array_equal(chi_square(m, yates).sum(axis=0), oracle["chi2"])
            assert np.array_equal(obs_exp(m).sum(axis=0), oracle["obs_exp_sum"])

        check()

    def test_expected_rows_equal_outer_product_bitwise(self):
        """The distinct expected cells, indexed by row and column, have the
        bits of ``expected_matrix`` on pruned matrices with repeated row
        margins and with hundreds of distinct ones; the margins are those of
        the counts."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        distinct = []

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            shape=st.sampled_from([(40, 12), (40, 1), (2, 12), (600, 30)]),
            repeat_rows=st.booleans(),
            spread=st.sampled_from([0, 5000]),
            zero_lines=st.booleans(),
        )
        def check(seed, shape, repeat_rows, spread, zero_lines):
            rng = np.random.default_rng(seed)
            counts = random_count_matrix(seed, *shape, repeat_rows=repeat_rows).counts
            counts[:, 0] += rng.integers(0, spread + 1, size=len(counts))
            if zero_lines:  # pruned at construction
                counts[rng.integers(0, len(counts))] = 0
                counts[:, rng.integers(0, counts.shape[1])] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CowordMapWarning)
                try:
                    m = make_matrix(counts)
                except DataError:  # nothing left after pruning
                    return
            assert np.array_equal(m.row_margins, m.counts.sum(axis=1))
            assert np.array_equal(m.col_margins, m.counts.sum(axis=0))
            assert m.total == m.counts.sum()
            cells, rows, cols = distinct_expected_cells(m)
            assert cells.shape == (len(set(m.row_margins.tolist())),
                                   len(set(m.col_margins.tolist())))
            outer = np.outer(m.row_margins, m.col_margins) / m.total
            assert cells[np.ix_(rows, cols)].tobytes() == outer.tobytes()
            assert expected_matrix(m).tobytes() == outer.tobytes()
            distinct.append((cells.shape, m.counts.shape))

        check()
        assert any(shape[0] > 256 for shape, _ in distinct)
        assert any(shape[0] < docs for shape, (docs, _) in distinct)
        assert any(shape[1] < terms for shape, (_, terms) in distinct)

    def test_traced_peak_stays_far_below_a_dense_float_matrix(self):
        """tracemalloc sees numpy's buffers: on a 400 x 5000 matrix, where one
        dense float temporary would take 16 MB, the scores peak under 2 MB."""
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 6, size=(400, 5000)) * (rng.random((400, 5000)) < 0.02)
        counts[np.arange(5000) % 400, np.arange(5000)] += 1  # no zero margin
        m = make_matrix(counts)
        del counts
        tracemalloc.start()
        try:
            scores = term_scores(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(scores.freq, m.col_margins)
        assert peak < 2 * 2**20, peak

    def test_bad_yates_rejected(self):
        with pytest.raises(ConfigError, match="yates"):
            term_scores(make_matrix([[1, 2], [3, 4]]), yates="sometimes")


class TestExpectedMatrix:
    def test_margin_arithmetic(self):
        e = expected_matrix(make_matrix([[10, 20], [30, 40]]))
        np.testing.assert_allclose(e, [[12, 18], [28, 42]])

    def test_uniform_matrix_is_fixed_point(self):
        m = make_matrix(np.full((3, 4), 5))
        np.testing.assert_allclose(expected_matrix(m), m.counts)

    def test_margins_preserved_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = make_matrix(random_pruned_counts(rng, 5, 7))
            e = expected_matrix(m)
            np.testing.assert_allclose(e.sum(axis=0), m.col_margins, atol=1e-9)
            np.testing.assert_allclose(e.sum(axis=1), m.row_margins, atol=1e-9)
            assert (e > 0).all()

    def test_matches_scipy_expected_freq(self):
        contingency = pytest.importorskip("scipy.stats.contingency")
        rng = np.random.default_rng(12)
        for _ in range(200):
            counts = random_pruned_counts(rng)
            np.testing.assert_allclose(expected_matrix(make_matrix(counts)),
                                       contingency.expected_freq(counts), rtol=1e-12, atol=0)


class TestTfidf:
    def test_power_of_two_logarithm(self):
        counts = np.zeros((8, 2), dtype=int)
        counts[0, 0] = 3
        counts[1, 0] = 1  # docfreq 2 for the first term
        counts[:, 1] = 1  # second column keeps every row nonzero
        m = make_matrix(counts)
        cells = tfidf_matrix(m)
        assert cells[0, 0] == pytest.approx(3 * math.log2(8 / 2), abs=1e-12)

    def test_term_in_every_document_scores_zero(self):
        m = make_matrix([[1, 2], [3, 1], [2, 5]])
        cells = tfidf_matrix(m)
        assert (cells[:, 1] == 0).all()  # docfreq == n
        assert term_scores(m).tfidf[1] == 0

    def test_single_document_corpus_all_zero(self):
        m = make_matrix([[3, 1, 2]])
        assert (term_scores(m).tfidf == 0).all()

    def test_concentrated_term(self):
        counts = np.ones((8, 2), dtype=int)
        counts[:, 0] = 0
        counts[0, 0] = 3  # docfreq 1
        m = make_matrix(counts)
        assert term_scores(m).tfidf[0] == pytest.approx(3 * math.log2(8), abs=1e-12)

    def test_matches_per_cell_formula_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = make_matrix(random_pruned_counts(rng))
            cells = tfidf_matrix(m)
            n = m.n_docs
            for k in range(m.n_terms):
                docfreq = sum(1 for i in range(n) if m.counts[i, k] > 0)
                for i in range(n):
                    manual = m.counts[i, k] * math.log2(n / docfreq)
                    assert abs(cells[i, k] - manual) < 1e-12
            np.testing.assert_allclose(term_scores(m).tfidf, cells.sum(axis=0))


class TestChiSquare:
    def test_observed_equals_expected_gives_zero(self):
        m = make_matrix(np.outer([1, 2], [3, 6]))  # rank-1 counts: O == E
        for yates in ("off", "observed_lt_5"):
            assert chi_square(m, yates=yates).sum() == pytest.approx(0, abs=1e-12)

    def test_two_by_two_against_oracle(self):
        m = make_matrix([[10, 20], [30, 40]])
        contributions = chi_square(m, yates="off")
        total, per_cell = chi2_oracle([[10, 20], [30, 40]], yates=False)
        assert contributions.sum() == pytest.approx(total, abs=1e-9)
        np.testing.assert_allclose(contributions, per_cell, atol=1e-9)

    def test_total_matches_scipy_chi2_contingency(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(13)
        for _ in range(200):
            counts = random_pruned_counts(rng)
            oracle = stats.chi2_contingency(counts, correction=False).statistic
            total = chi_square(make_matrix(counts), yates="off").sum()
            assert total == pytest.approx(oracle, rel=1e-12, abs=1e-12)

    def test_per_term_column_sums(self):
        m = make_matrix([[10, 20], [30, 40]])
        contributions = chi_square(m, yates="off")
        per_term = term_scores(m, yates="off").chi2
        _, per_cell = chi2_oracle([[10, 20], [30, 40]], yates=False)
        expected_cols = [sum(row[k] for row in per_cell) for k in range(2)]
        np.testing.assert_allclose(per_term, expected_cols, atol=1e-9)
        assert per_term.sum() == pytest.approx(contributions.sum(), abs=1e-9)

    def test_random_matrices_match_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            counts = random_pruned_counts(rng, 6, 6)
            m = make_matrix(counts)
            for mode, flag in (("off", False), ("observed_lt_5", True)):
                contributions = chi_square(m, yates=mode)
                total, per_cell = chi2_oracle(counts.tolist(), yates=flag)
                assert contributions.sum() == pytest.approx(total, abs=1e-9)
                np.testing.assert_allclose(contributions, per_cell, atol=1e-9)

    def test_yates_never_increases_total(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = make_matrix(random_pruned_counts(rng, 6, 6))
            assert (
                chi_square(m, yates="observed_lt_5").sum()
                <= chi_square(m, yates="off").sum() + 1e-12
            )

    def test_yates_flags_mark_small_cells(self):
        m = make_matrix([[1, 20], [30, 40]])
        contributions = chi_square(m, yates="observed_lt_5")
        e = expected_matrix(m)
        corrected = (abs(1 - e[0, 0]) - 0.5) ** 2 / e[0, 0]  # observed 1 < 5
        assert contributions[0, 0] == pytest.approx(corrected, rel=1e-12)
        assert contributions[1, 1] == pytest.approx((40 - e[1, 1]) ** 2 / e[1, 1], rel=1e-12)

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(29)
        counts = random_pruned_counts(rng, 6, 6)
        base = chi_square(make_matrix(counts), yates="off").sum()
        shuffled = counts[rng.permutation(counts.shape[0])][
            :, rng.permutation(counts.shape[1])
        ]
        assert chi_square(make_matrix(shuffled), yates="off").sum() == pytest.approx(
            base, abs=1e-9
        )

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            chi_square(make_matrix([[1, 1], [1, 1]]), yates="sometimes")


class TestObsExp:
    def test_uniform_matrix(self):
        m = make_matrix(np.full((4, 3), 2))
        ratios = obs_exp(m)
        np.testing.assert_allclose(ratios, 1.0)
        np.testing.assert_allclose(ratios.sum(axis=0), 4.0)

    def test_two_by_two_example(self):
        ratios = obs_exp(make_matrix([[10, 20], [30, 40]]))
        np.testing.assert_allclose(
            ratios, [[10 / 12, 20 / 18], [30 / 28, 40 / 42]]
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m = make_matrix(random_pruned_counts(rng))
            ratios = obs_exp(m)
            for i in range(m.n_docs):
                for k in range(m.n_terms):
                    expected = m.row_margins[i] * m.col_margins[k] / m.total
                    assert abs(ratios[i, k] - m.counts[i, k] / expected) < 1e-12
            assert ((ratios == 0) == (m.counts == 0)).all()

    def test_ratio_of_column_sums_is_one(self):
        # Expected margins match observed margins, so only the sum of
        # per-cell ratios (not the ratio of sums) separates terms.
        rng = np.random.default_rng(37)
        m = make_matrix(random_pruned_counts(rng))
        e = expected_matrix(m)
        np.testing.assert_allclose(
            m.counts.sum(axis=0) / e.sum(axis=0), 1.0, atol=1e-9
        )


class TestSelectTerms:
    def scores(self):
        return term_scores(
            make_matrix([[5, 3, 1], [5, 3, 1]], terms=["a", "b", "c"])
        )

    def test_top_n_by_frequency(self):
        assert select_terms(self.scores(), "freq", top_n=2) == ["a", "b"]

    def test_tie_broken_lexicographically(self):
        scores = term_scores(make_matrix([[2, 2, 1]], terms=["z", "y", "x"]))
        assert select_terms(scores, "freq", top_n=2) == ["y", "z"]

    def test_threshold_filters(self):
        picked = select_terms(self.scores(), "freq", threshold=6.0)
        assert picked == ["a", "b"]  # column margins are 10, 6, 2

    def test_empty_selection_is_fatal(self):
        m = make_matrix(np.full((3, 4), 2))
        scores = term_scores(m)
        with pytest.raises(DataError, match="no terms selected"):
            select_terms(scores, "obsexp", threshold=99.0)

    def test_exactly_one_cut_parameter(self):
        with pytest.raises(ConfigError):
            select_terms(self.scores(), "freq")
        with pytest.raises(ConfigError):
            select_terms(self.scores(), "freq", top_n=2, threshold=1.0)

    def test_unknown_criterion_lists_valid_values(self):
        with pytest.raises(ConfigError, match="freq, tfidf, chi2, obsexp"):
            select_terms(self.scores(), "idf", top_n=2)

    def test_deterministic(self):
        scores = self.scores()
        for criterion in ("freq", "tfidf", "chi2", "obsexp"):
            first = select_terms(scores, criterion, top_n=3)
            second = select_terms(scores, criterion, top_n=3)
            assert first == second

    def test_scores_all_finite_nonnegative(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            scores = term_scores(make_matrix(random_pruned_counts(rng)))
            for values in (scores.freq, scores.doc_freq, scores.tfidf,
                           scores.chi2, scores.obs_exp_sum):
                assert np.isfinite(values).all()
                assert (values >= 0).all()
