"""The four term-selection statistics and the expected/ratio matrices.

For a pruned count matrix with row margins ``R``, column margins ``C`` and
grand total ``T``:

* expected value per cell: ``E = R_i * C_k / T``
* tf-idf per cell: ``count * log2(n_docs / doc_freq)``
* chi-square per cell: ``(O - E)^2 / E``, optionally Yates-corrected
* obs/exp per cell: ``O / E``

A term can then be scored by total frequency, by its tf-idf column sum, by
its chi-square column contribution, or by its obs/exp column sum, and the
top terms selected for mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import WordDocMatrix
from .errors import ConfigError, DataError, check_choice

__all__ = [
    "CRITERIA",
    "TermScores",
    "chi_square",
    "distinct_expected_cells",
    "expected_matrix",
    "obs_exp",
    "select_terms",
    "term_scores",
    "tfidf_matrix",
]

CRITERIA = ("freq", "tfidf", "chi2", "obsexp")
YATES = ("off", "observed_lt_5")


@dataclass(frozen=True)
class TermScores:
    """All four selection scores for every term, in matrix column order."""

    terms: list[str]
    freq: np.ndarray
    doc_freq: np.ndarray
    tfidf: np.ndarray
    chi2: np.ndarray
    obs_exp_sum: np.ndarray

    def by_criterion(self, criterion: str) -> np.ndarray:
        check_choice("criterion", criterion, CRITERIA)
        return {
            "freq": self.freq,
            "tfidf": self.tfidf,
            "chi2": self.chi2,
            "obsexp": self.obs_exp_sum,
        }[criterion]

    def ranked(self, criterion: str) -> list[int]:
        """Column indices by descending ``criterion`` score, ties broken by term."""
        values = self.by_criterion(criterion).tolist()
        return sorted(range(len(self.terms)), key=lambda k: (-values[k], self.terms[k]))


def _expected(m: WordDocMatrix, row_margins, col_margins=None) -> np.ndarray:
    """``outer(row_margins, C) / T``, or of ``col_margins``; a scalar margin gives one row."""
    cols = m.col_margins if col_margins is None else col_margins
    return np.multiply.outer(row_margins, cols) / m.total


def expected_matrix(m: WordDocMatrix) -> np.ndarray:
    """Compute expected cell values from the margin totals.

    Row and column sums of the result equal those of the observed matrix;
    all entries are positive because the input is pruned.
    """
    return _expected(m, m.row_margins)


def distinct_expected_cells(m: WordDocMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct cells of :func:`expected_matrix`, and each row's and column's index.

    An expected cell depends only on its two margins, so ``cells`` has one
    row per distinct row margin and one column per distinct column margin,
    both ascending. Each cell is computed as ``expected_matrix`` computes
    it, so ``cells[np.ix_(rows, cols)]`` has its bits.
    """
    row_margins, rows = np.unique(m.row_margins, return_inverse=True)
    col_margins, cols = np.unique(m.col_margins, return_inverse=True)
    return _expected(m, row_margins, col_margins), rows, cols


def tfidf_matrix(m: WordDocMatrix) -> np.ndarray:
    """Weight each cell by term frequency times log2(n_docs / doc_freq).

    A term present in every document gets an all-zero column.
    """
    idf = np.log2(m.n_docs / m.doc_freq)
    return m.counts * idf[np.newaxis, :]


def _chi_cells(counts: np.ndarray, expected: np.ndarray, yates: str) -> np.ndarray:
    """Per-cell chi-square contributions of ``counts``."""
    check_choice("yates", yates, YATES)
    deviation = np.abs(counts - expected)
    if yates == "observed_lt_5":
        deviation = np.where(counts < 5, np.maximum(deviation - 0.5, 0.0), deviation)
    return deviation**2 / expected


def chi_square(m: WordDocMatrix, yates: str = "observed_lt_5") -> np.ndarray:
    """Decompose the matrix chi-square into per-cell contributions; the statistic is their sum.

    Args:
        m: Pruned count matrix.
        yates: ``"observed_lt_5"`` corrects every cell whose observed count
            is below 5, replacing ``(O - E)^2 / E`` with
            ``(max(|O - E| - 0.5, 0))^2 / E``; ``"off"`` disables the
            correction. The corrected contribution is never larger than the
            uncorrected one.
    """
    return _chi_cells(m.counts, _expected(m, m.row_margins), yates)


def obs_exp(m: WordDocMatrix) -> np.ndarray:
    """Divide each observed count by its expected value.

    A cell is 0 exactly where the observed count is 0. On a uniform matrix
    every cell is 1 and every column sums to the number of documents.
    """
    return m.counts / _expected(m, m.row_margins)


def term_scores(m: WordDocMatrix, yates: str = "observed_lt_5") -> TermScores:
    """Compute all four selection scores for every term of the matrix.

    ``obs_exp_sum[k]`` says how far term ``k`` occurs above (``> n_docs``)
    or below expectation over the whole document set.

    Every score has the bits of the whole-matrix functions' ``sum(axis=0)``,
    which on a C-ordered matrix is a running sum from +0.0 in row order.
    Chi-square adds each dense row of
    :meth:`~cowordmap.corpus.WordDocMatrix.rows` in turn, so no temporary is
    larger than one row. The obs/exp and tf-idf sums come from the nonzeros
    alone: ``np.bincount(indices, weights)`` adds each column's nonzero cells
    in row order, each computed as the dense cell is, and the zero cells it
    skips are +0.0, which changes no sum of cells >= +0.0. (Partial totals
    summed afterwards would not keep the bits.)
    """
    idf = np.log2(m.n_docs / m.doc_freq)
    chi2 = np.zeros(m.n_terms)
    for margin, counts in zip(m.row_margins, m.rows()):
        chi2 += _chi_cells(counts, _expected(m, margin), yates)
    expected = np.repeat(m.row_margins, np.diff(m.indptr)) * m.col_margins[m.indices] / m.total
    ratio = np.bincount(m.indices, m.data / expected, minlength=m.n_terms)
    tfidf = np.bincount(m.indices, m.data * idf[m.indices], minlength=m.n_terms)
    return TermScores(
        terms=list(m.terms),
        freq=m.col_margins.astype(np.int64),
        doc_freq=m.doc_freq.astype(np.int64),
        tfidf=tfidf,
        chi2=chi2,
        obs_exp_sum=ratio,
    )


def select_terms(
    scores: TermScores,
    criterion: str,
    top_n: int | None = None,
    threshold: float | None = None,
) -> list[str]:
    """Pick terms by one of the four criteria.

    Terms are sorted by descending score, ties broken lexicographically,
    then cut at ``top_n`` or filtered to scores ``>= threshold`` (exactly
    one of the two must be given).

    Raises:
        ConfigError: Bad criterion or cut parameters.
        DataError: The selection is empty.
    """
    if (top_n is None) == (threshold is None):
        raise ConfigError("give exactly one of top_n and threshold")
    if top_n is not None and top_n < 1:
        raise ConfigError(f"top_n must be >= 1, got {top_n}")
    values = scores.by_criterion(criterion)
    order = scores.ranked(criterion)
    if top_n is not None:
        picked = order[:top_n]
    else:
        picked = [k for k in order if values[k] >= threshold]
    if not picked:
        raise DataError(
            f"no terms selected by criterion {criterion!r} at threshold {threshold}"
        )
    return [scores.terms[k] for k in picked]
