"""Metamorphic oracles: how the analysis must respond to a transformed corpus.

Each relation compares a run on a transformed corpus with the run on the
original, so it needs no independent formula.
"""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from cowordmap.corpus import (
    Corpus,
    Document,
    TokenizerConfig,
    build_word_doc_matrix,
    load_corpus,
)
from cowordmap.errors import DataError
from cowordmap.factors import assign_factors, factor_analyze, varimax
from cowordmap.termstats import obs_exp, term_scores, tfidf_matrix
from cowordmap.vectorspace import cooccurrence, cosine_matrix, pearson_matrix

WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta")


def analyse(docs: list[Document], cfg: TokenizerConfig, factors: int | None) -> dict:
    """The products of every stage on the counts cells, with their warnings;
    ``factors`` retained and varimax-rotated unless None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = build_word_doc_matrix(Corpus(tuple(docs)), cfg)
        cells = m.counts.astype(float)
        result = {
            "m": m,
            "scores": term_scores(m),
            "obs_exp": obs_exp(m).values,
            "tfidf": tfidf_matrix(m),
            "cosine": cosine_matrix(cells, m.terms).values,
            "pearson": pearson_matrix(cells, m.terms).values,
            "cooc": cooccurrence(m).values,
        }
        if factors is not None:
            solution = varimax(factor_analyze(cells, m.terms, k=factors))
            assignment = assign_factors(solution)
            result["loadings"] = solution.loadings
            result["assignment"] = (assignment.factor.tolist(), assignment.sign.tolist())
    result["warnings"] = [str(w.message) for w in caught]
    return result


def check_duplication(docs: list[Document], cfg: TokenizerConfig, factors: int | None):
    """Every document again under a new id: cell ratios, idf, similarities and
    factors stay; term totals and co-occurrences double."""
    doubled = docs + [Document(f"copy-{d.id}", d.text) for d in docs]
    try:
        once = analyse(docs, cfg, factors)
    except DataError as exc:  # e.g. every term constant: no correlation matrix
        with pytest.raises(DataError, match=re.escape(str(exc))):
            analyse(doubled, cfg, factors)
        return
    twice = analyse(doubled, cfg, factors)
    n = once["m"].n_docs
    assert twice["m"].terms == once["m"].terms
    assert twice["m"].n_docs == 2 * n
    for key in ("obs_exp", "tfidf"):  # tf-idf cells keep their counts, so idf stays
        np.testing.assert_allclose(twice[key][:n], once[key], rtol=0, atol=1e-9)
        np.testing.assert_allclose(twice[key][n:], once[key], rtol=0, atol=1e-9)
    for key in ("cosine", "pearson", "loadings"):
        if key in once:
            np.testing.assert_allclose(twice[key], once[key], rtol=0, atol=1e-9)
    assert twice.get("assignment") == once.get("assignment")
    assert np.array_equal(twice["cooc"], 2 * once["cooc"])
    a, b = twice["scores"], once["scores"]
    assert np.array_equal(a.freq, 2 * b.freq)
    assert np.array_equal(a.doc_freq, 2 * b.doc_freq)
    for key in ("tfidf", "chi2", "obs_exp_sum"):
        np.testing.assert_allclose(getattr(a, key), 2 * getattr(b, key), rtol=1e-9, atol=0)
    assert twice["warnings"] == once["warnings"]


def test_duplicating_every_document_on_random_corpora():
    """The factor relations are left out here: on such small corpora exact
    ties in the loadings are common, and rounding noise breaks them."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=12), min_size=3, max_size=10,
    ))
    def check(texts):
        docs = [Document(f"d{i}", " ".join(words)) for i, words in enumerate(texts)]
        check_duplication(docs, TokenizerConfig(stopwords=frozenset()), factors=None)

    check()


def test_duplicating_every_micro_document_keeps_the_factors(micro_dir):
    check_duplication(list(load_corpus(micro_dir)), TokenizerConfig(), factors=5)
