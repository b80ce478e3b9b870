"""Metamorphic oracles: how the analysis must respond to a transformed corpus.

Each relation compares a run on a transformed corpus with the run on the
original, so it needs no independent formula.
"""

from __future__ import annotations

import itertools
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from cowordmap.corpus import (
    TokenizerConfig,
    build_word_doc_matrix,
    load_corpus,
)
from cowordmap.errors import DataError
from cowordmap.factors import assign_factors, factor_analyze, varimax
from cowordmap.pipeline import ARTIFACTS, PipelineConfig, run, run_stage
from cowordmap.termstats import obs_exp, term_scores, tfidf_matrix
from cowordmap.vectorspace import cooccurrence, cosine_matrix, pearson_matrix, threshold_graph

WORDS = ("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta")
COS_THRESHOLD = PipelineConfig().cos_threshold


def analyse(docs: dict[str, str], cfg: TokenizerConfig, factors: int | None) -> dict:
    """The products of every stage on the counts cells, with their warnings;
    ``factors`` retained and varimax-rotated unless None."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = build_word_doc_matrix(docs, cfg)
        cells = m.counts.astype(float)
        cosine = cosine_matrix(cells, m.terms)
        result = {
            "m": m,
            "scores": term_scores(m),
            "obs_exp": obs_exp(m),
            "tfidf": tfidf_matrix(m),
            "cosine": cosine.values,
            "edges": threshold_graph(cosine, COS_THRESHOLD).edges.tolist(),
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


def check_duplication(docs: dict[str, str], cfg: TokenizerConfig, factors: int | None):
    """Every document again under a new id: cell ratios, idf, similarities,
    factors and the cosine map's edges stay; term totals and co-occurrences
    double."""
    doubled = {**docs, **{f"copy-{k}": v for k, v in docs.items()}}
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
    if not (abs(once["cosine"] - COS_THRESHOLD) < 1e-9).any():  # no tie at the cut
        assert twice["edges"] == once["edges"]
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
        docs = {f"d{i}": " ".join(words) for i, words in enumerate(texts)}
        check_duplication(docs, TokenizerConfig(stopwords=frozenset()), factors=None)

    check()


def test_duplicating_every_micro_document_keeps_the_factors(micro_dir):
    check_duplication(load_corpus(micro_dir), TokenizerConfig(), factors=5)


def run_outcome(config: PipelineConfig, out) -> dict:
    """Every artifact's bytes after ``run``, or the DataError it raised;
    ``report.json`` parsed."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(config)
    except DataError as exc:
        return {"error": str(exc)}
    result = {name: (out / name).read_bytes() for name in ARTIFACTS}
    result["report.json"] = json.loads(result["report.json"])
    return result


def test_binary_counts_change_nothing_when_no_document_repeats_a_token(tmp_path, monkeypatch):
    """On a corpus where every count is 0 or 1, --binary gives the same bytes
    in every artifact; report.json differs only in the echoed config.binary."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    words = (*WORDS, "theta", "iota", "kappa")
    examples, seen = itertools.count(), []

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        texts=st.lists(
            st.lists(st.sampled_from(words), min_size=1, max_size=8, unique=True),
            min_size=3, max_size=10,
        ),
        top=st.sampled_from([3, 6, 30]),
        layout=st.sampled_from(["fr", "kk"]),
    )
    def check(texts, top, layout):
        example = tmp_path / str(next(examples))
        example.mkdir()
        corpus = example / "corpus.txt"
        corpus.write_text("".join(" ".join(t) + "\n" for t in texts), encoding="utf-8")
        outcomes = []
        for binary in (False, True):
            (example / str(binary)).mkdir()
            monkeypatch.chdir(example / str(binary))  # both reports echo the same out
            config = PipelineConfig.build({
                "input": str(corpus), "input_format": "lines", "out": "out",
                "top": top, "layout": layout, "binary": binary,
            })
            outcomes.append(run_outcome(config, example / str(binary) / "out"))
        counts, binary = outcomes
        if "report.json" in binary:
            assert binary["report.json"]["config"].pop("binary") is True
            assert counts["report.json"]["config"].pop("binary") is False
        assert binary == counts
        seen.append("error" not in counts)

    check()
    assert sum(seen) > len(seen) // 2


def test_permuting_the_documents_permutes_only_the_rows():
    """The documents in another order, ids kept: term totals, document
    frequencies and co-occurrences stay exactly; scores summed over the rows
    stay within rounding, and every cell matrix is the same rows reordered."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cfg = TokenizerConfig(stopwords=frozenset())

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        texts = data.draw(st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=12), min_size=3, max_size=10,
        ))
        order = list(data.draw(st.permutations(range(len(texts)))))
        docs = {f"d{i}": " ".join(words) for i, words in enumerate(texts)}
        ids = [f"d{i}" for i in order]
        shuffled = {i: docs[i] for i in ids}
        try:
            before = analyse(docs, cfg, factors=None)
        except DataError as exc:
            with pytest.raises(DataError, match=re.escape(str(exc))):
                analyse(shuffled, cfg, factors=None)
            return
        after = analyse(shuffled, cfg, factors=None)
        assert after["m"].terms == before["m"].terms
        assert after["m"].doc_ids == ids
        a, b = after["scores"], before["scores"]
        assert np.array_equal(a.freq, b.freq)
        assert np.array_equal(a.doc_freq, b.doc_freq)
        assert np.array_equal(after["cooc"], before["cooc"])
        for key in ("tfidf", "chi2", "obs_exp_sum"):
            np.testing.assert_allclose(getattr(a, key), getattr(b, key), rtol=1e-12, atol=0)
        assert np.array_equal(after["m"].counts, before["m"].counts[order])
        for key in ("obs_exp", "tfidf"):
            np.testing.assert_allclose(after[key], before[key][order], rtol=1e-12, atol=0)

    check()


def test_permuting_the_lines_keeps_the_cooccurrences_and_the_frequency_ranking(tmp_path):
    """Through the pipeline at criterion = freq, whose integer scores cannot
    tie by rounding: coocc.dat keeps its bytes and terms.csv its term order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    examples = itertools.count()

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), top=st.sampled_from([2, 4, 30]))
    def check(data, top):
        texts = data.draw(st.lists(
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8), min_size=3, max_size=10,
        ))
        order = data.draw(st.permutations(range(len(texts))))
        example = tmp_path / str(next(examples))
        example.mkdir()
        outcomes = []
        for name, lines in (("before", texts), ("after", [texts[i] for i in order])):
            corpus = example / f"{name}.txt"
            corpus.write_text("".join(" ".join(t) + "\n" for t in lines), encoding="utf-8")
            out = example / name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_stage(PipelineConfig.build({
                    "input": str(corpus), "input_format": "lines", "out": str(out),
                    "criterion": "freq", "top": top,
                }), "cooc")
            terms = (out / "terms.csv").read_text(encoding="utf-8").splitlines()
            outcomes.append(((out / "coocc.dat").read_bytes(),
                             [line.partition(",")[0] for line in terms]))
        assert outcomes[0] == outcomes[1]

    check()


# No stopword can be spelled without a vowel, a y, a z or a q, so words over
# these letters all survive, and none holds the prefix.
CONSONANTS = "bcdfghjklmnprstvwx"
PREFIX = "zq"


def test_a_common_prefix_on_every_term_changes_no_table_or_network(tmp_path, monkeypatch):
    """Every CSV and Pajek artifact is byte-identical once the prefix is
    stripped: terms keep their ranks, ties included, since a common prefix
    keeps the lexicographic order."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tables = [name for name in ARTIFACTS if name.endswith((".csv", ".dat", ".net"))]
    examples, seen = itertools.count(), []

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        data=st.data(),
        top=st.sampled_from([3, 6, 30]),
        layout=st.sampled_from(["fr", "kk"]),
    )
    def check(data, top, layout):
        vocabulary = data.draw(st.lists(
            st.text(CONSONANTS, min_size=1, max_size=4), min_size=3, max_size=8, unique=True,
        ))
        texts = data.draw(st.lists(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=8),
            min_size=3, max_size=10,
        ))
        example = tmp_path / str(next(examples))
        outcomes = []
        for prefix in ("", PREFIX):
            (example / prefix).mkdir(parents=True, exist_ok=True)
            monkeypatch.chdir(example / prefix)
            corpus = Path("corpus.txt")
            corpus.write_text(
                "".join(" ".join(prefix + w for w in t) + "\n" for t in texts),
                encoding="utf-8",
            )
            config = PipelineConfig.build({
                "input": str(corpus), "input_format": "lines", "out": "out",
                "top": top, "layout": layout,
            })
            outcome = run_outcome(config, Path("out"))
            outcomes.append({
                name: value.replace(PREFIX.encode(), b"") if isinstance(value, bytes)
                else value.replace(PREFIX, "")
                for name, value in outcome.items() if name in tables or name == "error"
            })
        plain, prefixed = outcomes
        assert prefixed == plain
        seen.append("error" not in plain)

    check()
    assert sum(seen) > len(seen) // 2
