"""Corpus loading, tokenization, vocabulary, and matrix construction."""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import make_matrix
from cowordmap.corpus import (
    Corpus,
    Document,
    TokenizerConfig,
    Vocabulary,
    WordDocMatrix,
    build_vocabulary,
    build_word_doc_matrix,
    load_corpus,
    load_stopword_file,
    load_synonym_file,
    tokenize,
)
from cowordmap.errors import ConfigError, CowordMapWarning, DataError

NO_STOPWORDS = TokenizerConfig(stopwords=frozenset())


def corpus_of(*texts: str) -> Corpus:
    return Corpus(
        tuple(
            Document(id=f"d{i + 1}", text=t)
            for i, t in enumerate(texts)
        )
    )


class TestTokenize:
    def test_stopwords_and_lowercase(self):
        cfg = TokenizerConfig(stopwords=frozenset({"the"}))
        assert tokenize("The Impact Factor.", cfg) == ["impact", "factor"]

    def test_empty_text(self):
        assert tokenize("", NO_STOPWORDS) == []

    def test_min_token_length(self):
        cfg = TokenizerConfig(stopwords=frozenset(), min_token_length=2)
        assert tokenize("A1 B2 c", cfg) == ["a1", "b2"]

    def test_punctuation_splits(self):
        assert tokenize("co-word; maps!", NO_STOPWORDS) == ["co", "word", "maps"]

    def test_case_insensitive_stopwords_without_lowercasing(self):
        cfg = TokenizerConfig(lowercase=False, stopwords=frozenset({"the"}))
        assert tokenize("The Impact", cfg) == ["Impact"]

    def test_synonyms_applied_after_lowercasing(self):
        cfg = TokenizerConfig(
            stopwords=frozenset(), synonyms={"colours": "colour"}
        )
        assert tokenize("Colours of colour", cfg) == ["colour", "of", "colour"]

    def test_idempotent_on_own_output(self):
        text = "Impact factors; citation networks, and 2 maps."
        cfg = TokenizerConfig()
        once = tokenize(text, cfg)
        assert tokenize(" ".join(once), cfg) == once

    def test_order_preserved(self):
        assert tokenize("b c a b", NO_STOPWORDS) == ["b", "c", "a", "b"]

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            TokenizerConfig(min_token_length=0)
        with pytest.raises(ConfigError):
            TokenizerConfig(stopwords=frozenset({"The"}))
        with pytest.raises(ConfigError):
            TokenizerConfig(token_pattern="[unclosed")


class TestLoadCorpus:
    def test_directory_of_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        corpus = load_corpus(tmp_path, format="files")
        assert [d.id for d in corpus] == ["a.txt", "b.txt"]
        assert [d.text for d in corpus] == ["alpha", "beta"]

    def test_one_doc_per_line(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("one\n\ntwo\nthree\n", encoding="utf-8")
        corpus = load_corpus(path, format="lines")
        assert len(corpus) == 3
        assert [d.id for d in corpus] == ["1", "3", "4"]

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DataError, match="empty corpus"):
            load_corpus(tmp_path, format="files")

    def test_missing_source_names_path(self, tmp_path):
        missing = tmp_path / "nowhere"
        with pytest.raises(FileNotFoundError, match="nowhere"):
            load_corpus(missing, format="files")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            load_corpus(tmp_path, format="records")


class TestStopwordAndSynonymFiles:
    def test_stopword_file_replaces_default(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("foo\nBar\n\n# comment\n", encoding="utf-8")
        words = load_stopword_file(path)
        assert words == frozenset({"foo", "bar"})

    def test_synonym_file(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("colours\tcolour\nmaps\tmap\n", encoding="utf-8")
        assert load_synonym_file(path) == {"colours": "colour", "maps": "map"}

    def test_synonym_file_malformed(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("no-tab-here\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1"):
            load_synonym_file(path)


class TestBuildVocabulary:
    def test_counts_and_tie_break(self):
        vocab = build_vocabulary(corpus_of("a a b", "b"), NO_STOPWORDS)
        assert vocab.terms == ("a", "b")
        assert vocab.total_freq.tolist() == [2, 2]
        assert vocab.doc_freq.tolist() == [1, 2]

    def test_all_stopwords_is_fatal(self):
        cfg = TokenizerConfig(stopwords=frozenset({"a", "b"}))
        with pytest.raises(DataError, match="empty"):
            build_vocabulary(corpus_of("a a b", "b"), cfg)

    def test_empty_corpus_is_fatal(self):
        with pytest.raises(DataError):
            build_vocabulary(Corpus(()), NO_STOPWORDS)

    def test_matches_single_pass_counting_oracle(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(5, 60)))
            for _ in range(12)
        ]
        vocab = build_vocabulary(corpus_of(*texts), NO_STOPWORDS)
        totals = Counter()
        docfreq = Counter()
        for text in texts:
            tokens = text.split()
            totals.update(tokens)
            docfreq.update(set(tokens))
        assert set(vocab.terms) == set(totals)
        for term, tf, df in zip(vocab.terms, vocab.total_freq, vocab.doc_freq):
            assert totals[term] == tf
            assert docfreq[term] == df
        ordered = sorted(totals, key=lambda t: (-totals[t], t))
        assert list(vocab.terms) == ordered


def two_pass_vocabulary(corpus: Corpus, cfg: TokenizerConfig) -> Vocabulary:
    """The former first ingest pass, kept verbatim as the oracle."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    totals: dict[str, int] = {}
    docfreq: dict[str, int] = {}
    for doc in corpus:
        tokens = tokenize(doc, cfg)
        for tok in tokens:
            totals[tok] = totals.get(tok, 0) + 1
        for tok in set(tokens):
            docfreq[tok] = docfreq.get(tok, 0) + 1
    if not totals:
        raise DataError("vocabulary is empty after stopword/length filtering")
    ordered = sorted(totals, key=lambda t: (-totals[t], t))
    return Vocabulary(
        terms=tuple(ordered),
        total_freq=np.array([totals[t] for t in ordered], dtype=np.int64),
        doc_freq=np.array([docfreq[t] for t in ordered], dtype=np.int64),
    )


def two_pass_matrix(
    corpus: Corpus, vocab: Vocabulary, cfg: TokenizerConfig, binary: bool = False
) -> WordDocMatrix:
    """The former second ingest pass, kept verbatim as the oracle."""
    index = {t: i for i, t in enumerate(vocab.terms)}
    counts = np.zeros((len(corpus), len(vocab)), dtype=np.int64)
    for i, doc in enumerate(corpus):
        for tok in tokenize(doc, cfg):
            k = index.get(tok)
            if k is not None:
                counts[i, k] += 1
    if binary:
        counts = (counts > 0).astype(np.int64)
    return WordDocMatrix(counts, [d.id for d in corpus], list(vocab.terms))


def outcome(build):
    """What ``build()`` returns or the DataError it raises, with its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build()
        except DataError as exc:
            result = f"DataError: {exc}"
    return result, [str(w.message) for w in caught]


def test_one_pass_ingest_matches_two_pass_oracle():
    """Random corpora give the two-pass builder's vocabulary and matrix."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pool = ["a", "b", "ab", "Ab", "the", "The", "of", "map", "Maps", "maps", "xyz", "x1"]
    word = st.sampled_from(pool)
    text = st.lists(word, max_size=8).map(" ".join) | st.lists(word, max_size=8).map(", ".join)
    lower = st.sampled_from([w.lower() for w in pool])

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(
        texts=st.lists(text, max_size=6),
        lowercase=st.booleans(),
        min_token_length=st.integers(1, 3),
        stopwords=st.frozensets(lower, max_size=4),
        synonyms=st.dictionaries(word, word, max_size=3),
        binary=st.booleans(),
    )
    def check(texts, lowercase, min_token_length, stopwords, synonyms, binary):
        corpus = corpus_of(*texts)
        cfg = TokenizerConfig(
            lowercase=lowercase, min_token_length=min_token_length,
            stopwords=stopwords, synonyms=synonyms,
        )
        vocab, vocab_warnings = outcome(lambda: build_vocabulary(corpus, cfg))
        old_vocab, old_vocab_warnings = outcome(lambda: two_pass_vocabulary(corpus, cfg))
        assert vocab_warnings == old_vocab_warnings == []
        if isinstance(old_vocab, str):
            assert vocab == old_vocab
        else:
            assert vocab.terms == old_vocab.terms
            assert np.array_equal(vocab.total_freq, old_vocab.total_freq)
            assert np.array_equal(vocab.doc_freq, old_vocab.doc_freq)
            assert vocab.total_freq.dtype == vocab.doc_freq.dtype == np.int64

        new, new_warnings = outcome(lambda: build_word_doc_matrix(corpus, cfg, binary=binary))
        old, old_warnings = outcome(
            lambda: two_pass_matrix(corpus, two_pass_vocabulary(corpus, cfg), cfg, binary)
        )
        assert new_warnings == old_warnings
        if isinstance(old, str):
            assert new == old
            return
        assert new.terms == old.terms
        assert new.counts.dtype == old.counts.dtype == np.int64
        assert np.array_equal(new.counts, old.counts)
        assert new.doc_ids == old.doc_ids
        assert new.pruned_docs == old.pruned_docs

    check()


class TestBuildWordDocMatrix:
    def test_small_example(self):
        corpus = corpus_of("a a b", "b")
        m = build_word_doc_matrix(corpus, NO_STOPWORDS)
        by_term = {t: m.counts[:, k].tolist() for k, t in enumerate(m.terms)}
        assert by_term == {"a": [2, 0], "b": [1, 1]}
        assert m.row_margins.tolist() == [3, 1]
        assert sorted(m.col_margins.tolist()) == [2, 2]
        assert m.total == 4

    def test_single_document(self):
        corpus = corpus_of("x y x")
        m = build_word_doc_matrix(corpus, NO_STOPWORDS)
        assert m.counts.shape[0] == 1
        assert m.row_margins[0] == m.total == 3

    def test_matches_per_cell_recount(self):
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(25)]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(3, 40)))
            for _ in range(9)
        ]
        corpus = corpus_of(*texts)
        m = build_word_doc_matrix(corpus, NO_STOPWORDS)
        for i, doc in enumerate(corpus):
            tokens = doc.text.split()
            for k, term in enumerate(m.terms):
                assert m.counts[i, k] == tokens.count(term)
        assert m.total == sum(len(d.text.split()) for d in corpus)

    def test_doc_freq_equals_nonzero_rows(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(15)]
        texts = [" ".join(rng.choice(words, size=20)) for _ in range(6)]
        corpus = corpus_of(*texts)
        vocab = build_vocabulary(corpus, NO_STOPWORDS)
        m = build_word_doc_matrix(corpus, NO_STOPWORDS)
        assert list(vocab.terms) == m.terms
        for k, df in enumerate(vocab.doc_freq):
            assert df == (m.counts[:, k] > 0).sum()

    def test_deterministic(self):
        corpus = corpus_of("c a b a", "b c", "a a")
        vocab1 = build_vocabulary(corpus, NO_STOPWORDS)
        vocab2 = build_vocabulary(corpus, NO_STOPWORDS)
        assert vocab1.terms == vocab2.terms
        m1 = build_word_doc_matrix(corpus, NO_STOPWORDS)
        m2 = build_word_doc_matrix(corpus, NO_STOPWORDS)
        assert np.array_equal(m1.counts, m2.counts)
        assert m1.terms == m2.terms

    def test_binary_mode(self):
        corpus = corpus_of("a a a b", "a")
        m = build_word_doc_matrix(corpus, NO_STOPWORDS, binary=True)
        assert set(m.counts.ravel().tolist()) <= {0, 1}
        by_term = {t: m.counts[:, k].tolist() for k, t in enumerate(m.terms)}
        assert by_term["a"] == [1, 1]

    def test_prunes_empty_documents_with_warning(self):
        cfg = TokenizerConfig(stopwords=frozenset({"the"}))
        corpus = corpus_of("the the", "impact factor")
        with pytest.warns(CowordMapWarning, match="pruned documents.*d1"):
            m = build_word_doc_matrix(corpus, cfg)
        assert m.pruned_docs == ["d1"]
        assert m.doc_ids == ["d2"]

    def test_select_terms_submatrix(self):
        m = make_matrix([[2, 1, 0], [0, 1, 3]])
        sub = m.select_terms(["t1", "t3"])
        assert sub.terms == ["t1", "t3"]
        assert np.array_equal(sub.counts, [[2, 0], [0, 3]])

    def test_select_terms_prunes_emptied_rows(self):
        m = make_matrix([[2, 1], [0, 1]])
        with pytest.warns(CowordMapWarning, match="d2"):
            sub = m.select_terms(["t1"])
        assert sub.doc_ids == ["d1"]

    def test_select_terms_unknown_term(self):
        m = make_matrix([[1, 1], [1, 1]])
        with pytest.raises(DataError, match="unknown"):
            m.select_terms(["nope"])
