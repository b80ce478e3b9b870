"""Corpus loading, tokenization, vocabulary, and matrix construction."""

from __future__ import annotations

import os
import re
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import make_matrix, write_bytes_name
from cowordmap.corpus import (
    TokenizerConfig,
    WordDocMatrix,
    build_word_doc_matrix,
    load_corpus,
    load_stopword_file,
    load_synonym_file,
    tokenize,
)
from cowordmap.errors import ConfigError, CowordMapWarning, DataError
from cowordmap.vectorspace import Graph

NO_STOPWORDS = TokenizerConfig(stopwords=frozenset())


def corpus_of(*texts: str) -> dict[str, str]:
    return {f"d{i + 1}": t for i, t in enumerate(texts)}


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

    def test_cased_synonyms_are_a_config_error_only_under_lowercase(self):
        synonyms = {"Journals": "journal", "impacts": "IMPACT"}
        with pytest.raises(ConfigError, match=(
            "^synonyms must be lowercase when lowercase is on: IMPACT, Journals$"
        )):
            TokenizerConfig(synonyms=synonyms)
        cfg = TokenizerConfig(lowercase=False, stopwords=frozenset(), synonyms=synonyms)
        assert tokenize("Journals journals impacts Impact", cfg) == [
            "journal", "journals", "IMPACT", "Impact"
        ]

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


def tokenize_oracle(text: str, cfg: TokenizerConfig) -> list[str]:
    """The former tokenizer, kept as the oracle: every match filtered in turn."""
    out: list[str] = []
    for raw in re.compile(cfg.token_pattern, re.UNICODE).findall(text):
        token = raw.lower() if cfg.lowercase else raw
        token = cfg.synonyms.get(token, token)
        if len(token) < cfg.min_token_length:
            continue
        if token.lower() in cfg.stopwords:
            continue
        out.append(token)
    return out


def test_memoized_tokenizer_matches_the_per_token_oracle():
    """Each distinct match is filtered once per config, with the per-token
    result: casing that changes length (İ) or not (ß), synonyms that map to a
    stopword or to a too-short token, lowercase off, a one-group pattern, two
    configs taking turns over the same texts, and a synonyms dict and a
    stopword set edited after construction."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pool = ["İ", "İstanbul", "i̇stanbul", "ß", "STRASSE", "straße", "Straße", "the", "The",
            "a", "ab", "Ab", "map", "maps", "x1", "ü", "Ü", "9"]
    word = st.sampled_from(pool)
    text = st.lists(word, max_size=10).map(lambda ws: " -".join(ws))
    lower = st.sampled_from(sorted({w.lower() for w in pool}))
    configs = st.fixed_dictionaries({
        "lowercase": st.booleans(),
        "min_token_length": st.integers(1, 3),
        "stopwords": st.sets(lower, max_size=4),
        # "" and "a" are too short at min_token_length 2 and 3; "the" may be a stopword
        "synonyms": st.dictionaries(lower, st.sampled_from(["", "a", "the", "map", "ß"]),
                                    max_size=3),
        "token_pattern": st.sampled_from([r"[^\W_]+", r"(?:-)?(\w*)\b", r"\w+"]),
    })

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(texts=st.lists(text, min_size=1, max_size=5), first=configs,
                      second=configs)
    def check(texts, first, second):
        cfgs = [TokenizerConfig(**first), TokenizerConfig(**second)]
        want = [[tokenize_oracle(text, cfg) for cfg in cfgs] for text in texts]
        first["synonyms"].update({w.lower(): "edited" for w in pool})  # the caller's dict
        first["stopwords"].update(w.lower() for w in pool)  # and set
        for _ in range(2):  # the second pass reads the filled memo
            got = [[tokenize(text, cfg) for cfg in cfgs] for text in texts]
            assert got == want

    check()


def test_config_word_lists_are_read_only():
    cfg = TokenizerConfig(stopwords={"the"}, synonyms={"maps": "map"})
    assert tokenize("the maps", cfg) == ["map"]
    with pytest.raises(TypeError):
        cfg.synonyms["map"] = "the"
    with pytest.raises(AttributeError):
        cfg.stopwords.add("map")
    assert tokenize("the maps", cfg) == ["map"]


class TestLoadCorpus:
    def test_directory_of_files(self, tmp_path):
        (tmp_path / "a.txt").write_text("alpha", encoding="utf-8")
        (tmp_path / "b.txt").write_text("beta", encoding="utf-8")
        corpus = load_corpus(tmp_path, format="files")
        assert corpus == {"a.txt": "alpha", "b.txt": "beta"}

    def test_one_doc_per_line(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_text("one\n\ntwo\nthree\n", encoding="utf-8")
        corpus = load_corpus(path, format="lines")
        assert list(corpus.items()) == [("1", "one"), ("3", "two"), ("4", "three")]

    def test_lines_end_only_at_newlines(self, tmp_path):
        path = tmp_path / "docs.txt"
        path.write_bytes("map\x0cone\nmap\u2028two\n".encode("utf-8"))
        corpus = load_corpus(path, format="lines")
        assert list(corpus.items()) == [("1", "map\x0cone"), ("2", "map\u2028two")]
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(b"one\r\n\r\ntwo\r\n")
        lf = tmp_path / "lf.txt"
        lf.write_bytes(b"one\n\ntwo\n")
        assert load_corpus(crlf, format="lines") == load_corpus(lf, format="lines")

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

    def test_file_names_that_are_not_utf8_are_a_data_error(self, tmp_path):
        """Undecodable name bytes arrive as lone surrogates, which no writer can
        encode; the message lists the names as reprs, ten then the count."""
        names = [b"caf\xe9%02d.txt" % i for i in range(12)]
        if not all(write_bytes_name(tmp_path, name, "word") for name in names):
            pytest.skip("the file system refuses file names that are not UTF-8")
        (tmp_path / "fine.txt").write_text("word", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_corpus(tmp_path, format="files")
        ids = [repr(os.fsdecode(name)) for name in names[:10]]
        assert str(excinfo.value) == (
            "document ids must be valid UTF-8: " + ", ".join(ids) + ", ... (12 in all)")


@pytest.mark.parametrize("build, what", [
    (lambda ids: Graph(ids, [], []), "node labels"),
    (lambda ids: WordDocMatrix(np.ones((len(ids), 1)), ids, ["t"]), "document ids"),
    (lambda ids: WordDocMatrix(np.ones((1, len(ids))), ["d"], ids), "terms"),
], ids=["Graph", "WordDocMatrix-docs", "WordDocMatrix-terms"])
def test_duplicate_ids_name_ten_then_the_count(build, what):
    ids = [f"d{i:02d}" for i in range(30)]
    with pytest.raises(DataError) as excinfo:
        build(["once"] + ids[::-1] + ids)
    assert str(excinfo.value) == (
        f"duplicate {what}: " + ", ".join(ids[:10]) + ", ... (30 in all)")


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

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        stop, syn = tmp_path / "stop.txt", tmp_path / "syn.txt"
        stop.write_text("\ufeffthe\nof\n", encoding="utf-8")
        syn.write_text("\ufeffcolour\tcolor\n", encoding="utf-8")
        cfg = TokenizerConfig(stopwords=load_stopword_file(stop),
                              synonyms=load_synonym_file(syn))
        assert tokenize("The colour of maps", cfg) == ["color", "maps"]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_only_newlines_end_a_line(self, tmp_path, sep):
        stop = tmp_path / "stop.txt"
        stop.write_text(f"the{sep}of\n", encoding="utf-8")
        assert load_stopword_file(stop) == frozenset({f"the{sep}of"})
        syn = tmp_path / "syn.txt"
        syn.write_text(f"colour\tcolor{sep}grey\tgray\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="expected 'variant<TAB>canonical'"):
            load_synonym_file(syn)


class TestBuildVocabulary:
    """The vocabulary is the count matrix's columns: terms, totals, document counts."""

    def test_counts_and_tie_break(self):
        vocab = build_word_doc_matrix(corpus_of("a a b", "b"), NO_STOPWORDS, binary=False)
        assert vocab.terms == ["a", "b"]
        assert vocab.col_margins.tolist() == [2, 2]
        assert vocab.doc_freq.tolist() == [1, 2]

    def test_all_stopwords_is_fatal(self):
        cfg = TokenizerConfig(stopwords=frozenset({"a", "b"}))
        with pytest.raises(DataError, match="empty"):
            build_word_doc_matrix(corpus_of("a a b", "b"), cfg, binary=False)

    def test_empty_corpus_is_fatal(self):
        with pytest.raises(DataError):
            build_word_doc_matrix({}, NO_STOPWORDS, binary=False)

    def test_matches_single_pass_counting_oracle(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(30)]
        texts = [
            " ".join(rng.choice(words, size=rng.integers(5, 60)))
            for _ in range(12)
        ]
        vocab = build_word_doc_matrix(corpus_of(*texts), NO_STOPWORDS, binary=False)
        totals = Counter()
        docfreq = Counter()
        for text in texts:
            tokens = text.split()
            totals.update(tokens)
            docfreq.update(set(tokens))
        assert set(vocab.terms) == set(totals)
        for term, tf, df in zip(vocab.terms, vocab.col_margins, vocab.doc_freq):
            assert totals[term] == tf
            assert docfreq[term] == df
        ordered = sorted(totals, key=lambda t: (-totals[t], t))
        assert vocab.terms == ordered


def two_pass_vocabulary(corpus: dict[str, str], cfg: TokenizerConfig) -> tuple:
    """The former first ingest pass as the oracle: terms, total and document counts."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    totals: dict[str, int] = {}
    docfreq: dict[str, int] = {}
    for text in corpus.values():
        tokens = tokenize(text, cfg)
        for tok in tokens:
            totals[tok] = totals.get(tok, 0) + 1
        for tok in set(tokens):
            docfreq[tok] = docfreq.get(tok, 0) + 1
    if not totals:
        raise DataError("vocabulary is empty after stopword/length filtering")
    ordered = sorted(totals, key=lambda t: (-totals[t], t))
    return (
        ordered,
        np.array([totals[t] for t in ordered], dtype=np.int64),
        np.array([docfreq[t] for t in ordered], dtype=np.int64),
    )


def two_pass_matrix(
    corpus: dict[str, str], terms: list[str], cfg: TokenizerConfig, binary: bool = False
) -> WordDocMatrix:
    """The former second ingest pass, kept verbatim as the oracle."""
    index = {t: i for i, t in enumerate(terms)}
    counts = np.zeros((len(corpus), len(terms)), dtype=np.int64)
    for i, text in enumerate(corpus.values()):
        for tok in tokenize(text, cfg):
            k = index.get(tok)
            if k is not None:
                counts[i, k] += 1
    if binary:
        counts = (counts > 0).astype(np.int64)
    return WordDocMatrix(counts, list(corpus), list(terms))


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
        settings = dict(lowercase=lowercase, min_token_length=min_token_length,
                        stopwords=stopwords, synonyms=synonyms)
        cased = sorted({w for pair in synonyms.items() for w in pair} & {"Ab", "The", "Maps"})
        if lowercase and cased:  # a cased synonym could never match a lowercased token
            with pytest.raises(ConfigError) as raised:
                TokenizerConfig(**settings)
            assert str(raised.value) == (
                f"synonyms must be lowercase when lowercase is on: {', '.join(cased)}"
            )
            return
        cfg = TokenizerConfig(**settings)
        vocab, vocab_warnings = outcome(lambda: build_word_doc_matrix(corpus, cfg, binary=False))
        old_vocab, old_vocab_warnings = outcome(lambda: two_pass_vocabulary(corpus, cfg))
        assert old_vocab_warnings == []
        if isinstance(old_vocab, str):
            assert vocab == old_vocab
        else:
            old_terms, old_totals, old_doc_freq = old_vocab
            assert vocab.terms == old_terms
            assert np.array_equal(vocab.col_margins, old_totals)
            assert np.array_equal(vocab.doc_freq, old_doc_freq)
            assert vocab.col_margins.dtype == vocab.doc_freq.dtype == np.int64

        new, new_warnings = outcome(lambda: build_word_doc_matrix(corpus, cfg, binary=binary))
        old, old_warnings = outcome(
            lambda: two_pass_matrix(corpus, two_pass_vocabulary(corpus, cfg)[0], cfg, binary)
        )
        assert new_warnings == old_warnings == vocab_warnings
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
        for i, text in enumerate(corpus.values()):
            tokens = text.split()
            for k, term in enumerate(m.terms):
                assert m.counts[i, k] == tokens.count(term)
        assert m.total == sum(len(text.split()) for text in corpus.values())

    def test_doc_freq_equals_nonzero_rows(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(15)]
        texts = [" ".join(rng.choice(words, size=20)) for _ in range(6)]
        corpus = corpus_of(*texts)
        m = build_word_doc_matrix(corpus, NO_STOPWORDS, binary=False)
        assert m.doc_freq.tolist() == (m.counts > 0).sum(axis=0).tolist()
        binary = build_word_doc_matrix(corpus, NO_STOPWORDS, binary=True)
        assert binary.terms == m.terms
        assert binary.col_margins.tolist() == binary.doc_freq.tolist() == m.doc_freq.tolist()

    def test_deterministic(self):
        corpus = corpus_of("c a b a", "b c", "a a")
        m1 = build_word_doc_matrix(corpus, NO_STOPWORDS, binary=False)
        m2 = build_word_doc_matrix(corpus, NO_STOPWORDS, binary=False)
        assert np.array_equal(m1.counts, m2.counts)
        assert m1.terms == m2.terms == ["a", "b", "c"]
        assert m1.col_margins.tolist() == m2.col_margins.tolist() == [4, 2, 2]
        assert m1.doc_freq.tolist() == m2.doc_freq.tolist() == [2, 2, 2]

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

    @staticmethod
    def csr(dense: np.ndarray) -> tuple:
        rows, cols = np.nonzero(dense)
        return np.searchsorted(rows, range(len(dense) + 1)), cols, dense[rows, cols]

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("dense", [
        np.array([[0.5, 1.5], [2.0, 0.9]]), np.array([[-1.5, 1.0], [2.0, 3.0]]),
        np.array([[np.inf, 1.0], [2.0, 3.0]]), np.array([[-np.inf, 1.0], [2.0, 3.0]]),
        np.array([[np.nan, 1.0], [2.0, 3.0]]),
    ], ids=["fractions", "negative-fraction", "inf", "-inf", "nan"])
    def test_rejects_counts_that_are_not_finite_whole_numbers(self, layout, dense):
        counts = dense if layout == "dense" else self.csr(dense)
        with pytest.raises(DataError, match="finite whole numbers"):
            WordDocMatrix(counts, ["x", "y"], ["a", "b"])

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("dense", [
        np.array([[1.0, 0.0], [2.0, 3.0]]), np.array([[True, False], [True, True]]),
    ], ids=["integral-floats", "bools"])
    def test_accepts_integral_floats_and_bools(self, layout, dense):
        m = WordDocMatrix(dense if layout == "dense" else self.csr(dense), ["x", "y"], ["a", "b"])
        assert m.counts.dtype == np.int64
        assert m.counts.tolist() == dense.astype(np.int64).tolist()

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

    def test_select_terms_rejects_repeated_terms(self):
        m = make_matrix([[1, 1], [1, 1]])
        with pytest.raises(DataError, match="distinct"):
            m.select_terms(["t1", "t1"])

    def test_pruned_document_warning_names_ten_ids_then_the_count(self):
        counts = np.zeros((30, 2), dtype=np.int64)
        counts[25:] = 1  # the first 25 rows are all zero
        with pytest.warns(CowordMapWarning) as caught:
            m = make_matrix(counts)
        ids = [f"d{i + 1}" for i in range(25)]
        assert [str(w.message) for w in caught] == [
            "pruned documents with all-zero counts: " + ", ".join(ids[:10]) + ", ... (25 in all)"
        ]
        assert m.pruned_docs == ids
        assert m.doc_ids == [f"d{i + 1}" for i in range(25, 30)]


def dense_count_terms(
    corpus: dict[str, str], cfg: TokenizerConfig
) -> tuple[list[str], np.ndarray]:
    """The dense one-pass ingest the CSR one replaced, kept verbatim as the oracle."""
    if len(corpus) == 0:
        raise DataError("empty corpus")
    ids: dict[str, int] = {}
    cols: list[int] = []
    lengths: list[int] = []
    for text in corpus.values():
        tokens = tokenize(text, cfg)
        cols.extend([ids.setdefault(tok, len(ids)) for tok in tokens])
        lengths.append(len(tokens))
    if not ids:
        raise DataError("vocabulary is empty after stopword/length filtering")
    terms = list(ids)
    col = np.array(cols, dtype=np.int64)
    totals = np.bincount(col).tolist()
    order = sorted(range(len(terms)), key=lambda k: (-totals[k], terms[k]))
    rank = np.empty(len(terms), dtype=np.int64)
    rank[order] = np.arange(len(terms))
    row = np.repeat(np.arange(len(corpus), dtype=np.int64), lengths)
    shape = (len(corpus), len(terms))
    counts = np.bincount(row * shape[1] + rank[col], minlength=shape[0] * shape[1])
    return [terms[k] for k in order], counts.reshape(shape)


def dense_matrix(counts: np.ndarray, doc_ids: list[str], terms: list[str]):
    """What the dense WordDocMatrix held: the pruned counts, their margins,
    total and doc frequencies, and the pruning warnings (at most 10 ids, then
    the count); a str for the DataError of an empty result."""
    row_margins, col_margins = counts.sum(axis=1), counts.sum(axis=0)
    keep_rows, keep_cols = row_margins > 0, col_margins > 0
    messages = []
    for what, labels, keep in (("documents", doc_ids, keep_rows), ("terms", terms, keep_cols)):
        pruned = [label for label, k in zip(labels, keep) if not k]
        if pruned:
            more = f", ... ({len(pruned)} in all)" if len(pruned) > 10 else ""
            messages.append(f"pruned {what} with all-zero counts: " + ", ".join(pruned[:10]) + more)
    kept = counts[np.ix_(keep_rows, keep_cols)]
    if kept.size == 0:
        return "DataError: matrix is empty after pruning zero margins", messages
    return SimpleNamespace(
        counts=kept,
        doc_ids=[i for i, k in zip(doc_ids, keep_rows) if k],
        terms=[t for t, k in zip(terms, keep_cols) if k],
        row_margins=row_margins[keep_rows],
        col_margins=col_margins[keep_cols],
        total=int(kept.sum()),
        doc_freq=np.count_nonzero(kept, axis=0),
        pruned_docs=[i for i, k in zip(doc_ids, keep_rows) if not k],
    ), messages


def assert_same_matrix(got, want):
    """``got`` (a WordDocMatrix or an error string) equals ``want`` bit for bit."""
    if isinstance(want, str):
        assert got == want
        return
    for name in ("counts", "row_margins", "col_margins", "doc_freq"):
        value, expected = getattr(got, name), getattr(want, name)
        assert value.dtype == np.int64 and value.tobytes() == expected.tobytes(), name
        assert value.shape == expected.shape, name
    assert (got.doc_ids, got.terms, got.pruned_docs, got.total) == (
        want.doc_ids, want.terms, want.pruned_docs, want.total
    )
    assert (got.n_docs, got.n_terms) == want.counts.shape


def test_csr_matrix_matches_dense_builder():
    """CSR ingest and select_terms against the dense builder, bit for bit:
    empty and all-stopword documents (pruned, more than 10 at a time) and
    binary counts included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pool = ["a", "b", "ab", "Ab", "map", "Maps", "maps", "xyz", "x1", "the", "of"]
    words = st.lists(st.sampled_from(pool), min_size=1, max_size=9).map(" ".join)
    text = st.one_of(words, st.just(""), st.sampled_from(["the of", "The, of.", "of"]))
    seen = []

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(
        texts=st.lists(text, max_size=16),
        lowercase=st.booleans(),
        min_token_length=st.integers(1, 2),
        binary=st.booleans(),
        data=st.data(),
    )
    def check(texts, lowercase, min_token_length, binary, data):
        corpus = corpus_of(*texts)
        cfg = TokenizerConfig(lowercase=lowercase, min_token_length=min_token_length,
                              stopwords=frozenset({"the", "of"}))
        got, got_warnings = outcome(lambda: build_word_doc_matrix(corpus, cfg, binary=binary))
        try:
            terms, counts = dense_count_terms(corpus, cfg)
        except DataError as exc:
            assert got == f"DataError: {exc}"
            return
        if binary:
            np.minimum(counts, 1, out=counts)
        want, want_warnings = dense_matrix(counts, list(corpus), terms)
        assert got_warnings == want_warnings
        assert_same_matrix(got, want)
        if isinstance(want, str):
            return
        seen.append((len(want.pruned_docs), binary, int(counts.max())))
        picked = data.draw(st.lists(st.sampled_from(want.terms), unique=True))
        got_sub, got_sub_warnings = outcome(lambda: got.select_terms(picked))
        cols = [want.terms.index(t) for t in picked]
        want_sub, want_sub_warnings = dense_matrix(want.counts[:, cols], want.doc_ids, picked)
        assert got_sub_warnings == want_sub_warnings
        assert_same_matrix(got_sub, want_sub)

    check()
    assert any(pruned > 10 for pruned, _, _ in seen)
    assert any(binary for _, binary, _ in seen) and any(top > 1 for _, _, top in seen)


def test_rows_yield_the_dense_counts_one_fresh_row_at_a_time():
    """rows() gives int64 rows equal to counts[i], and counts is the pruned
    input, on random matrices, on select_terms submatrices (whose columns
    are not ascending within a row) and where documents were pruned."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 15)),
        density=st.floats(0.05, 1.0),
        data=st.data(),
    )
    def check(seed, shape, density, data):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 9, size=shape) * (rng.random(shape) < density)
        keep_rows, keep_cols = counts.sum(axis=1) > 0, counts.sum(axis=0) > 0
        if not keep_rows.any():
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CowordMapWarning)
            m = make_matrix(counts)
            picked = data.draw(st.lists(st.sampled_from(m.terms), min_size=1, unique=True))
            sub = m.select_terms(picked)
        want = counts[np.ix_(keep_rows, keep_cols)]
        cols = [m.terms.index(t) for t in picked]
        want_sub = want[:, cols][want[:, cols].sum(axis=1) > 0]
        for matrix, expected in ((m, want), (sub, want_sub)):
            rows = list(matrix.rows())
            assert matrix.counts.dtype == np.int64
            assert matrix.counts.tobytes() == expected.tobytes()
            assert len(rows) == matrix.n_docs
            for i, row in enumerate(rows):
                assert row.dtype == np.int64 and row.shape == (matrix.n_terms,)
                assert row.tobytes() == expected[i].tobytes()
        unsorted = any(
            (np.diff(sub.indices[a:b]) < 0).any() for a, b in zip(sub.indptr, sub.indptr[1:])
        )
        seen.append((unsorted, bool(m.pruned_docs), bool(sub.pruned_docs)))

    check()
    for case in range(3):
        assert any(flags[case] for flags in seen), case


def test_ingest_memory_stays_well_under_the_dense_matrix():
    """tracemalloc sees numpy's buffers: building a 400 x 5000 matrix at 2%
    density needs far less than its 16 MB of dense int64 counts."""
    rng = np.random.default_rng(0)
    words = [f"w{k}" for k in range(5000)]
    corpus = corpus_of(*(
        " ".join([*words[13 * i:13 * i + 13], *rng.choice(words, size=90)]) for i in range(400)
    ))
    tracemalloc.start()
    try:
        m = build_word_doc_matrix(corpus, NO_STOPWORDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.counts.shape == (400, 5000)
    assert peak < 16e6 / 4, peak
