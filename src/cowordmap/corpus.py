"""Load documents, tokenize, and build the word-document count matrix.

The pipeline starts here: a directory of ``.txt`` files (or a file with one
document per line) becomes a :class:`Corpus`, then a :class:`Vocabulary`,
then a :class:`WordDocMatrix` of occurrence counts with documents as rows
and terms as columns. Everything downstream (term statistics, similarity,
factors) consumes the matrix.

Example:
    >>> corpus = load_corpus("texts/", format="files")
    >>> cfg = TokenizerConfig()
    >>> vocab = build_vocabulary(corpus, cfg)
    >>> m = build_word_doc_matrix(corpus, vocab, cfg)
    >>> m.counts.shape
    (120, 3481)
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._stopwords import DEFAULT_STOPWORDS
from .errors import ConfigError, CowordMapWarning, DataError

__all__ = [
    "Corpus",
    "Document",
    "TokenizerConfig",
    "Vocabulary",
    "WordDocMatrix",
    "build_vocabulary",
    "build_word_doc_matrix",
    "load_corpus",
    "load_stopword_file",
    "load_synonym_file",
    "tokenize",
]

LABEL_MAX_CHARS = 40  # display labels are truncated for network files


@dataclass(frozen=True, slots=True)
class Document:
    """One unit of analysis: a row of the word-document matrix.

    Attributes:
        id: Unique identifier within the corpus (filename or line number).
        label: Display label, at most 40 characters.
        text: Raw text content.
    """

    id: str
    label: str
    text: str

    def __post_init__(self) -> None:
        if not self.label:
            raise DataError(f"document {self.id!r} has an empty label")


@dataclass(frozen=True, slots=True)
class Corpus:
    """An ordered collection of documents with unique ids."""

    documents: tuple[Document, ...]

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise DataError(f"duplicate document ids: {', '.join(dupes)}")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


@dataclass(frozen=True)
class TokenizerConfig:
    """Settings that turn raw text into terms.

    Tokens are maximal runs of letters/digits (punctuation splits tokens).
    Processing order per token: pattern match, lowercasing, synonym mapping,
    minimum-length filter, stopword filter. Stopword matching is
    case-insensitive (the list itself must be lowercase).

    Attributes:
        lowercase: Lowercase every token before further filtering.
        token_pattern: Regex describing one token.
        min_token_length: Tokens shorter than this are dropped.
        stopwords: Lowercase terms to exclude.
        synonyms: Mapping variant -> canonical term, applied after lowercasing.
    """

    lowercase: bool = True
    token_pattern: str = r"[^\W_]+"
    min_token_length: int = 1
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    synonyms: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ConfigError(
                f"min_token_length must be >= 1, got {self.min_token_length}"
            )
        bad = sorted(w for w in self.stopwords if w != w.lower())
        if bad:
            raise ConfigError(f"stopwords must be lowercase: {', '.join(bad[:5])}")
        try:
            re.compile(self.token_pattern)
        except re.error as exc:
            raise ConfigError(f"invalid token_pattern: {exc}") from exc


@dataclass(frozen=True)
class Vocabulary:
    """Surviving terms with corpus-wide counts.

    Terms are ordered by descending total frequency, ties broken
    lexicographically, so vocabulary construction is deterministic.

    Attributes:
        terms: Ordered unique terms.
        total_freq: Occurrences of each term summed over all documents.
        doc_freq: Number of documents each term occurs in.
    """

    terms: tuple[str, ...]
    total_freq: np.ndarray
    doc_freq: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)

    def index(self) -> dict[str, int]:
        """Return a term -> position lookup table."""
        return {t: i for i, t in enumerate(self.terms)}


class WordDocMatrix:
    """Occurrence counts with documents as rows and terms as columns.

    Rows and columns with a zero margin are pruned at construction so the
    expected-value matrix derived from the margins is positive everywhere.

    Attributes:
        counts: Nonnegative integer matrix, shape (documents, terms).
        doc_ids: Row identifiers.
        doc_labels: Row display labels.
        terms: Column terms.
    """

    def __init__(
        self,
        counts: np.ndarray,
        doc_ids: list[str],
        doc_labels: list[str],
        terms: list[str],
    ) -> None:
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise DataError("counts must be a 2-D matrix")
        if (counts < 0).any():
            raise DataError("counts must be nonnegative")
        if counts.shape != (len(doc_ids), len(terms)):
            raise DataError("counts shape does not match the labels")

        keep_rows = counts.sum(axis=1) > 0
        keep_cols = counts.sum(axis=0) > 0
        pruned_docs = [i for i, keep in zip(doc_ids, keep_rows) if not keep]
        pruned_terms = [t for t, keep in zip(terms, keep_cols) if not keep]
        if pruned_docs:
            warnings.warn(
                "pruned documents with all-zero counts: " + ", ".join(pruned_docs),
                CowordMapWarning,
                stacklevel=2,
            )
        if pruned_terms:
            warnings.warn(
                "pruned terms with all-zero counts: " + ", ".join(pruned_terms),
                CowordMapWarning,
                stacklevel=2,
            )
        counts = counts[keep_rows][:, keep_cols]
        if counts.size == 0:
            raise DataError("matrix is empty after pruning zero margins")

        self.counts = counts
        self.doc_ids = [i for i, keep in zip(doc_ids, keep_rows) if keep]
        self.doc_labels = [
            lbl for lbl, keep in zip(doc_labels, keep_rows) if keep
        ]
        self.terms = [t for t, keep in zip(terms, keep_cols) if keep]
        self.row_margins = counts.sum(axis=1)
        self.col_margins = counts.sum(axis=0)
        self.total = int(counts.sum())
        self.pruned_docs = pruned_docs
        self.pruned_terms = pruned_terms

    @property
    def n_docs(self) -> int:
        return self.counts.shape[0]

    @property
    def n_terms(self) -> int:
        return self.counts.shape[1]

    def select_terms(self, selected: list[str]) -> "WordDocMatrix":
        """Return the submatrix restricted to ``selected`` columns.

        Documents whose counts are all zero over the selected terms are
        pruned from the result (with a warning).
        """
        index = {t: k for k, t in enumerate(self.terms)}
        missing = [t for t in selected if t not in index]
        if missing:
            raise DataError(f"unknown terms: {', '.join(missing[:5])}")
        cols = [index[t] for t in selected]
        return WordDocMatrix(
            self.counts[:, cols],
            list(self.doc_ids),
            list(self.doc_labels),
            list(selected),
        )


def load_corpus(source: str | Path, format: str = "files") -> Corpus:
    """Read documents from a directory of text files or a one-doc-per-line file.

    Args:
        source: Directory of UTF-8 ``.txt`` files, or a UTF-8 text file.
        format: ``"files"`` (one document per file, sorted by filename) or
            ``"lines"`` (one document per non-empty line).

    Returns:
        The loaded corpus. Document ids are filenames for ``"files"`` and
        1-based line numbers for ``"lines"``; labels are the filename or the
        first 40 characters of the line.

    Raises:
        ConfigError: Unknown ``format`` value.
        DataError: The corpus is empty, or a file is not valid UTF-8.
        OSError: ``source`` does not exist or cannot be read.
    """
    source = Path(source)
    if format not in ("files", "lines"):
        raise ConfigError(f"unknown corpus format {format!r}; use files or lines")
    if not source.exists():
        raise FileNotFoundError(f"corpus source not found: {source}")

    docs: list[Document] = []
    if format == "files":
        if not source.is_dir():
            raise FileNotFoundError(f"not a directory: {source}")
        for path in sorted(source.glob("*.txt")):
            text = _read_utf8(path)
            docs.append(Document(id=path.name, label=path.name[:LABEL_MAX_CHARS], text=text))
    else:
        if not source.is_file():
            raise FileNotFoundError(f"not a file: {source}")
        for lineno, line in enumerate(_read_utf8(source).splitlines(), start=1):
            if not line.strip():
                continue
            label = line.strip()[:LABEL_MAX_CHARS]
            docs.append(Document(id=str(lineno), label=label, text=line))

    if not docs:
        raise DataError(f"empty corpus: no documents found in {source}")
    return Corpus(tuple(docs))


def _read_utf8(path: Path) -> str:
    """Read a UTF-8 text file; undecodable bytes are a DataError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def load_stopword_file(path: str | Path) -> frozenset[str]:
    """Read a stopword file, one lowercase term per line.

    The returned set replaces the bundled default entirely.
    """
    words = set()
    for line in _read_utf8(Path(path)).splitlines():
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


def load_synonym_file(path: str | Path) -> dict[str, str]:
    """Read a synonym file with ``variant<TAB>canonical`` per line."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(_read_utf8(Path(path)).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ConfigError(
                f"{path}:{lineno}: expected 'variant<TAB>canonical', got {line!r}"
            )
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping


def tokenize(doc: Document | str, cfg: TokenizerConfig) -> list[str]:
    """Split a document into filtered terms, preserving text order.

    Args:
        doc: A :class:`Document` or a raw string.
        cfg: Tokenizer settings.

    Returns:
        Tokens after pattern matching, optional lowercasing, synonym
        mapping, length filtering, and stopword removal. Empty text yields
        an empty list.
    """
    text = doc.text if isinstance(doc, Document) else doc
    pattern = re.compile(cfg.token_pattern, re.UNICODE)
    out: list[str] = []
    for raw in pattern.findall(text):
        token = raw.lower() if cfg.lowercase else raw
        token = cfg.synonyms.get(token, token)
        if len(token) < cfg.min_token_length:
            continue
        if token.lower() in cfg.stopwords:
            continue
        out.append(token)
    return out


def build_vocabulary(corpus: Corpus, cfg: TokenizerConfig) -> Vocabulary:
    """Count every surviving term across the corpus.

    Returns:
        Vocabulary ordered by descending total frequency, ties broken
        lexicographically.

    Raises:
        DataError: No token survives filtering.
    """
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


def build_word_doc_matrix(
    corpus: Corpus,
    vocab: Vocabulary,
    cfg: TokenizerConfig,
    binary: bool = False,
) -> WordDocMatrix:
    """Fill the documents x terms count matrix.

    Args:
        corpus: The corpus the vocabulary was built from.
        vocab: Vocabulary built with the same tokenizer settings.
        cfg: The same tokenizer settings.
        binary: Record presence (0/1) instead of occurrence counts.

    Returns:
        The pruned count matrix. ``counts[i][k]`` is the number of
        occurrences of term ``k`` in document ``i`` (or 1 under ``binary``).
    """
    index = vocab.index()
    counts = np.zeros((len(corpus), len(vocab)), dtype=np.int64)
    for i, doc in enumerate(corpus):
        for tok in tokenize(doc, cfg):
            k = index.get(tok)
            if k is not None:
                counts[i, k] += 1
    if binary:
        counts = (counts > 0).astype(np.int64)
    return WordDocMatrix(
        counts,
        [d.id for d in corpus],
        [d.label for d in corpus],
        list(vocab.terms),
    )
