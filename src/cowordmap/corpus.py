"""Load documents, tokenize, and build the word-document count matrix.

The pipeline starts here: a directory of ``.txt`` files (or a file with one
document per line) becomes a corpus, an ordered ``{id: text}`` dict, and one
tokenizing pass turns that into a :class:`WordDocMatrix` of occurrence counts
with documents as rows and terms as columns, kept as compressed sparse rows.
Everything downstream consumes the matrix: term statistics and ``matrix.csv``
read it one dense row at a time, similarity and factors a selected submatrix
whole.

Example:
    >>> corpus = load_corpus("texts/", format="files")
    >>> cfg = TokenizerConfig()
    >>> m = build_word_doc_matrix(corpus, cfg)
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
from .errors import ConfigError, CowordMapWarning, DataError, capped_ids
from .errors import check_choice, check_unique

__all__ = [
    "TokenizerConfig",
    "WordDocMatrix",
    "build_word_doc_matrix",
    "load_corpus",
    "load_stopword_file",
    "load_synonym_file",
    "read_lines",
    "tokenize",
]

FORMATS = ("files", "lines")
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # the code points UTF-8 cannot encode


@dataclass(frozen=True)
class TokenizerConfig:
    """Settings that turn raw text into terms.

    Tokens are maximal runs of letters/digits (punctuation splits tokens).
    Processing order per token: pattern match, lowercasing, synonym mapping,
    minimum-length filter, stopword filter. Stopword matching is
    case-insensitive (the list itself must be lowercase); with ``lowercase``
    on, both sides of every synonym must be lowercase too.

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
            raise ConfigError(f"stopwords must be lowercase: {capped_ids(bad)}")
        bad = sorted({w for pair in self.synonyms.items() for w in pair if w != w.lower()})
        if self.lowercase and bad:
            raise ConfigError(
                f"synonyms must be lowercase when lowercase is on: {capped_ids(bad)}"
            )
        try:
            if re.compile(self.token_pattern).groups > 1:  # findall would yield tuples
                raise re.error("two or more capture groups; group with (?:...) instead")
        except re.error as exc:
            raise ConfigError(f"invalid token_pattern: {exc}") from exc


def _whole(counts) -> np.ndarray:
    """``counts`` as int64; a DataError unless every value is a finite whole number."""
    counts = np.asarray(counts)
    if counts.dtype.kind == "f" and not (np.isfinite(counts) & (counts == np.trunc(counts))).all():
        raise DataError("counts must be finite whole numbers")
    return counts.astype(np.int64, copy=False)


class WordDocMatrix:
    """Occurrence counts with documents as rows and terms as columns.

    Compressed sparse rows: row ``i`` has the nonzero counts
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]`` of that
    slice. The margins, ``total`` and ``doc_freq`` are exact integers from
    these arrays. :attr:`counts` builds the dense matrix on each access, and
    :meth:`rows` one dense row at a time. Rows and columns with a zero margin
    are pruned at construction (ids in ``pruned_docs``), so every expected
    value from the margins is positive. A repeated document id or term is a
    DataError.
    """

    def __init__(self, counts: np.ndarray | tuple, doc_ids: list[str], terms: list[str]):
        """``counts`` is a dense matrix or a CSR triple ``(indptr, indices, data)``."""
        if isinstance(counts, tuple):
            indptr, indices = (np.asarray(a, dtype=np.int64) for a in counts[:2])
            data, shape = _whole(counts[2]), (len(indptr) - 1, len(terms))
        else:
            counts = _whole(counts)
            if counts.ndim != 2:
                raise DataError("counts must be a 2-D matrix")
            shape, (rows, indices) = counts.shape, np.nonzero(counts)
            data, indptr = counts[rows, indices], np.searchsorted(rows, range(len(counts) + 1))
        if (data < 0).any():
            raise DataError("counts must be nonnegative")
        if shape != (len(doc_ids), len(terms)):
            raise DataError("counts shape does not match the labels")
        check_unique(doc_ids, "document ids")
        check_unique(terms, "terms")

        row_margins = np.diff(np.concatenate([[0], np.cumsum(data)])[indptr])
        col_margins = np.zeros(len(terms), dtype=np.int64)
        np.add.at(col_margins, indices, data)
        keep_rows, keep_cols = row_margins > 0, col_margins > 0
        self.pruned_docs = [i for i, keep in zip(doc_ids, keep_rows) if not keep]
        _warn_pruned("documents", self.pruned_docs)
        _warn_pruned("terms", [t for t, keep in zip(terms, keep_cols) if not keep])
        if not (keep_rows.any() and keep_cols.any()):
            raise DataError("matrix is empty after pruning zero margins")

        # Pruned rows and columns hold no entry: keep row end pointers, renumber columns.
        self.indptr = np.concatenate([[0], indptr[1:][keep_rows]])
        self.indices, self.data = (np.cumsum(keep_cols) - 1)[indices], data
        self.doc_ids = [i for i, keep in zip(doc_ids, keep_rows) if keep]
        self.terms = [t for t, keep in zip(terms, keep_cols) if keep]
        self.row_margins = row_margins[keep_rows]
        self.col_margins = col_margins[keep_cols]
        self.total = int(self.row_margins.sum())
        self.doc_freq = np.bincount(self.indices, minlength=len(self.terms))

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @property
    def counts(self) -> np.ndarray:
        """The dense int64 counts, shape (documents, terms), scattered from CSR on each access."""
        counts = np.zeros((self.n_docs, self.n_terms), dtype=np.int64)
        counts[np.repeat(np.arange(self.n_docs), np.diff(self.indptr)), self.indices] = self.data
        return counts

    def rows(self):
        """Each document's dense int64 counts in row order, scattered into a fresh row."""
        for start, stop in zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist()):
            row = np.zeros(self.n_terms, dtype=np.int64)
            row[self.indices[start:stop]] = self.data[start:stop]
            yield row

    def select_terms(self, selected: list[str]) -> "WordDocMatrix":
        """Return the submatrix restricted to the distinct ``selected`` columns.

        Documents whose counts are all zero over the selected terms are
        pruned from the result (with a warning).
        """
        index = {t: k for k, t in enumerate(self.terms)}
        missing = [t for t in selected if t not in index]
        if missing:
            raise DataError(f"unknown terms: {capped_ids(missing)}")
        if len(set(selected)) != len(selected):
            raise DataError("selected terms must be distinct")
        position = np.full(self.n_terms, -1)
        position[[index[t] for t in selected]] = np.arange(len(selected))
        column = position[self.indices]
        hit = column >= 0
        indptr = np.concatenate([[0], np.cumsum(hit)])[self.indptr]
        return WordDocMatrix(
            (indptr, column[hit], self.data[hit]), list(self.doc_ids), list(selected)
        )


def _warn_pruned(what: str, ids: list[str]) -> None:
    """Warn that ``ids`` were pruned, naming the first 10 and then the count."""
    if ids:
        message = f"pruned {what} with all-zero counts: {capped_ids(ids)}"
        warnings.warn(message, CowordMapWarning, stacklevel=3)


def load_corpus(source: str | Path, format: str = "files") -> dict[str, str]:
    """Read documents from a directory of text files or a one-doc-per-line file.

    Args:
        source: Directory of UTF-8 ``.txt`` files, or a UTF-8 text file.
        format: ``"files"`` (one document per file, sorted by filename) or
            ``"lines"`` (one document per non-empty line; lines end at
            ``\n``, ``\r\n`` or ``\r``).

    Returns:
        The corpus: each document's id mapped to its text, in document order.
        Ids are filenames for ``"files"`` and 1-based line numbers for
        ``"lines"``.

    Raises:
        ConfigError: Unknown ``format`` value.
        DataError: The corpus is empty, or a file or file name is not valid UTF-8.
        OSError: ``source`` does not exist or cannot be read.
    """
    source = Path(source)
    check_choice("input_format", format, FORMATS)
    if not source.exists():
        raise FileNotFoundError(f"corpus source not found: {source}")

    if format == "files":
        if not source.is_dir():
            raise FileNotFoundError(f"not a directory: {source}")
        paths = sorted(path for path in source.glob("*.txt") if path.is_file())
        # Undecodable name bytes arrive as lone surrogates (surrogateescape).
        if bad := [repr(p.name) for p in paths if _SURROGATE.search(p.name)]:
            raise DataError(f"document ids must be valid UTF-8: {capped_ids(bad)}")
        docs = {path.name: _read_utf8(path) for path in paths}
    else:
        if not source.is_file():
            raise FileNotFoundError(f"not a file: {source}")
        lines = enumerate(read_lines(source), start=1)
        docs = {str(lineno): line for lineno, line in lines if line.strip()}

    if not docs:
        raise DataError(f"empty corpus: no documents found in {source}")
    return docs


def _read_utf8(path: Path, error: type[Exception] = DataError) -> str:
    """Read a UTF-8 text file without its leading BOM; bad bytes raise ``error``."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_lines(path: str | Path, error: type[Exception] = DataError) -> list[str]:
    r"""Split ``_read_utf8(path)`` into lines; only ``\n``, ``\r\n`` or ``\r`` ends one."""
    return _read_utf8(Path(path), error).split("\n")


def load_stopword_file(path: str | Path) -> frozenset[str]:
    """Read a stopword file, one term per :func:`read_lines` line, lowercased.

    A leading BOM is dropped; the returned set replaces the bundled default entirely.
    """
    words = set()
    for line in read_lines(path):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


def load_synonym_file(path: str | Path) -> dict[str, str]:
    """Read a synonym file with ``variant<TAB>canonical`` per :func:`read_lines` line."""
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise ConfigError(
                f"{path}:{lineno}: expected 'variant<TAB>canonical', got {line!r}"
            )
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping


def tokenize(text: str, cfg: TokenizerConfig) -> list[str]:
    """Split a document's text into filtered terms, preserving text order.

    Args:
        text: The raw text.
        cfg: Tokenizer settings.

    Returns:
        Tokens after pattern matching, optional lowercasing, synonym
        mapping, length filtering, and stopword removal. Empty text yields
        an empty list.
    """
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


def build_word_doc_matrix(
    corpus: dict[str, str], cfg: TokenizerConfig, binary: bool = False
) -> WordDocMatrix:
    """Tokenize each document once and fill the documents x terms count matrix.

    Each term gets an id when it first appears; the columns are then put in
    vocabulary order (descending total count, ties broken lexicographically)
    and the sorted ``(row, column)`` keys of the tokens give each cell once.

    Args:
        corpus: Each document's id mapped to its text; each becomes a row.
        cfg: Tokenizer settings.
        binary: Record presence (0/1) instead of occurrence counts.

    Returns:
        The pruned count matrix. ``counts[i][k]`` is the number of
        occurrences of term ``k`` in document ``i`` (or 1 under ``binary``).

    Raises:
        DataError: The corpus is empty, or no token survives filtering.
    """
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
    del cols  # free the per-token list before the sort
    totals = np.bincount(col).tolist()
    order = sorted(range(len(terms)), key=lambda k: (-totals[k], terms[k]))
    rank = np.empty(len(terms), dtype=np.int64)
    rank[order] = np.arange(len(terms))
    row = np.repeat(np.arange(len(corpus), dtype=np.int64), lengths)
    keys, data = np.unique(row * len(terms) + rank[col], return_counts=True)
    indptr = np.searchsorted(keys, np.arange(len(corpus) + 1) * len(terms))
    if binary:
        np.minimum(data, 1, out=data)
    ordered = [terms[k] for k in order]
    return WordDocMatrix((indptr, keys % len(terms), data), list(corpus), ordered)


# perfbench/traced.py wraps this name; ROADMAP item 2 deletes it with that wrapper.
build_vocabulary = build_word_doc_matrix
