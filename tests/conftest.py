"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from cowordmap.corpus import WordDocMatrix
from cowordmap.data import micro_config_path, micro_corpus_dir


@pytest.fixture
def micro_dir():
    return micro_corpus_dir()


@pytest.fixture
def micro_cfg():
    return micro_config_path()


def make_matrix(counts, doc_ids=None, terms=None) -> WordDocMatrix:
    """WordDocMatrix from a plain array, with generated labels."""
    counts = np.asarray(counts, dtype=np.int64)
    n, k = counts.shape
    doc_ids = doc_ids or [f"d{i + 1}" for i in range(n)]
    terms = terms or [f"t{j + 1}" for j in range(k)]
    return WordDocMatrix(counts, doc_ids, terms)


def write_bytes_name(directory, name: bytes, text: str) -> bool:
    """Write ``text`` as UTF-8 to the file named by the raw bytes ``name`` in
    ``directory``; False where the file system refuses or renames it."""
    directory = os.fsencode(directory)
    try:
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError:
        return False
    return name in os.listdir(directory)


def same_graph(got, want) -> bool:
    """Exact equality of two graphs' labels, edges, weights and dotted flags."""
    return got.nodes == want.nodes and all(
        getattr(got, field).tolist() == getattr(want, field).tolist()
        for field in ("edges", "weights", "dotted"))


def random_pruned_counts(
    rng: np.random.Generator,
    max_rows: int = 10,
    max_cols: int = 20,
    max_count: int = 9,
    density: float = 0.4,
) -> np.ndarray:
    """Random nonnegative count matrix with no zero row or column."""
    rows = int(rng.integers(2, max_rows + 1))
    cols = int(rng.integers(2, max_cols + 1))
    counts = rng.integers(0, max_count + 1, size=(rows, cols))
    counts[rng.random((rows, cols)) > density] = 0
    for i in range(rows):  # repair zero margins
        if counts[i].sum() == 0:
            counts[i, rng.integers(cols)] = int(rng.integers(1, max_count + 1))
    for j in range(cols):
        if counts[:, j].sum() == 0:
            counts[rng.integers(rows), j] = int(rng.integers(1, max_count + 1))
    return counts
