"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from cowordmap.corpus import WordDocMatrix
from cowordmap.data import micro_config_path, micro_corpus_dir
from cowordmap.vectorspace import Graph, SimilarityMatrix


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


def _pajek_vertices(path, section: str) -> tuple[list[str], list[str], list[str]]:
    """The labels, the text after each closing label quote, and the lines after
    ``section`` of a Pajek file as the writers emit it. Lines end in LF only, so
    a label holding another line separator stays whole."""
    header, *lines = Path(path).read_text(encoding="utf-8").split("\n")
    n = int(header.removeprefix("*Vertices "))
    assert lines.pop() == "" and lines[n] == section
    labels, tails = [], []
    for i, line in enumerate(lines[:n], 1):
        head, _, tail = line.rpartition('"')  # the closing quote is the last one
        assert head.startswith(f'{i} "')
        labels.append(head.removeprefix(f'{i} "').replace('""', '"'))
        tails.append(tail)
    return labels, tails, lines[n + 1:]


def read_pajek_net(path) -> tuple[Graph, np.ndarray]:
    """The graph and the (n, 2) coordinates of a file ``write_pajek_net`` wrote."""
    labels, tails, edge_lines = _pajek_vertices(path, "*Edges")
    coords = np.array([tail.split()[:2] for tail in tails], dtype=float).reshape(-1, 2)
    edges = [line.split(" ") for line in edge_lines]  # a b weight [p Dots]
    ends = [(int(e[0]) - 1, int(e[1]) - 1) for e in edges]
    return Graph(labels, ends, [float(e[2]) for e in edges], [len(e) == 5 for e in edges]), coords


def read_pajek_matrix(path) -> SimilarityMatrix:
    """The matrix and labels of a file ``write_pajek_matrix`` wrote."""
    labels, tails, rows = _pajek_vertices(path, "*Matrix")
    assert not any(tails) and len(rows) == len(labels)
    values = np.array([row.split(" ") for row in rows], dtype=np.int64)
    return SimilarityMatrix(values=values.reshape(len(rows), len(rows)), labels=labels)


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
