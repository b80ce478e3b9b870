"""One-mode structure from the two-mode matrix: similarity, co-occurrence, graphs.

The columns of a real matrix (terms or documents, as the caller arranges
it) can be compared with the cosine or the Pearson correlation; the
occurrence matrix ``A`` (documents x terms) can also be multiplied with
its own transpose: ``A'A`` counts word co-occurrences and ``AA'`` counts
shared vocabulary between documents. Thresholding any of these symmetric
matrices yields the undirected graph behind a map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import WordDocMatrix
from .errors import ConfigError, CowordMapWarning, DataError, capped_ids, check_unique

__all__ = [
    "CoocMatrix",
    "Edge",
    "Graph",
    "Node",
    "SimilarityMatrix",
    "cooccurrence",
    "cosine_matrix",
    "pearson_matrix",
    "threshold_graph",
]


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise similarities between labelled vectors."""

    values: np.ndarray
    labels: list[str]
    kind: str  # "cosine" or "pearson"


@dataclass(frozen=True)
class CoocMatrix:
    """Integer co-occurrence counts: ``A'A`` over words or ``AA'`` over documents."""

    values: np.ndarray
    labels: list[str]
    mode: str  # "words" or "documents"


@dataclass(frozen=True)
class Node:
    """Graph node: a term, document, or factor.

    ``size`` feeds node radii in rendered maps.
    """

    label: str
    size: float | None = None


@dataclass(frozen=True)
class Edge:
    """Undirected weighted edge between node indices ``a < b``.

    ``dotted`` marks edges drawn with a dashed stroke (negative factor
    loadings).
    """

    a: int
    b: int
    weight: float
    dotted: bool = False


@dataclass
class Graph:
    """Undirected weighted graph with unique node labels and no self-loops."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_unique([n.label for n in self.nodes], "node labels")
        n = len(self.nodes)
        for e in self.edges:
            if e.a == e.b:
                raise DataError(f"self-loop on node {e.a}")
            if not (0 <= e.a < n and 0 <= e.b < n):
                raise DataError(f"edge ({e.a}, {e.b}) out of range for {n} nodes")
            if not np.isfinite(e.weight):
                raise DataError(f"non-finite edge weight on ({e.a}, {e.b})")

    @property
    def labels(self) -> list[str]:
        return [n.label for n in self.nodes]

    def connected_components(self) -> list[list[int]]:
        """Node-index components, each sorted, ordered by first node."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for e in self.edges:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
        seen = [False] * len(self.nodes)
        components: list[list[int]] = []
        for start in range(len(self.nodes)):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            components.append(sorted(comp))
        return components

    def subgraph(self, node_indices: list[int]) -> "Graph":
        """Graph induced on ``node_indices`` (order preserved)."""
        remap = {v: i for i, v in enumerate(node_indices)}
        keep = set(node_indices)
        return Graph(
            nodes=[self.nodes[v] for v in node_indices],
            edges=[
                replace(e, a=remap[e.a], b=remap[e.b])
                for e in self.edges
                if e.a in keep and e.b in keep
            ],
        )


def _vectors(values, labels: list[str] | None):
    """The variables-as-columns matrix as floats, and one label per column."""
    data = np.asarray(values, dtype=float)
    if data.ndim != 2:
        raise DataError("expected a 2-D matrix")
    labels = [f"c{k}" for k in range(data.shape[1])] if labels is None else list(labels)
    if len(labels) != data.shape[1]:
        raise DataError("label count does not match the number of vectors")
    return data, labels


def _unit_gram(data: np.ndarray, labels: list[str], kind: str,
               result: str) -> tuple[np.ndarray, list[str]]:
    """Gram matrix of the unit columns, its upper triangle mirrored, diagonal 0.

    Columns of norm 0 are dropped with a warning; none left is a DataError.
    """
    norms = np.linalg.norm(data, axis=0)
    null = np.flatnonzero(norms == 0)
    if null.size:
        warnings.warn(
            f"dropped {kind} vectors before {result}: "
            + capped_ids([labels[int(k)] for k in null]),
            CowordMapWarning,
            stacklevel=3,
        )
        keep = np.flatnonzero(norms > 0)
        data, norms, labels = data[:, keep], norms[keep], [labels[int(k)] for k in keep]
    if data.shape[1] == 0:
        raise DataError(f"all vectors are {kind}; {result} matrix is empty")
    upper = np.triu((data.T @ data) / np.outer(norms, norms), 1)
    return upper + upper.T, labels


def cosine_matrix(values, labels: list[str] | None = None) -> SimilarityMatrix:
    """Pairwise cosine similarity of the columns of a real 2-D array.

    ``labels`` name the columns (default ``c0, c1, ...``). The result is
    exactly symmetric with a unit diagonal.

    All-zero vectors (the tf-idf column of a term in every document) have
    no defined cosine and are dropped with a warning naming them, as
    :func:`pearson_matrix` drops constant ones.

    Raises:
        DataError: Every vector is all zeros.
    """
    values, labels = _unit_gram(*_vectors(values, labels), "all-zero", "cosine")
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(values=values, labels=labels, kind="cosine")


def pearson_matrix(values, labels: list[str] | None = None) -> SimilarityMatrix:
    """Pairwise Pearson correlation of the columns of a real 2-D array.

    The correlation is the cosine of the centred columns. Constant vectors
    have no defined correlation and are dropped from the result with a
    warning naming them (count data often yields constants after heavy
    pruning).
    """
    data, labels = _vectors(values, labels)
    values, labels = _unit_gram(data - data.mean(axis=0), labels, "constant", "correlation")
    values = np.clip(values, -1.0, 1.0)
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(values=values, labels=labels, kind="pearson")


def cooccurrence(m: WordDocMatrix, mode: str = "words") -> CoocMatrix:
    """Multiply the matrix with its transpose, in exact integer arithmetic.

    ``"words"`` gives ``A'A`` (terms x terms, diagonal = sum of squared
    counts per term, which is the document frequency for binary counts);
    ``"documents"`` gives ``AA'``. Float64 BLAS computes it exactly, in any
    order, while each term's (``"words"``) or document's sum of squared
    counts, which bounds every partial sum, is below 2^53; else DataError.
    """
    if mode not in ("words", "documents"):
        raise ConfigError(f"unknown mode {mode!r}; use words or documents")
    a = (m.counts if mode == "words" else m.counts.T).astype(float)
    if np.einsum("ij,ij->j", a, a).max() >= 2.0**53:
        raise DataError("co-occurrence counts reach 2^53, past exact float64 integers")
    values = (a.T @ a).astype(np.int64)
    labels = list(m.terms) if mode == "words" else list(m.doc_ids)
    return CoocMatrix(values=values, labels=labels, mode=mode)


def threshold_graph(
    matrix: SimilarityMatrix | CoocMatrix,
    threshold: float,
    rule: str = "geq",
) -> Graph:
    """Keep the node set and the edges whose value passes the threshold.

    Args:
        matrix: A symmetric similarity or co-occurrence matrix.
        threshold: Cut value.
        rule: ``"geq"`` keeps values >= threshold (cosine maps),
            ``"gt"`` keeps values strictly above it (co-occurrence maps).

    Returns:
        Graph over all labels; isolated nodes are retained. The diagonal is
        ignored. An empty edge set is allowed and reported as a warning.
    """
    if rule not in ("geq", "gt"):
        raise ConfigError(f"unknown rule {rule!r}; use geq or gt")
    values = matrix.values
    if values.shape[0] != values.shape[1] or not np.allclose(
        values, values.T, atol=1e-12
    ):
        raise DataError("threshold_graph requires a symmetric matrix")
    nodes = [Node(label=l) for l in matrix.labels]
    n = len(nodes)
    weights = np.asarray(values, dtype=float)
    keep = weights >= threshold if rule == "geq" else weights > threshold
    rows, cols = np.nonzero(np.triu(keep, 1))  # row-major: (a, b) order
    edges = [
        Edge(a=a, b=b, weight=v)
        for a, b, v in zip(rows.tolist(), cols.tolist(), weights[rows, cols].tolist())
    ]
    if not edges:
        warnings.warn(
            f"no edges at threshold {threshold} ({rule}); the map is {n} isolated nodes",
            CowordMapWarning,
            stacklevel=2,
        )
    return Graph(nodes=nodes, edges=edges)
