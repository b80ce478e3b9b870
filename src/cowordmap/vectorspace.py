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
from dataclasses import dataclass

import numpy as np

from .corpus import WordDocMatrix
from .errors import CowordMapWarning, DataError, capped_ids, check_choice, check_unique

__all__ = [
    "Graph",
    "SimilarityMatrix",
    "cooccurrence",
    "cosine_matrix",
    "pearson_matrix",
    "threshold_graph",
]


@dataclass(frozen=True)
class SimilarityMatrix:
    """A symmetric matrix over labelled vectors: cosines, Pearson correlations
    or integer co-occurrence counts."""

    values: np.ndarray
    labels: list[str]


@dataclass(eq=False)
class Graph:
    """Undirected weighted graph as index arrays: unique labels, no self-loops.

    ``nodes`` holds the labels in index order and ``edges`` one row of node
    indices ``a < b`` per edge, with its finite weight in ``weights``;
    ``dotted`` marks edges drawn dashed (negative factor loadings), none by
    default. ``sizes`` feeds node radii in rendered maps: one per node, NaN
    for none, or None for no sizes at all.
    """

    nodes: list[str]
    edges: np.ndarray
    weights: np.ndarray
    dotted: np.ndarray | None = None
    sizes: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.nodes = list(self.nodes)
        check_unique(self.nodes, "node labels")
        n, m = len(self.nodes), len(self.weights)
        edges = np.asarray(self.edges, dtype=np.int64)
        self.edges = edges if edges.size else edges.reshape(0, 2)
        self.weights = np.asarray(self.weights, dtype=float)
        self.dotted = np.zeros(m, bool) if self.dotted is None else np.asarray(self.dotted, bool)
        if self.sizes is not None:
            self.sizes = np.asarray(self.sizes, dtype=float)
        if (self.edges.shape, self.weights.shape, self.dotted.shape) != ((m, 2), (m,), (m,)) or (
                self.sizes is not None and self.sizes.shape != (n,)):
            raise DataError("edges, weights and dotted need one row per edge, sizes one per node")
        a, b = self.edges.T
        if len(loops := np.flatnonzero(a == b)):
            raise DataError(f"self-loop on node {a[loops[0]]}")
        if len(out := np.flatnonzero(((self.edges < 0) | (self.edges >= n)).any(axis=1))):
            raise DataError(f"edge ({a[out[0]]}, {b[out[0]]}) out of range for {n} nodes")
        if len(bad := np.flatnonzero(~np.isfinite(self.weights))):
            raise DataError(f"non-finite edge weight on ({a[bad[0]]}, {b[bad[0]]})")

    def connected_components(self) -> list[list[int]]:
        """Node-index components, each sorted, ordered by first node."""
        adj: list[list[int]] = [[] for _ in self.nodes]
        for a, b in zip(*self.edges.T.tolist()):
            adj[a].append(b)
            adj[b].append(a)
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
        remap = np.full(len(self.nodes), -1)
        remap[node_indices] = np.arange(len(node_indices))
        ends = remap[self.edges]
        keep = (ends >= 0).all(axis=1)
        sizes = None if self.sizes is None else self.sizes[node_indices]
        return Graph([self.nodes[v] for v in node_indices], ends[keep], self.weights[keep],
                     self.dotted[keep], sizes)


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
    return SimilarityMatrix(values=values, labels=labels)


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
    return SimilarityMatrix(values=values, labels=labels)


def cooccurrence(m: WordDocMatrix, mode: str = "words") -> SimilarityMatrix:
    """Multiply the matrix with its transpose, in exact integer arithmetic.

    ``"words"`` gives ``A'A`` (terms x terms, diagonal = sum of squared
    counts per term, which is the document frequency for binary counts);
    ``"documents"`` gives ``AA'``. Float64 BLAS computes it exactly, in any
    order, while each term's (``"words"``) or document's sum of squared
    counts, which bounds every partial sum, is below 2^53; else DataError.
    """
    check_choice("mode", mode, ("words", "documents"))
    a = (m.counts if mode == "words" else m.counts.T).astype(float)
    if np.einsum("ij,ij->j", a, a).max() >= 2.0**53:
        raise DataError("co-occurrence counts reach 2^53, past exact float64 integers")
    values = (a.T @ a).astype(np.int64)
    labels = list(m.terms) if mode == "words" else list(m.doc_ids)
    return SimilarityMatrix(values=values, labels=labels)


def threshold_graph(matrix: SimilarityMatrix, threshold: float, rule: str = "geq") -> Graph:
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
    check_choice("rule", rule, ("geq", "gt"))
    values = matrix.values
    if values.shape[0] != values.shape[1] or not np.allclose(values, values.T, rtol=0, atol=1e-12):
        raise DataError("threshold_graph requires a symmetric matrix")
    weights = np.asarray(values, dtype=float)
    keep = weights >= threshold if rule == "geq" else weights > threshold
    edges = np.argwhere(np.triu(keep, 1))  # row-major: (a, b) order
    if not len(edges):
        warnings.warn(
            f"no edges at threshold {threshold} ({rule}); the map is {len(keep)} isolated nodes",
            CowordMapWarning,
            stacklevel=2,
        )
    return Graph(matrix.labels, edges, weights[edges[:, 0], edges[:, 1]])
