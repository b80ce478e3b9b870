"""File formats: Pajek networks (.net), Pajek matrices (.dat), CSV, SVG maps.

Writers are deterministic serializers: fixed number formats (4 decimals in
Pajek files, 6 significant digits in CSV), LF line endings, no timestamps.
``write_csv`` writes a count matrix (``matrix.csv``) from its compressed
sparse rows, block by block of rows: each nonzero becomes its run of ``,0``
cells and its count. Given the row and column index into distinct cells, it
formats each distinct cell once (``expected.csv`` has one per distinct pair
of row and column margins) and joins the body of each distinct row once, the
most repeated first, while a fixed budget of cells holds them; the other
rows are joined as they are written. ``write_table_csv`` formats
``terms.csv`` column by column and checks only the label for quoting.

Dialect notes: vertex ids are dense and 1-based; labels are quoted with
embedded quotes doubled; the z coordinate is fixed at 0.5 (2-D maps). A
``.net`` edge may carry a ``p Dots`` pattern (the standard Pajek way to mark
the dashed negative-loading lines); it is omitted when unset, keeping the
default output minimal.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from .corpus import WordDocMatrix
from .errors import DataError, capped_ids
from .factors import UNASSIGNED, FactorAssignment
from .vectorspace import Graph, SimilarityMatrix

__all__ = [
    "PALETTE",
    "render_svg_map",
    "write_csv",
    "write_pajek_matrix",
    "write_pajek_net",
    "write_table_csv",
]

# SVG fill colours; factor f uses entry f modulo 12.
PALETTE: tuple[str, ...] = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#ffd92f",
    "#a65628", "#f781bf", "#999999", "#17becf", "#d62728", "#bcbd22",
)

_WHITE = "#ffffff"
_CSV_SPECIAL = re.compile('[,"\r\n]')  # a CSV field holding one of these is quoted
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")  # not even as &#...;


def _quote(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_pajek_net(g: Graph, coords: np.ndarray | None, path: str | Path) -> None:
    """Write a graph as a Pajek network file.

    ``coords`` is an (n, 2) array placing ``g.nodes`` in the unit square, as
    :func:`~cowordmap.layout.split_and_pack` returns, or None. Vertex lines are
    ``i "label" x y 0.5000`` with 4-decimal coordinates (0.5 everywhere when
    ``coords`` is None), followed by ``*Edges`` and one ``a b weight`` line per
    edge. Dotted edges get a ``p Dots`` suffix.
    """
    tails = [f" {x:.4f} {y:.4f} 0.5000" for x, y in _positions(g, coords).tolist()]
    lines = _vertex_lines(g.nodes, tails) + ["*Edges"]
    for (a, b), weight, dotted in zip(g.edges.tolist(), g.weights.tolist(), g.dotted.tolist()):
        lines.append(f"{a + 1} {b + 1} {weight:.4f}" + (" p Dots" if dotted else ""))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _positions(g: Graph, coords: np.ndarray | None) -> np.ndarray:
    """Vertex positions in the unit square; without coordinates, all at its centre."""
    return np.full((len(g.nodes), 2), 0.5) if coords is None else np.asarray(coords)


def _vertex_lines(labels: list[str], tails: list[str]) -> list[str]:
    """The ``*Vertices N`` header, then ``i "label"`` and its tail for each vertex.

    A label holding a line break would split its vertex line: a DataError.
    """
    if broken := [repr(s) for s in labels if "\n" in s or "\r" in s]:
        raise DataError(f"Pajek labels must not contain line breaks: {capped_ids(broken)}")
    pairs = enumerate(zip(labels, tails, strict=True), 1)
    return [f"*Vertices {len(labels)}"] + [f"{i} {_quote(s)}{t}" for i, (s, t) in pairs]


def write_pajek_matrix(m: SimilarityMatrix, path: str | Path) -> None:
    """Write a symmetric integer matrix in Pajek matrix format.

    Layout: ``*Vertices N``, one ``i "label"`` line per vertex, ``*Matrix``,
    then N rows of N space-separated integers.
    """
    values = np.asarray(m.values)
    if values.shape[0] != values.shape[1] or (values != values.T).any():
        raise DataError("Pajek matrix output requires a symmetric matrix")
    if not np.isfinite(values).all() or (np.trunc(values) != values).any():
        raise DataError("Pajek matrix output requires whole-number values")
    lines = _vertex_lines(m.labels, [""] * len(m.labels)) + ["*Matrix"]
    row_format = " ".join(["%d"] * values.shape[1])
    lines += [row_format % tuple(row.tolist()) for row in values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _number_format(values: np.ndarray) -> str:
    """``,%d`` for bool, integer and unsigned cells (booleans as 0/1), else ``,%.6g``."""
    return ",%d" if values.dtype.kind in "biu" else ",%.6g"


def _csv_line(fields: Iterable[str], body: str = "") -> str:
    """``fields`` quoted by RFC 4180 (one holding ``,``, ``"``, CR or LF is quoted, each
    ``"`` doubled), then the formatted ``body`` and LF; a blank line is written ``""``."""
    line = ",".join(_quote(f) if _CSV_SPECIAL.search(f) else f for f in fields) + body
    return (line or '""') + "\n"


def _row_body(row: np.ndarray) -> str:
    """``,cell`` for each cell of ``row``."""
    return _number_format(row) * len(row) % tuple(row.tolist())


# Cells per block of matrix.csv rows, and cells of the expected.csv row bodies
# kept for reuse: each bounds the strings held at once.
_BLOCK_CELLS = 1 << 16
_BODY_CELLS = 1 << 18


def _count_bodies(m: WordDocMatrix) -> Iterator[str]:
    """Each row's ``,%d`` cells, from the CSR arrays of ``m``, block by block of rows.

    A nonzero is written as the run of ``,0`` since the previous nonzero of its
    row, then its count; the row ends with the run of zeros after its last one.
    Each distinct run and count of a block is formatted once. Every row holds a
    nonzero, since ``WordDocMatrix`` prunes empty ones.
    """
    step = max(1, _BLOCK_CELLS // m.n_terms)
    for first in range(0, m.n_docs, step):
        ptr = m.indptr[first:first + step + 1]
        lo, hi = ptr[0], ptr[-1]
        row = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
        # A select_terms submatrix keeps its parent's column order within a row.
        order = np.lexsort((m.indices[lo:hi], row))
        cols, counts = m.indices[lo:hi][order], m.data[lo:hi][order]
        starts, ends = ptr[:-1] - lo, ptr[1:] - lo
        before = np.concatenate(([-1], cols[:-1]))  # the column of the previous nonzero
        before[starts] = -1
        runs, run_of = np.unique(cols - before - 1, return_inverse=True)
        values, value_of = np.unique(counts, return_inverse=True)
        parts = [""] * (2 * len(cols))  # a run of zeros, then a count
        parts[0::2] = map([",0" * n for n in runs.tolist()].__getitem__, run_of.tolist())
        parts[1::2] = map([",%d" % v for v in values.tolist()].__getitem__, value_of.tolist())
        tails = (m.n_terms - 1 - cols[ends - 1]).tolist()
        for start, end, tail in zip((2 * starts).tolist(), (2 * ends).tolist(), tails):
            yield "".join(parts[start:end]) + ",0" * tail


def write_csv(
    values: np.ndarray | Iterable[np.ndarray] | WordDocMatrix,
    path: str | Path,
    row_labels: list[str],
    col_labels: list[str],
    corner: str = "doc",
    index: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write a labelled matrix as CSV.

    ``values`` is a 2-D array, an iterable of 1-D array rows, or a
    :class:`~cowordmap.corpus.WordDocMatrix`, whose counts are written from
    its nonzeros. With ``index=(rows, cols)``, ``values`` holds distinct
    cells, each formatted once, and data cell ``(i, j)`` is
    ``values[rows[i], cols[j]]``, as
    :func:`~cowordmap.termstats.distinct_expected_cells` gives for
    ``expected.csv``; the distinct rows that most data rows share are joined
    once each, as many as fit in ``_BODY_CELLS`` cells. Header row holds the column labels after the ``corner`` cell; each
    data row starts with its row label. Bool, integer and unsigned rows are
    written with ``%d`` (booleans as 0/1), every other dtype with ``%.6g``
    (6 significant digits; ``nan``, ``inf``, ``-0``, ``1e+300``). LF line
    endings.

    Only labels are quoted (see :func:`_csv_line`): a formatted number
    never needs it.
    """
    if isinstance(values, WordDocMatrix):
        bodies = _count_bodies(values)
    elif index is None:
        bodies = map(_row_body, values)
    else:
        rows, fmt = index[0].tolist(), _number_format(values)
        cells = [[fmt % v for v in row] for row in values.tolist()]
        # itemgetter of one column gives a str, which joins to itself
        pick = operator.itemgetter(*index[1]) if len(index[1]) else lambda row: ()
        # The bodies of the rows that repeat most, up to _BODY_CELLS cells in all
        often = np.argsort(-np.bincount(index[0]), kind="stable")
        often = often[:_BODY_CELLS // max(1, len(index[1]))].tolist()
        shared = {k: "".join(pick(cells[k])) for k in often}
        bodies = (shared[k] if k in shared else "".join(pick(cells[k])) for k in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line([corner, *col_labels]))
        fh.writelines(_csv_line([label], body) for label, body in zip(row_labels, bodies))


def write_table_csv(
    path: str | Path, header: list[str], labels: list[str], columns: list[np.ndarray]
) -> None:
    """Write a table (e.g. per-term scores) as CSV: the ``header`` line, then for
    each label a line of the label and its cell of every column, formatted as
    :func:`write_csv` formats the column's dtype."""
    columns = [np.asarray(column) for column in columns]
    row_format = "".join(map(_number_format, columns))
    rows = zip(*(column.tolist() for column in columns)) if columns else [()] * len(labels)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(_csv_line([label], row_format % row) for label, row in zip(labels, rows))


# perfbench/traced.py wraps this name; ROADMAP item 2 deletes it with that wrapper.
read_csv_matrix = None


def _radii(g: Graph) -> list[float]:
    """Node radii from 5 to 18 px, proportional to the square root of node
    size; 5 px for a NaN or non-positive size, 9.33 px each if none is positive."""
    r_min, r_max = 5.0, 18.0
    sizes = np.full(len(g.nodes), np.nan) if g.sizes is None else g.sizes
    known = sizes > 0
    if not known.any():
        return [r_min + (r_max - r_min) / 3] * len(sizes)
    roots = np.sqrt(sizes[known])
    lo, hi = roots.min(), roots.max()
    radii = np.full(len(sizes), r_min)
    radii[known] = (r_min + (r_max - r_min) * (roots - lo) / (hi - lo) if hi > lo
                    else (r_min + r_max) / 2)
    return radii.tolist()


def render_svg_map(
    g: Graph,
    coords: np.ndarray | None,
    assignment: FactorAssignment | None,
    path: str | Path,
) -> None:
    """Render the map as a 1000 x 1000 px SVG file.

    ``coords`` places the nodes as in :func:`write_pajek_net` (the page
    centre for every node when None). Nodes are circles with radius
    proportional to the square root of their size, filled with the color of
    their assigned factor from the fixed 12-color ``PALETTE``; unassigned
    nodes are left white with a black stroke. Edge width grows with weight
    and dotted edges are dashed. An empty graph still produces a valid SVG
    canvas. A label holding a character that XML 1.0 cannot hold is a
    DataError, raised before anything is written.
    """
    if bad := [repr(s) for s in g.nodes if _NOT_XML.search(s)]:
        raise DataError(f"SVG labels must not contain characters XML 1.0 forbids: "
                        f"{capped_ids(bad)}")
    size, margin = 1000, 70.0
    span = size - 2 * margin
    factor_of = {}
    if assignment is not None:
        factor_of = {
            label: int(f) for label, f in zip(assignment.labels, assignment.factor)
        }

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    xy = _positions(g, coords)  # drawn with y flipped: SVG y grows downwards
    pts = np.column_stack((margin + xy[:, 0] * span, margin + (1.0 - xy[:, 1]) * span)).tolist()
    weights = np.abs(g.weights)
    lo, hi = (weights.min(), weights.max()) if len(weights) else (0.0, 0.0)
    widths = 0.8 + 2.7 * (weights - lo) / (hi - lo) if hi > lo else np.full(len(weights), 1.5)
    for (a, b), width, dotted in zip(g.edges.tolist(), widths.tolist(), g.dotted.tolist()):
        (xa, ya), (xb, yb) = pts[a], pts[b]
        dash = ' stroke-dasharray="6 4"' if dotted else ""
        parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="#777777" stroke-width="{width:.2f}"{dash}/>'
        )
    for label, (x, y), r in zip(g.nodes, pts, _radii(g), strict=True):
        factor = factor_of.get(label, UNASSIGNED)
        if factor != UNASSIGNED:
            fill = PALETTE[factor % len(PALETTE)]
            stroke = "#333333"
        else:
            fill = _WHITE
            stroke = "black"
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x + r + 3:.2f}" y="{y + 4:.2f}" '
            f'font-family="sans-serif" font-size="13">{_xml_escape(label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
