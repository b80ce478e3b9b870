"""File formats: Pajek networks (.net), Pajek matrices (.dat), CSV, SVG maps.

Writers are deterministic serializers: fixed number formats (4 decimals in
Pajek files, 6 significant digits in CSV), LF line endings, no timestamps.
``write_csv`` streams count rows from their nonzeros; given the row and
column index into distinct cells, it formats each distinct cell once
(``expected.csv`` has one per distinct pair of row and column margins).
``read_pajek_net`` and ``read_pajek_matrix`` parse exactly what the writers
emit, so written files can be reloaded and round-tripped in tests.

Dialect notes: vertex ids are dense and 1-based; labels are quoted with
embedded quotes doubled; the z coordinate is fixed at 0.5 (2-D maps). A
``.net`` edge may carry a ``p Dots`` pattern (the standard Pajek way to mark
the dashed negative-loading lines); it is omitted when unset, keeping the
default output minimal.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from .corpus import read_lines
from .errors import DataError, capped_ids
from .factors import UNASSIGNED, FactorAssignment
from .vectorspace import Graph, SimilarityMatrix

__all__ = [
    "PALETTE",
    "read_pajek_matrix",
    "read_pajek_net",
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


_COORD = r"\s+(-?(?:\d+\.?\d*|\.\d+))"  # a decimal that float() accepts
_VERTEX_RE = re.compile(r'^(\d+)\s+"((?:[^"]|"")*)"(?:' + _COORD * 3 + r")?\s*$")


def _line(path: Path, lines: list[str], lineno: int, what: str) -> str:
    """Line ``lineno`` (1-based) of ``path``; a DataError names ``what`` if it is missing."""
    if lineno > len(lines):
        raise DataError(f"{path.name}:{lineno}: missing {what}")
    return lines[lineno - 1]


def _vertices(path: Path) -> tuple[list[str], list[tuple[str, tuple[float, float] | None]]]:
    """The lines of ``path`` and its ``*Vertices N`` block: each label, with x, y if given.

    N must be an integer >= 0, and vertex line ``i`` (file line ``i + 1``)
    must match ``_VERTEX_RE`` with id ``i``; else a DataError.
    """
    lines = read_lines(path)
    if lines[-1] == "":  # the split after the final newline
        lines.pop()
    try:
        n = int(lines[0].split()[1]) if lines[0].lower().startswith("*vertices") else -1
    except (IndexError, ValueError):
        n = -1
    if n < 0:
        raise DataError(f"{path.name}:1: expected '*Vertices N' header")
    vertices = []
    for i in range(1, n + 1):
        match = _VERTEX_RE.match(_line(path, lines, i + 1, f"vertex line {i}"))
        if not match:
            raise DataError(f"{path.name}:{i + 1}: malformed vertex line")
        if int(match.group(1)) != i:
            raise DataError(f"{path.name}:{i + 1}: vertex id {int(match.group(1))} "
                            f"out of order (expected {i})")
        xy = None if match.group(3) is None else (float(match.group(3)), float(match.group(4)))
        vertices.append((match.group(2).replace('""', '"'), xy))
    return lines, vertices


def read_pajek_net(path: str | Path) -> tuple[Graph, np.ndarray | None]:
    """Parse a Pajek network file written by :func:`write_pajek_net`.

    Returns:
        The graph and the vertex coordinates (or None when no vertex line
        carried coordinates).

    Raises:
        DataError: Malformed content, reported with its line number.
    """
    path = Path(path)
    lines, vertices = _vertices(path)
    n = len(vertices)
    have_coords = any(xy is not None for _, xy in vertices)
    coords = np.array([xy or (0.5, 0.5) for _, xy in vertices], dtype=float).reshape(n, 2)

    lineno = n + 2
    if lineno > len(lines) or lines[lineno - 1].lower() != "*edges":
        raise DataError(f"{path.name}:{lineno}: expected '*Edges' header")
    ends, weights, dots = [], [], []
    for raw in lines[lineno:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (3, 5) or (len(parts) == 5 and parts[3] != "p"):
            raise DataError(f"{path.name}:{lineno}: malformed edge line")
        try:
            a, b, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise DataError(f"{path.name}:{lineno}: malformed edge line") from None
        for vid in (a, b):
            if not 1 <= vid <= n:
                raise DataError(
                    f"{path.name}:{lineno}: edge endpoint {vid} outside 1..{n}"
                )
        ends.append((min(a, b) - 1, max(a, b) - 1))
        weights.append(w)
        dots.append(len(parts) == 5 and parts[4].lower() == "dots")
    graph = Graph([label for label, _ in vertices], ends, weights, dots)
    return graph, (coords if have_coords else None)


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


def read_pajek_matrix(path: str | Path) -> SimilarityMatrix:
    """Parse a Pajek matrix file written by :func:`write_pajek_matrix`."""
    path = Path(path)
    lines, vertices = _vertices(path)
    n = len(vertices)
    for lineno, (_, xy) in enumerate(vertices, start=2):
        if xy is not None:  # .dat vertex lines carry no coordinates
            raise DataError(f"{path.name}:{lineno}: malformed vertex line")
    if _line(path, lines, n + 2, "'*Matrix' header").lower() != "*matrix":
        raise DataError(f"{path.name}:{n + 2}: expected '*Matrix' header")
    rows = []
    for i in range(n):
        lineno = n + 3 + i
        try:
            row = [int(v) for v in _line(path, lines, lineno, f"matrix row {i + 1}").split()]
        except ValueError:
            raise DataError(f"{path.name}:{lineno}: malformed matrix row") from None
        if len(row) != n:
            raise DataError(f"{path.name}:{lineno}: expected {n} values")
        rows.append(row)
    labels = [label for label, _ in vertices]
    return SimilarityMatrix(values=np.array(rows, dtype=np.int64), labels=labels)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))  # booleans as 0/1
    return f"{float(value):.6g}"


def _csv_line(fields: Iterable[str], body: str = "") -> str:
    """``fields`` quoted by RFC 4180 (one holding ``,``, ``"``, CR or LF is quoted, each
    ``"`` doubled), then the formatted ``body`` and LF; a blank line is written ``""``."""
    line = ",".join(_quote(f) if _CSV_SPECIAL.search(f) else f for f in fields) + body
    return (line or '""') + "\n"


def _row_body(row: np.ndarray) -> str:
    """``,cell`` for each cell of ``row``: ``%d`` for integers, else ``%.6g``."""
    if row.dtype.kind in "biu":
        nz = np.flatnonzero(row)
        zeros = np.diff(nz, prepend=-1, append=len(row)) - 1  # before each nonzero, then after
        cells = [",%d" % v for v in row[nz].tolist()] + [""]
        return "".join(",0" * z + cell for z, cell in zip(zeros.tolist(), cells))
    return ",%.6g" * len(row) % tuple(row.tolist())


def write_csv(
    values: np.ndarray | Iterable[np.ndarray],
    path: str | Path,
    row_labels: list[str],
    col_labels: list[str],
    corner: str = "doc",
    index: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Write a labelled matrix as CSV.

    ``values`` is a 2-D array or an iterable of 1-D array rows. With
    ``index=(rows, cols)``, ``values`` holds distinct cells, each formatted
    once, and data cell ``(i, j)`` is ``values[rows[i], cols[j]]``, as
    :func:`~cowordmap.termstats.distinct_expected_cells` gives for
    ``expected.csv``. Header row holds
    the column labels after the ``corner`` cell; each data row starts with
    its row label. Bool, integer and unsigned rows are written with ``%d``
    (booleans as 0/1), every other dtype with ``%.6g`` (6 significant
    digits; ``nan``, ``inf``, ``-0``, ``1e+300``). LF line endings.

    Only labels are quoted (see :func:`_csv_line`): a formatted number
    never needs it. Integer rows are built from their nonzeros and runs of ``,0``.
    """
    bodies = map(_row_body, values)
    if index is not None:
        fmt = ",%d" if values.dtype.kind in "biu" else ",%.6g"
        cells = [[fmt % v for v in row] for row in values.tolist()]
        # itemgetter of one column gives a str, which joins to itself
        pick = operator.itemgetter(*index[1]) if len(index[1]) else lambda row: ()
        bodies = ("".join(pick(cells[k])) for k in index[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line([corner, *col_labels]))
        fh.writelines(_csv_line([label], body) for label, body in zip(row_labels, bodies))


def write_table_csv(path: str | Path, header: list[str], rows: list[tuple]) -> None:
    """Write a generic table (e.g. per-term scores) as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_line(header))
        fh.writelines(_csv_line(map(_cell, row)) for row in rows)


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
