"""File formats: Pajek networks (.net), Pajek matrices (.dat), CSV, SVG maps.

Writers are deterministic serializers: fixed number formats (4 decimals in
Pajek files, 6 significant digits in CSV), LF line endings, no timestamps.
``read_pajek_net`` and ``read_pajek_matrix`` parse exactly what the writers
emit, so written files can be reloaded and round-tripped in tests.

Dialect notes: vertex ids are dense and 1-based; labels are quoted with
embedded quotes doubled; the z coordinate is fixed at 0.5 (2-D maps). A
vertex may carry an ``ic <color>`` attribute and an edge a ``p Dots``
pattern (the standard Pajek way to mark the dashed negative-loading lines);
both are omitted when unset, keeping the default output minimal.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from xml.sax.saxutils import escape as xml_escape

import numpy as np

from .errors import DataError
from .factors import UNASSIGNED, FactorAssignment
from .layout import Layout
from .vectorspace import CoocMatrix, Edge, Graph, Node

__all__ = [
    "PALETTE",
    "read_csv_matrix",
    "read_pajek_matrix",
    "read_pajek_net",
    "render_svg_map",
    "write_csv",
    "write_pajek_matrix",
    "write_pajek_net",
    "write_table_csv",
]

# (Pajek color name, SVG hex) pairs; factor f uses entry f modulo 12.
PALETTE: tuple[tuple[str, str], ...] = (
    ("Red", "#e41a1c"),
    ("Blue", "#377eb8"),
    ("Green", "#4daf4a"),
    ("Purple", "#984ea3"),
    ("Orange", "#ff7f00"),
    ("Yellow", "#ffd92f"),
    ("Brown", "#a65628"),
    ("Pink", "#f781bf"),
    ("Gray", "#999999"),
    ("Cyan", "#17becf"),
    ("Magenta", "#d62728"),
    ("GreenYellow", "#bcbd22"),
)

_WHITE = "#ffffff"


def _quote(label: str) -> str:
    return '"' + label.replace('"', '""') + '"'


def _fmt4(x: float) -> str:
    return f"{x:.4f}"


def _fmt_real(x: float) -> str:
    return f"{x:.6g}"


def write_pajek_net(g: Graph, layout: Layout | None, path: str | Path) -> None:
    """Write a graph as a Pajek network file.

    Vertex lines are ``i "label" x y 0.5000`` with 4-decimal coordinates
    (0.5 everywhere when no layout is given), followed by ``*Edges`` and
    one ``a b weight`` line per edge. Dotted edges get a ``p Dots`` suffix
    and colored nodes an ``ic <name>`` suffix.
    """
    lines = [f"*Vertices {len(g.nodes)}"]
    for i, node in enumerate(g.nodes):
        if layout is not None:
            x, y = layout.coords[i]
        else:
            x, y = 0.5, 0.5
        line = f"{i + 1} {_quote(node.label)} {_fmt4(x)} {_fmt4(y)} {_fmt4(0.5)}"
        if node.color:
            line += f" ic {node.color}"
        lines.append(line)
    lines.append("*Edges")
    for e in g.edges:
        line = f"{e.a + 1} {e.b + 1} {_fmt4(e.weight)}"
        if e.dotted:
            line += " p Dots"
        lines.append(line)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_VERTEX_RE = re.compile(
    r'^(\d+)\s+"((?:[^"]|"")*)"'
    r"(?:\s+(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+))?"
    r"(?:\s+ic\s+(\S+))?\s*$"
)


def read_pajek_net(path: str | Path) -> tuple[Graph, np.ndarray | None]:
    """Parse a Pajek network file written by :func:`write_pajek_net`.

    Returns:
        The graph and the vertex coordinates (or None when no vertex line
        carried coordinates).

    Raises:
        DataError: Malformed content, reported with its line number.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise DataError(f"{path.name}:1: expected '*Vertices N' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path.name}:1: expected '*Vertices N' header") from None

    nodes: list[Node] = []
    coords = np.full((n, 2), 0.5)
    have_coords = False
    lineno = 1
    for i in range(n):
        lineno += 1
        if lineno > len(lines):
            raise DataError(f"{path.name}:{lineno}: missing vertex line {i + 1}")
        match = _VERTEX_RE.match(lines[lineno - 1])
        if not match:
            raise DataError(f"{path.name}:{lineno}: malformed vertex line")
        vid = int(match.group(1))
        if vid != i + 1:
            raise DataError(
                f"{path.name}:{lineno}: vertex id {vid} out of order (expected {i + 1})"
            )
        label = match.group(2).replace('""', '"')
        if match.group(3) is not None:
            coords[i] = (float(match.group(3)), float(match.group(4)))
            have_coords = True
        nodes.append(Node(label=label, color=match.group(6)))

    lineno += 1
    if lineno > len(lines) or lines[lineno - 1].lower() != "*edges":
        raise DataError(f"{path.name}:{lineno}: expected '*Edges' header")
    edges: list[Edge] = []
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
        dotted = len(parts) == 5 and parts[4].lower() == "dots"
        lo, hi = min(a, b) - 1, max(a, b) - 1
        edges.append(Edge(a=lo, b=hi, weight=w, dotted=dotted))
    return Graph(nodes=nodes, edges=edges), (coords if have_coords else None)


def write_pajek_matrix(m: CoocMatrix, path: str | Path) -> None:
    """Write a symmetric integer matrix in Pajek matrix format.

    Layout: ``*Vertices N``, one ``i "label"`` line per vertex, ``*Matrix``,
    then N rows of N space-separated integers.
    """
    values = np.asarray(m.values)
    if values.shape[0] != values.shape[1] or (values != values.T).any():
        raise DataError("Pajek matrix output requires a symmetric matrix")
    lines = [f"*Vertices {len(m.labels)}"]
    lines += [f"{i + 1} {_quote(label)}" for i, label in enumerate(m.labels)]
    lines.append("*Matrix")
    row_format = " ".join(["%d"] * values.shape[1])
    lines += [row_format % tuple(row.tolist()) for row in values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pajek_matrix(path: str | Path) -> CoocMatrix:
    """Parse a Pajek matrix file written by :func:`write_pajek_matrix`."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].lower().startswith("*vertices"):
        raise DataError(f"{path.name}:1: expected '*Vertices N' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise DataError(f"{path.name}:1: expected '*Vertices N' header") from None
    labels = []
    for i in range(n):
        lineno = i + 2
        match = re.match(r'^(\d+)\s+"((?:[^"]|"")*)"\s*$', lines[lineno - 1])
        if not match or int(match.group(1)) != i + 1:
            raise DataError(f"{path.name}:{lineno}: malformed vertex line")
        labels.append(match.group(2).replace('""', '"'))
    if lines[n + 1].lower() != "*matrix":
        raise DataError(f"{path.name}:{n + 2}: expected '*Matrix' header")
    rows = []
    for i in range(n):
        lineno = n + 3 + i
        try:
            row = [int(v) for v in lines[lineno - 1].split()]
        except (IndexError, ValueError):
            raise DataError(f"{path.name}:{lineno}: malformed matrix row") from None
        if len(row) != n:
            raise DataError(f"{path.name}:{lineno}: expected {n} values")
        rows.append(row)
    return CoocMatrix(values=np.array(rows, dtype=np.int64), labels=labels, mode="words")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_real(float(value))


def write_csv(
    values: np.ndarray,
    path: str | Path,
    row_labels: list[str],
    col_labels: list[str],
    corner: str = "doc",
) -> None:
    """Write a labelled matrix as CSV.

    Header row holds the column labels after the ``corner`` cell; each data
    row starts with its row label. Bool, integer and unsigned matrices are
    written with ``%d`` (booleans as 0/1), every other dtype with ``%.6g``
    (6 significant digits; ``nan``, ``inf``, ``-0``, ``1e+300``). Labels
    are quoted by :mod:`csv` where needed. LF line endings.
    """
    values = np.asarray(values)
    cell = "%d" if values.dtype.kind in "biu" else "%.6g"
    row_format = ",".join([cell] * values.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([corner, *col_labels])
        for label, row in zip(row_labels, values):
            cells = (row_format % tuple(row.tolist())).split(",") if len(row) else []
            writer.writerow([label, *cells])


def write_table_csv(path: str | Path, header: list[str], rows: list[tuple]) -> None:
    """Write a generic table (e.g. per-term scores) as CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def read_csv_matrix(path: str | Path) -> tuple[np.ndarray, list[str], list[str]]:
    """Reload a labelled matrix written by :func:`write_csv`."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        col_labels = header[1:]
        row_labels = []
        rows = []
        for record in reader:
            row_labels.append(record[0])
            rows.append([float(v) for v in record[1:]])
    return np.array(rows), row_labels, col_labels


def _radii(g: Graph, r_min: float = 5.0, r_max: float = 18.0) -> list[float]:
    """Node radii proportional to the square root of node size."""
    sizes = [n.size for n in g.nodes]
    known = [s for s in sizes if s is not None and s > 0]
    if not known:
        return [r_min + (r_max - r_min) / 3] * len(sizes)
    lo, hi = math.sqrt(min(known)), math.sqrt(max(known))
    radii = []
    for s in sizes:
        if s is None or s <= 0:
            radii.append(r_min)
        elif hi == lo:
            radii.append((r_min + r_max) / 2)
        else:
            radii.append(r_min + (r_max - r_min) * (math.sqrt(s) - lo) / (hi - lo))
    return radii


def render_svg_map(
    g: Graph,
    layout: Layout | None,
    assignment: FactorAssignment | None,
    path: str | Path,
    size: int = 1000,
) -> None:
    """Render the map as an SVG file.

    Nodes are circles with radius proportional to the square root of their
    size, filled with the color of their assigned factor from the fixed
    12-color palette; unassigned nodes are left white with a black stroke.
    Edge width grows with weight and dotted edges are dashed. An empty
    graph still produces a valid SVG canvas.
    """
    margin = 70.0
    span = size - 2 * margin
    factor_of = {}
    if assignment is not None:
        factor_of = {
            label: int(f) for label, f in zip(assignment.labels, assignment.factor)
        }

    def px(i: int) -> tuple[float, float]:
        if layout is None:
            return size / 2.0, size / 2.0
        x, y = layout.coords[i]
        return margin + x * span, margin + (1.0 - y) * span  # SVG y grows downwards

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    weights = [abs(e.weight) for e in g.edges]
    w_lo, w_hi = (min(weights), max(weights)) if weights else (0.0, 0.0)
    for e in g.edges:
        xa, ya = px(e.a)
        xb, yb = px(e.b)
        if w_hi > w_lo:
            width = 0.8 + 2.7 * (abs(e.weight) - w_lo) / (w_hi - w_lo)
        else:
            width = 1.5
        dash = ' stroke-dasharray="6 4"' if e.dotted else ""
        parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            f'stroke="#777777" stroke-width="{width:.2f}"{dash}/>'
        )
    radii = _radii(g)
    for i, node in enumerate(g.nodes):
        x, y = px(i)
        factor = factor_of.get(node.label, UNASSIGNED)
        if factor != UNASSIGNED:
            fill = PALETTE[factor % len(PALETTE)][1]
            stroke = "#333333"
        else:
            fill = _WHITE
            stroke = "black"
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radii[i]:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x + radii[i] + 3:.2f}" y="{y + 4:.2f}" '
            f'font-family="sans-serif" font-size="13">{xml_escape(node.label)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
