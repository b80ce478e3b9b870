"""Pajek, CSV, and SVG serialization: exact formats and round trips."""

from __future__ import annotations

import math
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cowordmap.errors import DataError
from cowordmap.export import (
    _quote,
    _xml_escape,
    read_csv_matrix,
    read_pajek_matrix,
    read_pajek_net,
    render_svg_map,
    write_csv,
    write_pajek_matrix,
    write_pajek_net,
    write_table_csv,
)
from cowordmap.factors import UNASSIGNED, FactorAssignment
from cowordmap.termstats import distinct_expected_cells, expected_matrix
from cowordmap.vectorspace import Graph, SimilarityMatrix
from conftest import make_matrix, same_graph


def random_graph(rng, max_nodes=12, quantize=True, dotted=False):
    n = int(rng.integers(2, max_nodes + 1))
    edges, weights, dots = [], [], []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                weight = float(rng.integers(1, 10000)) / 1000.0
                if not quantize:
                    weight = float(rng.random())
                edges.append((a, b))
                weights.append(weight)
                dots.append(dotted and rng.random() < 0.5)
    return Graph([f"node {i}" for i in range(n)], edges, weights, dots)


def coords_for(g, rng) -> np.ndarray:
    return np.round(rng.random((len(g.nodes), 2)), 4)


def rfc4180_line(fields) -> str:
    """One CSV line quoted by RFC 4180, character by character: a field that
    holds a comma, a double quote, CR or LF goes in quotes, each quote doubled;
    a line that would be blank is a lone empty quoted field."""
    out = []
    for field in fields:
        quoted = False
        text = ""
        for char in field:
            quoted = quoted or char in (",", '"', "\r", "\n")
            text += char * 2 if char == '"' else char
        out.append('"' + text + '"' if quoted else text)
    line = ",".join(out)
    return ('""' if line == "" else line) + "\n"


def csv_number(value) -> str:
    """A cell as the CSV writers format it: bools and integers with %d, else %.6g."""
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return "%d" % value
    return "%.6g" % value


def csv_reference(values, row_labels, col_labels, corner="doc") -> bytes:
    """write_csv's bytes built cell by cell: the RFC 4180 line of each row's strings."""
    lines = [rfc4180_line([corner, *col_labels])]
    for label, row in zip(row_labels, np.asarray(values)):
        lines.append(rfc4180_line([label, *(csv_number(v) for v in row)]))
    return "".join(lines).encode("utf-8")


def write_csv_oracle(values, path, row_labels, col_labels, corner="doc") -> None:
    """The printf writer that formatted every row and re-split it into RFC 4180 lines."""
    values = np.asarray(values)
    cell = "%d" if values.dtype.kind in "biu" else "%.6g"
    row_format = ",".join([cell] * values.shape[1])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rfc4180_line([corner, *col_labels]))
        for label, row in zip(row_labels, values):
            cells = (row_format % tuple(row.tolist())).split(",") if len(row) else []
            fh.write(rfc4180_line([label, *cells]))


def pajek_matrix_reference(values, labels) -> bytes:
    """write_pajek_matrix's bytes built cell by cell with ``str(int(v))``."""
    lines = [f"*Vertices {len(labels)}"]
    lines += [f"{i + 1} {_quote(label)}" for i, label in enumerate(labels)]
    lines.append("*Matrix")
    lines += [" ".join(str(int(v)) for v in row) for row in np.asarray(values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


# The SVG fill of factor f is entry f modulo 12.
FACTOR_COLOURS = [
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00", "#ffd92f",
    "#a65628", "#f781bf", "#999999", "#17becf", "#d62728", "#bcbd22",
]


def map_writers_reference(g, coords, assignment, size=1000) -> tuple[bytes, bytes]:
    """map.net and map.svg as the per-element writers built them: a ``px``
    call per edge end and node, the width rule per edge and a radius per node."""
    margin, span = 70.0, size - 2 * 70.0

    def px(i):
        if coords is None:
            return size / 2.0, size / 2.0
        x, y = coords[i]
        return margin + x * span, margin + (1.0 - y) * span

    xy = [(0.5, 0.5)] * len(g.nodes) if coords is None else coords
    net = [f"*Vertices {len(g.nodes)}"]
    net += [f"{i} {_quote(label)} {x:.4f} {y:.4f} 0.5000"
            for i, (label, (x, y)) in enumerate(zip(g.nodes, xy), 1)]
    edges = list(zip(g.edges.tolist(), g.weights.tolist(), g.dotted.tolist()))
    net += ["*Edges"] + [f"{a + 1} {b + 1} {weight:.4f}" + (" p Dots" if dotted else "")
                         for (a, b), weight, dotted in edges]

    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    weights = [abs(weight) for _, weight, _ in edges]
    w_lo, w_hi = (min(weights), max(weights)) if weights else (0.0, 0.0)
    for (a, b), weight, dotted in edges:
        (xa, ya), (xb, yb) = px(a), px(b)
        if w_hi > w_lo:
            width = 0.8 + 2.7 * (abs(weight) - w_lo) / (w_hi - w_lo)
        else:
            width = 1.5
        dash = ' stroke-dasharray="6 4"' if dotted else ""
        svg.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                   f'stroke="#777777" stroke-width="{width:.2f}"{dash}/>')
    sizes = [math.nan] * len(g.nodes) if g.sizes is None else g.sizes.tolist()
    known = [s for s in sizes if s > 0]
    factor_of = {} if assignment is None else {
        label: int(f) for label, f in zip(assignment.labels, assignment.factor)}
    for i, (label, node_size) in enumerate(zip(g.nodes, sizes)):
        if not known:
            r = 5.0 + 13.0 / 3
        elif not node_size > 0:  # NaN (no size), zero or negative
            r = 5.0
        elif max(known) == min(known):
            r = 11.5
        else:
            lo, hi = math.sqrt(min(known)), math.sqrt(max(known))
            r = 5.0 + 13.0 * (math.sqrt(node_size) - lo) / (hi - lo)
        x, y = px(i)
        factor = factor_of.get(label, UNASSIGNED)
        if factor != UNASSIGNED:
            fill, stroke = FACTOR_COLOURS[factor % 12], "#333333"
        else:
            fill, stroke = "#ffffff", "black"
        svg.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
                   f'fill="{fill}" stroke="{stroke}" stroke-width="1"/>')
        svg.append(f'<text x="{x + r + 3:.2f}" y="{y + 4:.2f}" font-family="sans-serif" '
                   f'font-size="13">{_xml_escape(label)}</text>')
    svg.append("</svg>")
    return ("\n".join(net) + "\n").encode("utf-8"), ("\n".join(svg) + "\n").encode("utf-8")


# Labels csv must quote, or must leave alone, in every awkward way.
AWKWARD_LABELS = [
    "plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", " leading space",
    "trailing space ", "", "naïve", "'single'", "tab\there", '"', ",",
]

PAJEK_LABELS = [s for s in AWKWARD_LABELS if "\n" not in s and "\r" not in s]

SPECIAL_REALS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300,
    5e-324, 123456.5, 1234567.0, 0.1, 2.0 / 3.0, -1.5e-7,
]


class TestPajekNet:
    def test_exact_bytes_for_k2(self, tmp_path):
        g = Graph(["a", "b"], [(0, 1)], [0.25])
        path = tmp_path / "k2.net"
        write_pajek_net(g, None, path)
        assert path.read_bytes() == (
            b'*Vertices 2\n'
            b'1 "a" 0.5000 0.5000 0.5000\n'
            b'2 "b" 0.5000 0.5000 0.5000\n'
            b'*Edges\n'
            b'1 2 0.2500\n'
        )

    def test_empty_edge_set_keeps_header(self, tmp_path):
        g = Graph(["a"], [], [])
        path = tmp_path / "single.net"
        write_pajek_net(g, None, path)
        text = path.read_text()
        assert text.endswith("*Edges\n")

    def test_round_trip_random_graphs(self, tmp_path):
        rng = np.random.default_rng(70)
        for i in range(40):
            g = random_graph(rng, dotted=(i % 2 == 0))
            coords = coords_for(g, rng)
            path = tmp_path / f"g{i}.net"
            write_pajek_net(g, coords, path)
            back, read_coords = read_pajek_net(path)
            assert same_graph(back, g)
            np.testing.assert_allclose(read_coords, coords, atol=5e-5)

    def test_round_trip_without_layout(self, tmp_path):
        g = Graph(["x", "y"], [(0, 1)], [1.0])
        path = tmp_path / "g.net"
        write_pajek_net(g, None, path)
        back, coords = read_pajek_net(path)
        assert same_graph(back, g)
        np.testing.assert_allclose(coords, 0.5)

    def test_quote_escaping(self, tmp_path):
        g = Graph(['say "hi"', "plain"], [(0, 1)], [2.0])
        path = tmp_path / "quotes.net"
        write_pajek_net(g, None, path)
        assert '"say ""hi"""' in path.read_text()
        back, _ = read_pajek_net(path)
        assert back.nodes[0] == 'say "hi"'

    def test_missing_vertices_header(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("hello\n")
        with pytest.raises(DataError, match=":1"):
            read_pajek_net(path)

    def test_edge_endpoint_out_of_range_names_id(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('*Vertices 1\n1 "a" 0.5 0.5 0.5\n*Edges\n1 3 1.0\n')
        with pytest.raises(DataError, match="3"):
            read_pajek_net(path)

    def test_edge_endpoint_zero_rejected(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('*Vertices 1\n1 "a" 0.5 0.5 0.5\n*Edges\n0 1 1.0\n')
        with pytest.raises(DataError, match="0"):
            read_pajek_net(path)

    def test_malformed_vertex_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("*Vertices 1\nnot a vertex\n*Edges\n")
        with pytest.raises(DataError, match=":2"):
            read_pajek_net(path)

    @pytest.mark.parametrize(
        "reader, name", [(read_pajek_net, "v.net"), (read_pajek_matrix, "v.dat")]
    )
    @pytest.mark.parametrize("coord", ["1.2.3", "."])
    def test_malformed_vertex_coordinate_reports_lineno(self, tmp_path, reader, name, coord):
        path = tmp_path / name
        path.write_text(f'*Vertices 1\n1 "a" {coord} 0.5 0.5\n*Edges\n*Matrix\n1\n')
        with pytest.raises(DataError, match=rf"{name}:2: malformed vertex line"):
            reader(path)

    def test_missing_edges_header(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('*Vertices 1\n1 "a" 0.5 0.5 0.5\n')
        with pytest.raises(DataError, match="Edges"):
            read_pajek_net(path)


class TestPajekMatrix:
    def test_exact_format(self, tmp_path):
        m = SimilarityMatrix(
            values=np.array([[4, 2], [2, 2]]), labels=["a", "b"]
        )
        path = tmp_path / "coocc.dat"
        write_pajek_matrix(m, path)
        assert path.read_text() == (
            '*Vertices 2\n1 "a"\n2 "b"\n*Matrix\n4 2\n2 2\n'
        )

    def test_one_by_one(self, tmp_path):
        m = SimilarityMatrix(values=np.array([[7]]), labels=["solo"])
        path = tmp_path / "solo.dat"
        write_pajek_matrix(m, path)
        assert path.read_text() == '*Vertices 1\n1 "solo"\n*Matrix\n7\n'

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(71)
        for i in range(30):
            n = int(rng.integers(1, 9))
            half = rng.integers(0, 50, size=(n, n))
            values = half + half.T
            m = SimilarityMatrix(
                values=values, labels=[f"t{j}" for j in range(n)]
            )
            path = tmp_path / f"m{i}.dat"
            write_pajek_matrix(m, path)
            back = read_pajek_matrix(path)
            assert np.array_equal(back.values, m.values)
            assert back.labels == m.labels

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, bool, float])
    def test_matches_cell_by_cell_reference(self, tmp_path, dtype):
        rng = np.random.default_rng(73)
        for n in (0, 1, 2, 7, len(AWKWARD_LABELS)):
            half = rng.integers(-40, 40, size=(n, n))
            if dtype is np.uint8 or dtype is bool:
                half = np.abs(half) % 2
            values = (half + half.T).astype(dtype)
            labels = (PAJEK_LABELS * 2)[:n]
            path = tmp_path / f"m{n}.dat"
            write_pajek_matrix(SimilarityMatrix(values=values, labels=labels), path)
            assert path.read_bytes() == pajek_matrix_reference(values, labels)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('*Vertices 2\n1 "a"\n', r"m\.dat:3: missing vertex line 2"),
            ('*Vertices 2\n1 "a"\n2 "b"\n', r"m\.dat:4: missing '\*Matrix' header"),
            ('*Vertices 2\n1 "a"\n2 "b"\n*Matrix\n1 0\n', r"m\.dat:6: missing matrix row 2"),
        ],
    )
    def test_truncated_file_names_missing_line(self, tmp_path, text, message):
        path = tmp_path / "m.dat"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=message):
            read_pajek_matrix(path)

    @pytest.mark.parametrize(
        "reader, name", [(read_pajek_net, "v.net"), (read_pajek_matrix, "v.dat")]
    )
    @pytest.mark.parametrize("count", ["-1", "two", ""])
    def test_bad_vertex_count_is_a_header_error(self, tmp_path, reader, name, count):
        path = tmp_path / name
        path.write_text(f"*Vertices {count}\n*Edges\n*Matrix\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"{name}:1: expected '\*Vertices N' header"):
            reader(path)

    def test_vertex_line_with_coordinates_is_malformed(self, tmp_path):
        path = tmp_path / "m.dat"
        path.write_text('*Vertices 1\n1 "a" 0.5 0.5 0.5\n*Matrix\n1\n', encoding="utf-8")
        with pytest.raises(DataError, match=r"m\.dat:2: malformed vertex line"):
            read_pajek_matrix(path)

    def test_asymmetric_rejected(self, tmp_path):
        m = SimilarityMatrix(values=np.array([[1, 2], [3, 1]]), labels=["a", "b"])
        with pytest.raises(DataError, match="symmetric"):
            write_pajek_matrix(m, tmp_path / "bad.dat")

    @pytest.mark.parametrize("off", [0.7, math.inf])
    def test_non_integer_values_rejected(self, tmp_path, off):
        m = SimilarityMatrix(values=np.array([[1, off], [off, 1]]), labels=["a", "b"])
        with pytest.raises(DataError, match="whole-number"):
            write_pajek_matrix(m, tmp_path / "bad.dat")
        assert not (tmp_path / "bad.dat").exists()


class TestPajekLines:
    """Pajek files are line files: only ``\\n``, ``\\r\\n`` or ``\\r`` ends a line."""

    @pytest.mark.parametrize(
        "sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_labels_with_other_line_separators_round_trip(self, tmp_path, sep):
        labels = [f"a{sep}b", "c"]
        g = Graph(labels, [(0, 1)], [1.0])
        write_pajek_net(g, None, tmp_path / "x.net")
        assert same_graph(read_pajek_net(tmp_path / "x.net")[0], g)
        m = SimilarityMatrix(values=np.array([[2, 1], [1, 2]]), labels=labels)
        write_pajek_matrix(m, tmp_path / "x.dat")
        back = read_pajek_matrix(tmp_path / "x.dat")
        assert back.labels == labels and np.array_equal(back.values, m.values)

    @pytest.mark.parametrize(
        "reader, name", [(read_pajek_net, "v.net"), (read_pajek_matrix, "v.dat")]
    )
    def test_undecodable_bytes_name_the_file(self, tmp_path, reader, name):
        path = tmp_path / name
        path.write_bytes(b'*Vertices 1\n1 "caf\xe9"\n*Edges\n*Matrix\n1\n')
        with pytest.raises(DataError, match=rf"{re.escape(name)}: not valid UTF-8"):
            reader(path)

    @pytest.mark.parametrize("write, name", [
        (lambda labels, path: write_pajek_net(Graph(labels, [], []), None, path), "x.net"),
        (lambda labels, path: write_pajek_matrix(
            SimilarityMatrix(np.eye(len(labels), dtype=int), labels), path), "x.dat"),
    ], ids=["net", "dat"])
    def test_writers_reject_labels_with_line_breaks(self, tmp_path, write, name):
        labels = ["plain", "two\nlines", "cr\rlf", "crlf\r\n", "tab\there"]
        with pytest.raises(DataError) as excinfo:
            write(labels, tmp_path / name)
        assert str(excinfo.value) == (
            "Pajek labels must not contain line breaks: 'two\\nlines', 'cr\\rlf', 'crlf\\r\\n'"
        )
        assert not (tmp_path / name).exists()


class TestCsv:
    def test_exact_count_matrix(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_csv(np.array([[2, 1], [0, 1]]), path, ["d1", "d2"], ["a", "b"])
        assert path.read_text() == "doc,a,b\nd1,2,1\nd2,0,1\n"

    def test_expected_matrix_cells(self, tmp_path):
        m = make_matrix([[10, 20], [30, 40]])
        path = tmp_path / "expected.csv"
        write_csv(expected_matrix(m), path, m.doc_ids, m.terms)
        assert path.read_text() == "doc,t1,t2\nd1,12,18\nd2,28,42\n"

    def test_round_trip_six_significant_digits(self, tmp_path):
        rng = np.random.default_rng(72)
        for i in range(20):
            values = rng.random((4, 5)) * rng.choice([1e-3, 1.0, 1e4])
            path = tmp_path / f"m{i}.csv"
            write_csv(values, path, [f"r{j}" for j in range(4)],
                      [f"c{j}" for j in range(5)])
            back, rows, cols = read_csv_matrix(path)
            np.testing.assert_allclose(back, values, rtol=1e-5)
            assert rows == [f"r{j}" for j in range(4)]
            assert cols == [f"c{j}" for j in range(5)]

    def test_labels_with_commas_are_quoted(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.array([[1]]), path, ["a,b"], ["c"])
        back, rows, _ = read_csv_matrix(path)
        assert rows == ["a,b"]

    @pytest.mark.parametrize("label, n_cols, text", [
        ("cr\rlf", 1, 'doc,c\n"cr\rlf",1\n'),
        ("nul\x00here", 1, "doc,c\nnul\x00here,1\n"),
        ("a,b", 1, 'doc,c\n"a,b",1\n'),
        ('say "hi"', 1, 'doc,c\n"say ""hi""",1\n'),
        ("", 0, 'doc\n""\n'),
        ("", 1, "doc,c\n,1\n"),
    ], ids=["cr", "nul", "comma", "quotes", "empty-no-columns", "empty-with-body"])
    def test_label_quoting_literal_bytes(self, tmp_path, label, n_cols, text):
        path = tmp_path / "m.csv"
        cols, cells = ["c"] * n_cols, [1] * n_cols
        write_csv(np.array([cells], dtype=np.int64).reshape(1, n_cols), path, [label], cols)
        assert path.read_bytes() == text.encode("utf-8")
        write_table_csv(path, ["doc", *cols], [(label, *cells)])  # the same line by line
        assert path.read_bytes() == text.encode("utf-8")

    def test_awkward_labels_round_trip(self, tmp_path):
        n = len(AWKWARD_LABELS)
        values = np.arange(n * n, dtype=float).reshape(n, n) / 8
        path = tmp_path / "m.csv"
        write_csv(values, path, AWKWARD_LABELS, AWKWARD_LABELS)
        back, rows, cols = read_csv_matrix(path)
        assert (rows, cols) == (AWKWARD_LABELS, AWKWARD_LABELS)
        assert np.array_equal(back, values)

    @pytest.mark.parametrize("content, message", [
        (b"doc,a\nd1,\xff\n", r"m\.csv: not valid UTF-8 \(invalid start byte at byte 9\)"),
        (b"", r"^m\.csv:1: expected a header row$"),
        (b"\ndoc,a\n", r"^m\.csv:1: expected a header row$"),
        (b"doc,a\nd1,1\nd2,x\n", r"^m\.csv:3: malformed CSV row$"),
        (b'doc,a\nd1,1\n"' + b"x" * 200_000 + b'",1\n', r"^m\.csv:3: malformed CSV row$"),
        (b"doc,a,b\nd1,1\n", r"^m\.csv:2: expected 2 values$"),
        (b"doc,a\nd1,1,2\n", r"^m\.csv:2: expected 1 values$"),
        (b"doc,a\nd1,1\n\n", r"^m\.csv:3: expected 1 values$"),
        (b'doc,a\n"d\n1",1\nd2\n', r"^m\.csv:4: expected 1 values$"),
    ], ids=["bad-utf8", "empty", "blank-header", "not-a-number", "huge-field", "short-row",
            "long-row", "blank-row", "after-a-quoted-line-break"])
    def test_malformed_input_is_a_data_error(self, tmp_path, content, message):
        path = tmp_path / "m.csv"
        path.write_bytes(content)
        with pytest.raises(DataError, match=message):
            read_csv_matrix(path)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, bool, np.float64, np.float32])
    def test_matches_cell_by_cell_reference(self, tmp_path, dtype):
        rng = np.random.default_rng(74)
        n = len(AWKWARD_LABELS)
        if np.dtype(dtype).kind == "f":
            values = rng.standard_normal((n, len(SPECIAL_REALS))) * 10.0 ** rng.integers(
                -8, 9, size=(n, len(SPECIAL_REALS))
            )
            values[0] = SPECIAL_REALS
            values[1] = SPECIAL_REALS[::-1]
        else:
            values = rng.integers(0, 2 if dtype is bool else 60000, size=(n, 9))
        with np.errstate(over="ignore"):  # float32 turns +-1e300 into +-inf
            values = values.astype(dtype)
        cols = (AWKWARD_LABELS * 2)[: values.shape[1]]
        path = tmp_path / "m.csv"
        write_csv(values, path, AWKWARD_LABELS, cols, corner=" corner,")
        assert path.read_bytes() == csv_reference(values, AWKWARD_LABELS, cols, " corner,")

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (1, 1)])
    def test_degenerate_shapes_match_reference(self, tmp_path, shape):
        values = np.full(shape, -0.0)
        rows = ["", "x", "a,b"][: shape[0]]
        cols = ["", "y", "c"][: shape[1]]
        path = tmp_path / "m.csv"
        write_csv(values, path, rows, cols)
        assert path.read_bytes() == csv_reference(values, rows, cols)
        back, back_rows, back_cols = read_csv_matrix(path)
        assert back.shape == shape and (back_rows, back_cols) == (rows, cols)

    def test_random_matrices_match_printf_oracle(self, tmp_path):
        """Count, bool and real matrices, repeated rows, empty shapes: oracle bytes."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @st.composite
        def matrices(draw):
            n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            dtype = draw(st.sampled_from([np.int64, np.uint8, bool, np.float64, np.float32]))
            if np.dtype(dtype).kind == "f":
                with np.errstate(over="ignore"):  # float32 turns +-1e300 into +-inf
                    specials = np.array(SPECIAL_REALS, dtype=dtype).tolist()
                elements = st.one_of(
                    st.sampled_from(specials), st.floats(width=np.dtype(dtype).itemsize * 8)
                )
            elif dtype is bool:
                elements = st.booleans()
            else:
                elements = st.integers(0, 255 if dtype is np.uint8 else 10**12)
            values = draw(hnp.arrays(dtype, (n, m), elements=elements))
            # cells repeat when several data rows or columns index one distinct cell
            index = draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
            columns = draw(st.lists(st.integers(0, m - 1), max_size=12)) if m else []
            labels = draw(st.lists(st.sampled_from(AWKWARD_LABELS), min_size=len(index),
                                   max_size=len(index)))
            return values, index, columns, labels, draw(st.lists(
                st.sampled_from(AWKWARD_LABELS), min_size=len(columns), max_size=len(columns)))

        @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
        @hypothesis.given(matrices(), st.booleans(), st.booleans())
        def check(matrix, indexed, streamed):
            values, index, columns, rows, cols = matrix
            cells = values[np.ix_(index, columns)]
            write_csv_oracle(cells, tmp_path / "oracle.csv", rows, cols, corner="")
            if indexed:
                write_csv(values, tmp_path / "m.csv", rows, cols, corner="",
                          index=(np.array(index, dtype=np.int64), np.array(columns, dtype=np.int64)))
            else:
                source = (row for row in cells) if streamed else cells
                write_csv(source, tmp_path / "m.csv", rows, cols, corner="")
            assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

        check()

    def test_ragged_rows_keep_signed_zero_and_dtype(self, tmp_path):
        rows = [[0.5, 1.0, 2.0], [0.5, 1.0, 3.0], [0.5, 1.0, 2.0], [0.0, -0.0, 0.0],
                [0.0, 0.0, 0.0]]
        stream = [np.array(r) for r in rows] + [np.zeros(2, np.float32), np.zeros(1)]
        path = tmp_path / "m.csv"
        write_csv(iter(stream), path, list("abcdefg"), ["x", "y", "z"])
        assert path.read_text() == (
            "doc,x,y,z\na,0.5,1,2\nb,0.5,1,3\nc,0.5,1,2\nd,0,-0,0\ne,0,0,0\nf,0,0\ng,0\n"
        )

    def test_distinct_expected_rows_match_expected_matrix(self, tmp_path):
        m = make_matrix([[3, 0, 1, 1], [1, 1, 2, 2], [3, 0, 1, 1], [0, 5, 0, 2]])
        cells, rows, cols = distinct_expected_cells(m)
        write_csv(cells, tmp_path / "distinct.csv", m.doc_ids, m.terms, index=(rows, cols))
        write_csv_oracle(expected_matrix(m), tmp_path / "oracle.csv", m.doc_ids, m.terms)
        assert (tmp_path / "distinct.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_table_writer(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_table_csv(path, ["term", "freq", "tfidf"], [("alpha", 3, 1.5)])
        assert path.read_text() == "term,freq,tfidf\nalpha,3,1.5\n"


class TestSvg:
    def graph(self):
        return Graph(["hot", "cold"], [(0, 1)], [0.5], [True], [9.0, 1.0])

    coords = np.array([[0.2, 0.2], [0.8, 0.8]])

    def test_unassigned_node_is_white(self, tmp_path):
        g = self.graph()
        assignment = FactorAssignment(
            labels=["hot", "cold"],
            factor=np.array([0, UNASSIGNED]),
            sign=np.array([1, 0]),
        )
        path = tmp_path / "map.svg"
        render_svg_map(g, self.coords, assignment, path)
        text = path.read_text()
        assert 'fill="#ffffff"' in text  # the unassigned node
        assert 'fill="#e41a1c"' in text  # factor 0 color

    def test_dotted_edge_dashed(self, tmp_path):
        g = self.graph()
        path = tmp_path / "map.svg"
        render_svg_map(g, self.coords, None, path)
        assert "stroke-dasharray" in path.read_text()

    def test_radius_grows_with_size(self, tmp_path):
        g = self.graph()
        path = tmp_path / "map.svg"
        render_svg_map(g, self.coords, None, path)
        radii = [
            float(part.split('r="')[1].split('"')[0])
            for part in path.read_text().split("<circle")[1:]
        ]
        assert radii[0] > radii[1]

    def test_empty_graph_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_svg_map(Graph([], [], []), None, None, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")

    def test_xml_escape_matches_saxutils(self):
        from xml.sax.saxutils import escape

        for label in AWKWARD_LABELS + ["a<b&c>d", "&amp;", "<<>>&&", "&lt;"]:
            assert _xml_escape(label) == escape(label)

    def test_cli_import_skips_network_modules(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, cowordmap.cli; print(sorted({'http.client', 'ssl'} & set(sys.modules)))"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_well_formed_xml_with_special_labels(self, tmp_path):
        labels = ["a<b&c", "x>y", 'say "hi"', "&amp;", "tab\there", "cr\rlf"]
        g = Graph(labels, [(0, 1)], [1.0], sizes=[2.0] * len(labels))
        coords = np.linspace(0, 1, 2 * len(labels)).reshape(-1, 2)
        path = tmp_path / "special.svg"
        render_svg_map(g, coords, None, path)
        texts = [el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
        assert texts == [s.replace("\r", "\n") for s in labels]  # XML reads CR as LF

    def test_labels_xml_cannot_hold_are_a_data_error(self, tmp_path):
        """Each character below U+0020, U+FFFE and U+FFFF: rejected exactly when
        expat rejects it even as a character reference."""
        for char in [*map(chr, range(0x20)), "\x7f", "\x85", "\ufffd", "\ufffe", "\uffff"]:
            try:
                ET.fromstring(f"<t>&#{ord(char)};</t>")
                xml_ok = True
            except ET.ParseError:
                xml_ok = False
            path = tmp_path / "map.svg"
            g = Graph(["plain", f"a{char}b"], [(0, 1)], [1.0])
            if xml_ok:
                render_svg_map(g, None, None, path)
                ET.parse(path)
                path.unlink()
                continue
            with pytest.raises(DataError) as excinfo:
                render_svg_map(g, None, None, path)
            assert str(excinfo.value) == (
                f"SVG labels must not contain characters XML 1.0 forbids: {f'a{char}b'!r}"
            )
            assert not path.exists()

    def test_rejected_svg_labels_are_capped(self, tmp_path):
        labels = [f"bad{i}\x0b" for i in range(12)] + ["fine"]
        with pytest.raises(DataError, match=r"'bad9\\x0b', \.\.\. \(12 in all\)$"):
            render_svg_map(Graph(labels, [], []), None, None, tmp_path / "map.svg")

    def test_map_writers_match_per_element_reference(self, tmp_path):
        """Sizes that are NaN, 0, negative, equal or distinct; equal and
        distinct |weights|; dotted edges, no edges, and no layout."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")

        @st.composite
        def maps(draw):
            labels = draw(st.lists(st.sampled_from(AWKWARD_LABELS + ["a<b&c>d"]),
                                   unique=True, max_size=9))
            n = len(labels)
            # a few distinct values per map, so equal sizes and |weights| are common
            size_pool = draw(st.lists(st.sampled_from([None, 0, 0.0, -2.0, 1.0, 4.0])
                                      | st.floats(1e-6, 1e6), min_size=1, max_size=4))
            sizes = draw(st.lists(st.sampled_from(size_pool), min_size=n, max_size=n))
            weight_pool = draw(st.lists(st.sampled_from([-1.0, 1.0, 0.25])
                                        | st.floats(-10, 10), min_size=1, max_size=3))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
            drawn = [(draw(st.sampled_from(weight_pool)), draw(st.booleans())) for _ in chosen]
            g = Graph(labels, sorted(chosen), [w for w, _ in drawn], [d for _, d in drawn],
                      [math.nan if s is None else s for s in sizes])
            coords = None
            if draw(st.booleans()):
                coords = draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(0, 1)))
            assignment = None
            if draw(st.booleans()):
                factor = draw(st.lists(st.integers(UNASSIGNED, 14), min_size=n, max_size=n))
                assignment = FactorAssignment(labels=labels, factor=np.array(factor, dtype=int),
                                              sign=np.ones(n, dtype=int))
            return g, coords, assignment

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(maps())
        def check(drawn):
            g, coords, assignment = drawn
            render_svg_map(g, coords, assignment, tmp_path / "map.svg")
            net, svg = map_writers_reference(g, coords, assignment)
            assert (tmp_path / "map.svg").read_bytes() == svg
            if not any("\n" in s or "\r" in s for s in g.nodes):
                write_pajek_net(g, coords, tmp_path / "map.net")
                assert (tmp_path / "map.net").read_bytes() == net
            else:
                with pytest.raises(DataError, match="line breaks"):
                    write_pajek_net(g, coords, tmp_path / "map.net")

        check()
