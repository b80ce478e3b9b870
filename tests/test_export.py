"""Pajek, CSV, and SVG serialization: exact formats and round trips."""

from __future__ import annotations

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cowordmap.errors import DataError
from cowordmap.export import (
    _cell,
    _quote,
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
from cowordmap.layout import Layout
from cowordmap.termstats import expected_matrix
from cowordmap.vectorspace import CoocMatrix, Edge, Graph, Node
from conftest import make_matrix


def random_graph(rng, max_nodes=12, quantize=True, dotted=False, colors=False):
    n = int(rng.integers(2, max_nodes + 1))
    nodes = []
    for i in range(n):
        color = "Red" if colors and rng.random() < 0.3 else None
        nodes.append(Node(label=f"node {i}", color=color))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                weight = float(rng.integers(1, 10000)) / 1000.0
                if not quantize:
                    weight = float(rng.random())
                edges.append(
                    Edge(a, b, weight, dotted=dotted and rng.random() < 0.5)
                )
    return Graph(nodes=nodes, edges=edges)


def layout_for(g, rng) -> Layout:
    coords = np.round(rng.random((len(g.nodes), 2)), 4)
    return Layout(
        coords=coords, labels=g.labels, algorithm="fr", seed=0,
        iterations=0, raw=coords,
    )


def csv_reference(values, row_labels, col_labels, corner="doc") -> bytes:
    """write_csv's bytes built cell by cell: csv.writer over ``_cell`` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([corner, *col_labels])
    for label, row in zip(row_labels, np.asarray(values)):
        writer.writerow([label, *(_cell(v) for v in row)])
    return buf.getvalue().encode("utf-8")


def pajek_matrix_reference(values, labels) -> bytes:
    """write_pajek_matrix's bytes built cell by cell with ``str(int(v))``."""
    lines = [f"*Vertices {len(labels)}"]
    lines += [f"{i + 1} {_quote(label)}" for i, label in enumerate(labels)]
    lines.append("*Matrix")
    lines += [" ".join(str(int(v)) for v in row) for row in np.asarray(values)]
    return ("\n".join(lines) + "\n").encode("utf-8")


# Labels csv must quote, or must leave alone, in every awkward way.
AWKWARD_LABELS = [
    "plain", "a,b", 'say "hi"', "two\nlines", "cr\rlf", " leading space",
    "trailing space ", "", "naïve", "'single'", "tab\there", '"', ",",
]

SPECIAL_REALS = [
    np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300, -1e300, 1e-300, -1e-300,
    5e-324, 123456.5, 1234567.0, 0.1, 2.0 / 3.0, -1.5e-7,
]


class TestPajekNet:
    def test_exact_bytes_for_k2(self, tmp_path):
        g = Graph(nodes=[Node("a"), Node("b")], edges=[Edge(0, 1, 0.25)])
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
        g = Graph(nodes=[Node("a")])
        path = tmp_path / "single.net"
        write_pajek_net(g, None, path)
        text = path.read_text()
        assert text.endswith("*Edges\n")

    def test_round_trip_random_graphs(self, tmp_path):
        rng = np.random.default_rng(70)
        for i in range(40):
            g = random_graph(rng, dotted=(i % 2 == 0), colors=(i % 3 == 0))
            layout = layout_for(g, rng)
            path = tmp_path / f"g{i}.net"
            write_pajek_net(g, layout, path)
            back, coords = read_pajek_net(path)
            assert back == g
            np.testing.assert_allclose(coords, layout.coords, atol=5e-5)

    def test_round_trip_without_layout(self, tmp_path):
        g = Graph(nodes=[Node("x"), Node("y")], edges=[Edge(0, 1, 1.0)])
        path = tmp_path / "g.net"
        write_pajek_net(g, None, path)
        back, coords = read_pajek_net(path)
        assert back == g
        np.testing.assert_allclose(coords, 0.5)

    def test_quote_escaping(self, tmp_path):
        g = Graph(nodes=[Node('say "hi"'), Node("plain")], edges=[Edge(0, 1, 2.0)])
        path = tmp_path / "quotes.net"
        write_pajek_net(g, None, path)
        assert '"say ""hi"""' in path.read_text()
        back, _ = read_pajek_net(path)
        assert back.nodes[0].label == 'say "hi"'

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

    def test_missing_edges_header(self, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text('*Vertices 1\n1 "a" 0.5 0.5 0.5\n')
        with pytest.raises(DataError, match="Edges"):
            read_pajek_net(path)


class TestPajekMatrix:
    def test_exact_format(self, tmp_path):
        m = CoocMatrix(
            values=np.array([[4, 2], [2, 2]]), labels=["a", "b"], mode="words"
        )
        path = tmp_path / "coocc.dat"
        write_pajek_matrix(m, path)
        assert path.read_text() == (
            '*Vertices 2\n1 "a"\n2 "b"\n*Matrix\n4 2\n2 2\n'
        )

    def test_one_by_one(self, tmp_path):
        m = CoocMatrix(values=np.array([[7]]), labels=["solo"], mode="words")
        path = tmp_path / "solo.dat"
        write_pajek_matrix(m, path)
        assert path.read_text() == '*Vertices 1\n1 "solo"\n*Matrix\n7\n'

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(71)
        for i in range(30):
            n = int(rng.integers(1, 9))
            half = rng.integers(0, 50, size=(n, n))
            values = half + half.T
            m = CoocMatrix(
                values=values, labels=[f"t{j}" for j in range(n)], mode="words"
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
            labels = (AWKWARD_LABELS * 2)[:n]
            path = tmp_path / f"m{n}.dat"
            write_pajek_matrix(CoocMatrix(values=values, labels=labels, mode="words"), path)
            assert path.read_bytes() == pajek_matrix_reference(values, labels)

    def test_asymmetric_rejected(self, tmp_path):
        m = CoocMatrix(values=np.array([[1, 2], [3, 1]]), labels=["a", "b"], mode="words")
        with pytest.raises(DataError, match="symmetric"):
            write_pajek_matrix(m, tmp_path / "bad.dat")


class TestCsv:
    def test_exact_count_matrix(self, tmp_path):
        path = tmp_path / "matrix.csv"
        write_csv(np.array([[2, 1], [0, 1]]), path, ["d1", "d2"], ["a", "b"])
        assert path.read_text() == "doc,a,b\nd1,2,1\nd2,0,1\n"

    def test_expected_matrix_cells(self, tmp_path):
        e = expected_matrix(make_matrix([[10, 20], [30, 40]]))
        path = tmp_path / "expected.csv"
        write_csv(e.values, path, e.doc_ids, e.terms)
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

    def test_table_writer(self, tmp_path):
        path = tmp_path / "terms.csv"
        write_table_csv(path, ["term", "freq", "tfidf"], [("alpha", 3, 1.5)])
        assert path.read_text() == "term,freq,tfidf\nalpha,3,1.5\n"


class TestSvg:
    def graph(self):
        return Graph(
            nodes=[Node("hot", size=9.0), Node("cold", size=1.0)],
            edges=[Edge(0, 1, 0.5, dotted=True)],
        )

    def layout(self, g):
        coords = np.array([[0.2, 0.2], [0.8, 0.8]])
        return Layout(coords=coords, labels=g.labels, algorithm="fr",
                      seed=0, iterations=0, raw=coords)

    def test_unassigned_node_is_white(self, tmp_path):
        g = self.graph()
        assignment = FactorAssignment(
            labels=["hot", "cold"],
            factor=np.array([0, UNASSIGNED]),
            sign=np.array([1, 0]),
            suppression=0.1,
        )
        path = tmp_path / "map.svg"
        render_svg_map(g, self.layout(g), assignment, path)
        text = path.read_text()
        assert 'fill="#ffffff"' in text  # the unassigned node
        assert 'fill="#e41a1c"' in text  # factor 0 color

    def test_dotted_edge_dashed(self, tmp_path):
        g = self.graph()
        path = tmp_path / "map.svg"
        render_svg_map(g, self.layout(g), None, path)
        assert "stroke-dasharray" in path.read_text()

    def test_radius_grows_with_size(self, tmp_path):
        g = self.graph()
        path = tmp_path / "map.svg"
        render_svg_map(g, self.layout(g), None, path)
        radii = [
            float(part.split('r="')[1].split('"')[0])
            for part in path.read_text().split("<circle")[1:]
        ]
        assert radii[0] > radii[1]

    def test_empty_graph_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        render_svg_map(Graph(), None, None, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")

    def test_well_formed_xml_with_special_labels(self, tmp_path):
        g = Graph(nodes=[Node("a<b&c", size=2.0)])
        coords = np.array([[0.5, 0.5]])
        layout = Layout(coords=coords, labels=g.labels, algorithm="fr",
                        seed=0, iterations=0, raw=coords)
        path = tmp_path / "special.svg"
        render_svg_map(g, layout, None, path)
        ET.fromstring(path.read_text())  # parses cleanly
