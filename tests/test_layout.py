"""Force-directed and stress-minimizing layouts, component packing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cowordmap.errors import DataError
from cowordmap.layout import (
    _EPS,
    fruchterman_reingold,
    graph_distances,
    kamada_kawai,
    split_and_pack,
)
from cowordmap.vectorspace import Edge, Graph, Node


def chain(n, weight=1.0):
    return Graph(
        nodes=[Node(f"n{i}") for i in range(n)],
        edges=[Edge(i, i + 1, weight) for i in range(n - 1)],
    )


def complete(n):
    return Graph(
        nodes=[Node(f"n{i}") for i in range(n)],
        edges=[Edge(a, b, 1.0) for a in range(n) for b in range(a + 1, n)],
    )


def _separate_coincident_reference(pos, rng):
    """The n×n×2 coincident-node nudge the plane kernel replaced, verbatim."""
    while True:
        delta = pos[:, np.newaxis, :] - pos[np.newaxis, :, :]
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, np.inf)
        close = np.argwhere(dist < _EPS)
        if not len(close):
            return
        j = int(close[0, 1])
        angle = rng.random() * 2 * math.pi
        pos[j] = pos[j] + _EPS * np.array([math.cos(angle), math.sin(angle)])


def _fr_reference(g, iterations=500, seed=42, use_weights=False):
    """The n×n×2 Fruchterman-Reingold kernel the plane kernel replaced.

    Kept verbatim (returning the raw positions) as the oracle: the plane
    kernel must reproduce it bit for bit.
    """
    n = len(g.nodes)
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return pos
    k = math.sqrt(1.0 / n)
    t0 = 0.1
    edge_index = np.array([(e.a, e.b) for e in g.edges], dtype=np.int64).reshape(-1, 2)
    edge_weight = np.array(
        [e.weight if use_weights else 1.0 for e in g.edges], dtype=float
    )
    for step in range(iterations):
        t = t0 * (1.0 - step / iterations)
        delta = pos[:, np.newaxis, :] - pos[np.newaxis, :, :]
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, np.inf)
        if (dist < _EPS).any():
            _separate_coincident_reference(pos, rng)
            delta = pos[:, np.newaxis, :] - pos[np.newaxis, :, :]
            dist = np.linalg.norm(delta, axis=2)
            np.fill_diagonal(dist, np.inf)
        dist = np.maximum(dist, _EPS)
        repulse = k * k / dist**2  # k^2/d, with one more /d to unit-scale delta
        disp = (delta * repulse[:, :, np.newaxis]).sum(axis=1)
        if len(edge_index):
            a, b = edge_index[:, 0], edge_index[:, 1]
            evec = pos[a] - pos[b]
            edist = np.maximum(np.linalg.norm(evec, axis=1), _EPS)
            pull = edge_weight * edist / k  # d^2/k, unit-scaled by another /d
            shift = evec * pull[:, np.newaxis]
            np.subtract.at(disp, a, shift)
            np.add.at(disp, b, shift)
        length = np.maximum(np.linalg.norm(disp, axis=1), _EPS)
        pos += disp / length[:, np.newaxis] * np.minimum(length, t)[:, np.newaxis]
        if not np.isfinite(pos).all():
            raise DataError("layout diverged to non-finite coordinates")
    return pos


def random_graph(rng, n, density):
    """Graph on n nodes with each pair an edge with probability ``density``."""
    edges = [
        Edge(a, b, float(rng.uniform(-1.0, 3.0)))
        for a in range(n) for b in range(a + 1, n)
        if rng.random() < density
    ]
    return Graph(nodes=[Node(f"n{i}") for i in range(n)], edges=edges)


def stress_oracle(coords, hops, scale=1.0):
    """Independent stress computation by explicit loops."""
    total = 0.0
    n = len(coords)
    for a in range(n):
        for b in range(a + 1, n):
            geo = math.dist(coords[a], coords[b])
            total += (geo - scale * hops[a][b]) ** 2 / hops[a][b] ** 2
    return total


class TestFruchtermanReingold:
    def test_single_node_centered(self):
        layout = fruchterman_reingold(Graph(nodes=[Node("only")]), seed=1)
        np.testing.assert_allclose(layout.coords, [[0.5, 0.5]])

    def test_two_connected_nodes_settle_near_ideal_length(self):
        layout = fruchterman_reingold(chain(2), iterations=500, seed=42)
        k = math.sqrt(1.0 / 2)
        separation = float(np.linalg.norm(layout.raw[0] - layout.raw[1]))
        assert abs(separation - k) <= 0.1 * k

    def test_seeded_determinism_bitwise(self):
        g = complete(6)
        a = fruchterman_reingold(g, iterations=120, seed=7)
        b = fruchterman_reingold(g, iterations=120, seed=7)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.raw, b.raw)

    def test_different_seeds_differ(self):
        g = complete(5)
        a = fruchterman_reingold(g, iterations=100, seed=1)
        b = fruchterman_reingold(g, iterations=100, seed=2)
        assert not np.array_equal(a.coords, b.coords)

    def test_coords_finite_and_in_unit_square(self):
        g = chain(9)
        layout = fruchterman_reingold(g, iterations=200, seed=3)
        assert np.isfinite(layout.coords).all()
        assert (layout.coords >= -1e-12).all() and (layout.coords <= 1 + 1e-12).all()

    def test_coincident_nodes_are_separated(self):
        from cowordmap.layout import _separate_coincident

        pos = np.zeros((4, 2))
        _separate_coincident(pos, np.random.default_rng(5))
        delta = pos[:, None, :] - pos[None, :, :]
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert (dist >= 1e-9).all()
        # and the full algorithm still spreads such a graph out
        layout = fruchterman_reingold(complete(4), iterations=60, seed=5)
        spread = np.linalg.norm(layout.raw - layout.raw[0], axis=1)[1:]
        assert (spread > 1e-6).all()

    @pytest.mark.parametrize("n,use_weights", [(30, False), (160, True)])
    def test_matches_reference_kernel_bitwise(self, n, use_weights):
        g = random_graph(np.random.default_rng(n), n, density=0.1)
        layout = fruchterman_reingold(g, iterations=25, seed=3, use_weights=use_weights)
        reference = _fr_reference(g, iterations=25, seed=3, use_weights=use_weights)
        assert np.array_equal(layout.raw, reference)

    def test_matches_reference_kernel_on_random_graphs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(2, 40),
            density=st.floats(0.0, 1.0),
            graph_seed=st.integers(0, 2**32 - 1),
            use_weights=st.booleans(),
            iterations=st.integers(1, 60),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, density, graph_seed, use_weights, iterations, seed):
            g = random_graph(np.random.default_rng(graph_seed), n, density)
            layout = fruchterman_reingold(
                g, iterations=iterations, seed=seed, use_weights=use_weights
            )
            reference = _fr_reference(
                g, iterations=iterations, seed=seed, use_weights=use_weights
            )
            assert np.array_equal(layout.raw, reference)

        check()

    def test_weights_shorten_edges(self):
        nodes = [Node(l) for l in "abcd"]
        light = Graph(nodes=nodes, edges=[Edge(0, 1, 0.2), Edge(2, 3, 0.2)])
        heavy = Graph(nodes=nodes, edges=[Edge(0, 1, 5.0), Edge(2, 3, 0.2)])
        l1 = fruchterman_reingold(light, iterations=300, seed=11, use_weights=True)
        l2 = fruchterman_reingold(heavy, iterations=300, seed=11, use_weights=True)
        d1 = np.linalg.norm(l1.raw[0] - l1.raw[1])
        d2 = np.linalg.norm(l2.raw[0] - l2.raw[1])
        assert d2 < d1

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            fruchterman_reingold(Graph())

    def test_normalization_preserves_aspect_ratio(self):
        from cowordmap.layout import _normalize

        rng = np.random.default_rng(99)
        points = rng.random((10, 2)) * np.array([8.0, 2.0]) + 3.0
        scaled = _normalize(points)
        span = points.max(axis=0) - points.min(axis=0)
        new_span = scaled.max(axis=0) - scaled.min(axis=0)
        assert new_span[0] / new_span[1] == pytest.approx(span[0] / span[1])
        assert new_span.max() == pytest.approx(1.0)
        assert (scaled >= 0).all() and (scaled <= 1).all()


class TestGraphDistances:
    def test_chain_hops(self):
        hops = graph_distances(chain(4))
        assert hops[0, 3] == 3
        assert hops[3, 0] == 3

    def test_disconnected_infinite(self):
        g = Graph(nodes=[Node("a"), Node("b")])
        assert not np.isfinite(graph_distances(g)[0, 1])


class TestKamadaKawai:
    def test_triangle_is_equilateral(self):
        layout = kamada_kawai(complete(3), seed=2)
        distances = [
            np.linalg.norm(layout.raw[a] - layout.raw[b])
            for a, b in [(0, 1), (0, 2), (1, 2)]
        ]
        assert max(distances) - min(distances) < 1e-4 * 1.0

    def test_single_edge_reaches_ideal_length(self):
        layout = kamada_kawai(chain(2), seed=4)
        assert abs(np.linalg.norm(layout.raw[0] - layout.raw[1]) - 1.0) < 1e-6

    def test_path_endpoints_farther_than_neighbors(self):
        layout = kamada_kawai(chain(3), seed=6)
        ac = np.linalg.norm(layout.raw[0] - layout.raw[2])
        ab = np.linalg.norm(layout.raw[0] - layout.raw[1])
        assert ac >= ab

    def test_beats_random_placements(self):
        g = chain(3)
        hops = graph_distances(g).tolist()
        layout = kamada_kawai(g, seed=8)
        converged = stress_oracle(layout.raw, hops)
        rng = np.random.default_rng(0)
        best_random = min(
            stress_oracle(rng.random((3, 2)) * 2, hops) for _ in range(100)
        )
        assert converged <= best_random

    def test_stress_history_non_increasing(self):
        layout = kamada_kawai(complete(5), seed=10)
        history = layout.stress_history
        assert len(history) > 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_disconnected_rejected(self):
        g = Graph(nodes=[Node("a"), Node("b"), Node("c")], edges=[Edge(0, 1, 1.0)])
        with pytest.raises(DataError, match="connected"):
            kamada_kawai(g)

    def test_seeded_determinism(self):
        g = complete(4)
        a = kamada_kawai(g, seed=12)
        b = kamada_kawai(g, seed=12)
        assert np.array_equal(a.coords, b.coords)


class TestSplitAndPack:
    def layout_fn(self, g, seed):
        return fruchterman_reingold(g, iterations=80, seed=seed)

    def test_connected_graph_identical_to_direct(self):
        g = complete(4)
        direct = self.layout_fn(g, 42)
        packed = split_and_pack(g, self.layout_fn, seed=42)
        assert np.array_equal(direct.coords, packed.coords)

    def test_two_components_disjoint_boxes(self):
        g = Graph(
            nodes=[Node(l) for l in "abcdef"],
            edges=[Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(3, 4, 1.0)],
        )
        layout = split_and_pack(g, self.layout_fn, seed=42)
        first = layout.coords[[0, 1, 2]]
        second = layout.coords[[3, 4]]
        assert first[:, 0].max() < second[:, 0].min() or second[:, 0].max() < first[:, 0].min()

    def test_larger_component_packed_first(self):
        g = Graph(
            nodes=[Node(l) for l in "abcde"],
            edges=[Edge(0, 1, 1.0), Edge(2, 3, 1.0), Edge(3, 4, 1.0)],
        )
        layout = split_and_pack(g, self.layout_fn, seed=42)
        big = layout.coords[[2, 3, 4], 0]
        small = layout.coords[[0, 1], 0]
        assert big.max() < small.min()  # big component occupies the left band

    def test_isolates_in_trailing_row(self):
        g = Graph(
            nodes=[Node(l) for l in "abcd"],
            edges=[Edge(0, 1, 1.0)],
        )
        layout = split_and_pack(g, self.layout_fn, seed=42)
        isolate_y = layout.coords[[2, 3], 1]
        component_y = layout.coords[[0, 1], 1]
        assert isolate_y[0] == isolate_y[1]
        assert (isolate_y < component_y.min()).all()

    def test_all_isolates(self):
        g = Graph(nodes=[Node(l) for l in "abc"])
        layout = split_and_pack(g, self.layout_fn, seed=42)
        assert np.isfinite(layout.coords).all()
        assert len(np.unique(layout.coords[:, 0])) == 3

    def test_deterministic(self):
        g = Graph(
            nodes=[Node(l) for l in "abcdef"],
            edges=[Edge(0, 1, 1.0), Edge(2, 3, 1.0), Edge(4, 5, 1.0)],
        )
        a = split_and_pack(g, self.layout_fn, seed=9)
        b = split_and_pack(g, self.layout_fn, seed=9)
        assert np.array_equal(a.coords, b.coords)
