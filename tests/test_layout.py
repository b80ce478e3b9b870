"""Force-directed and stress-minimizing layouts, component packing."""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cowordmap.errors import ConfigError, DataError
from cowordmap.layout import (
    _EPS,
    _classical_mds,
    _pair_offsets,
    _separate_coincident,
    _start,
    fruchterman_reingold,
    graph_distances,
    kamada_kawai,
    split_and_pack,
    stress,
)
from cowordmap.vectorspace import Graph


def unit_graph(labels, pairs=()):
    """Graph over ``labels`` with an edge of weight 1 for each index pair."""
    return Graph(list(labels), list(pairs), np.ones(len(pairs)))


def chain(n):
    return unit_graph([f"n{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def complete(n):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return unit_graph([f"n{i}" for i in range(n)], pairs)


def cycle(n):
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return unit_graph([f"n{i}" for i in range(n)], pairs)


def twin_leaf_grid():
    """A 6 x 4 grid with two leaves on a corner: its classical scaling has
    unique axes and puts the two leaves on one point."""
    edges = [(r * 6 + c, r * 6 + c + 1) for r in range(4) for c in range(5)]
    edges += [(r * 6 + c, (r + 1) * 6 + c) for r in range(3) for c in range(6)]
    edges += [(0, 24), (0, 25)]
    return unit_graph([f"n{i}" for i in range(26)], edges)


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


def _fr_reference(g, iterations=500, seed=42, start=None, first=0):
    """The n×n×2 Fruchterman-Reingold kernel the plane kernel replaced.

    Kept verbatim (returning the raw positions) as the oracle: the plane
    kernel must reproduce it bit for bit. ``start`` replaces the seeded
    random positions and ``first`` is the schedule step the loop begins at.
    Coincident nodes are nudged from one ``random.Random(seed)`` stream.
    """
    n = len(g.nodes)
    rng = random.Random(seed)
    pos = np.random.default_rng(seed).random((n, 2))
    if start is not None:
        pos = start.copy()
    if n == 1:
        return pos
    k = math.sqrt(1.0 / n)
    t0 = 0.1
    edge_index, edge_weight = g.edges, g.weights
    for step in range(first, iterations):
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


def scaled_start(g, iterations):
    """The start and first step FR takes: for a connected graph with a unique
    classical scaling, that scaling times k from step 4 * iterations // 5;
    otherwise (None, 0), the seeded random start and the whole schedule."""
    hops = graph_distances(g)
    scaled = _classical_mds(hops) if np.isfinite(hops).all() else None
    if scaled is None:
        return None, 0
    return scaled * math.sqrt(1.0 / len(g.nodes)), 4 * iterations // 5


def rescaled_stress(coords, hops):
    """``stress`` after the optimal uniform scale s = Σw·d·h / Σw·d², w = 1/h²."""
    dist = np.linalg.norm(coords[:, np.newaxis] - coords[np.newaxis], axis=2)
    weight = 1.0 / np.maximum(hops, 1.0) ** 2
    np.fill_diagonal(weight, 0.0)
    scale = (weight * dist * hops).sum() / (weight * dist * dist).sum()
    return stress(scale * coords, hops)


def random_graph(rng, n, density, weighted=True):
    """Graph on n nodes with each pair an edge with probability ``density``,
    weighted uniformly in [-1, 3), or 1 each where not ``weighted``."""
    edges, weights = [], []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                edges.append((a, b))
                weights.append(float(rng.uniform(-1.0, 3.0)))
    return Graph([f"n{i}" for i in range(n)], edges, weights if weighted else np.ones(len(edges)))


def random_connected_graph(rng, n, density):
    """A random spanning tree plus each other pair with probability ``density``."""
    pairs = {(int(rng.integers(b)), b) for b in range(1, n)}
    pairs |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density}
    return unit_graph([f"n{i}" for i in range(n)], sorted(pairs))


def pinv_smacof(g, pos, tol=1e-4, max_iter=1000):
    """SMACOF through ``pinv(V)`` from ``pos``, with kamada_kawai's distance
    floor and stop rule; returns the stress history."""
    hops = graph_distances(g)
    weight = 1.0 / np.maximum(hops, 1.0) ** 2
    np.fill_diagonal(weight, 0.0)
    laplacian_pinv = np.linalg.pinv(np.diag(weight.sum(axis=1)) - weight)
    history = [stress(pos, hops)]
    while len(history) <= max_iter and history[-1] > 1e-20:
        dist = np.linalg.norm(pos[:, np.newaxis, :] - pos[np.newaxis, :, :], axis=2)
        b = -weight * hops / np.maximum(dist, _EPS)
        np.fill_diagonal(b, -b.sum(axis=1))
        pos = laplacian_pinv @ (b @ pos)
        energy = stress(pos, hops)
        if energy > history[-1]:
            break
        history.append(energy)
        if history[-2] - energy <= tol * history[-2]:
            break
    return history


def random_start_smacof(g, tol=1e-6, max_iter=1000, seed=42):
    """SMACOF from seeded random positions: the start before classical scaling.

    Returns the iteration count and the final stress.
    """
    history = pinv_smacof(g, np.random.default_rng(seed).random((len(g.nodes), 2)),
                          tol, max_iter)
    return len(history) - 1, history[-1]


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
        layout = fruchterman_reingold(unit_graph(["only"]), seed=1)
        np.testing.assert_allclose(layout.coords, [[0.5, 0.5]])

    @pytest.mark.parametrize("layout_fn", [fruchterman_reingold, kamada_kawai])
    def test_single_node_runs_no_steps(self, layout_fn):
        assert layout_fn(unit_graph(["a"])).iterations == 0

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

    @pytest.mark.parametrize("n,weighted", [(30, False), (160, True)])
    def test_matches_reference_kernel_bitwise(self, n, weighted):
        g = random_graph(np.random.default_rng(n), n, density=0.1, weighted=weighted)
        start, first = scaled_start(g, 25)
        layout = fruchterman_reingold(g, iterations=25, seed=3)
        reference = _fr_reference(g, iterations=25, seed=3, start=start, first=first)
        assert np.array_equal(layout.raw, reference)
        assert layout.iterations == 25 - first

    def test_coincident_scaled_start_nudges_from_the_seeded_stream(self):
        """The nudge angles come from one ``random.Random(seed)`` stream."""
        g = twin_leaf_grid()
        start, first = scaled_start(g, 25)
        assert _pair_offsets(start)[2].min() == 0.0
        layout = fruchterman_reingold(g, iterations=25, seed=7)
        assert np.array_equal(layout.raw, _fr_reference(g, 25, 7, start=start, first=first))

    @pytest.mark.parametrize("g", [
        chain(2),
        unit_graph([f"n{i}" for i in range(8)], [(i, i + 1) for i in (0, 1, 2, 4, 5, 6)]),
        cycle(12),
        complete(6),
    ], ids=["edge", "two-paths", "C12", "K6"])
    def test_fallback_graphs_keep_the_random_start(self, g):
        """n < 3, disconnected, and scalings without unique axes."""
        assert scaled_start(g, 500) == (None, 0)
        layout = fruchterman_reingold(g, iterations=500, seed=7)
        assert np.array_equal(layout.raw, _fr_reference(g, iterations=500, seed=7))
        assert layout.iterations == 500

    def test_matches_reference_kernel_on_random_graphs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(2, 40),
            density=st.floats(0.0, 1.0),
            graph_seed=st.integers(0, 2**32 - 1),
            weighted=st.booleans(),
            iterations=st.integers(1, 60),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, density, graph_seed, weighted, iterations, seed):
            g = random_graph(np.random.default_rng(graph_seed), n, density, weighted)
            start, first = scaled_start(g, iterations)
            layout = fruchterman_reingold(g, iterations=iterations, seed=seed)
            reference = _fr_reference(
                g, iterations=iterations, seed=seed, start=start, first=first,
            )
            assert np.array_equal(layout.raw, reference)
            starts.add(start is None)

        starts = set()
        check()
        assert starts == {True, False}  # both starts were exercised

    def test_scaled_start_stress_near_random_start(self):
        """Rescaled stress against the random start's full 500 steps.

        A sweep of 2000 random connected graphs (n 3-40) put the ratio at a
        median of 0.98, a p99 of 1.10-1.15 and a maximum of 2.18 (n = 6:
        the scaling is mirror-symmetric and FR keeps three triangle nodes on
        its axis). Hence a loose per-graph bound and a tight one on the median.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(3, 40),
            density=st.floats(0.0, 1.0),
            graph_seed=st.integers(0, 2**32 - 1),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, density, graph_seed, seed):
            g = random_connected_graph(np.random.default_rng(graph_seed), n, density)
            hops = graph_distances(g)
            hypothesis.assume(_classical_mds(hops) is not None)
            layout = fruchterman_reingold(g, iterations=500, seed=seed)
            assert layout.iterations == 100
            ratio = rescaled_stress(layout.raw, hops) / rescaled_stress(
                _fr_reference(g, iterations=500, seed=seed), hops)
            assert ratio <= 2.5
            ratios.append(ratio)

        ratios = []
        check()
        assert np.median(ratios) <= 1.05

    def test_weights_shorten_edges(self):
        nodes = "abcd"
        light = Graph(nodes, [(0, 1), (2, 3)], [0.2, 0.2])
        heavy = Graph(nodes, [(0, 1), (2, 3)], [5.0, 0.2])
        l1 = fruchterman_reingold(light, iterations=300, seed=11)
        l2 = fruchterman_reingold(heavy, iterations=300, seed=11)
        d1 = np.linalg.norm(l1.raw[0] - l1.raw[1])
        d2 = np.linalg.norm(l2.raw[0] - l2.raw[1])
        assert d2 < d1

    def test_empty_graph_rejected(self):
        with pytest.raises(DataError):
            fruchterman_reingold(unit_graph([]))

    @pytest.mark.parametrize("graph", [chain(4), cycle(5)], ids=["classical", "random"])
    def test_negative_iterations_rejected(self, graph):
        with pytest.raises(ConfigError, match=r"^iterations must be >= 0, got -5$"):
            fruchterman_reingold(graph, iterations=-5)

    @pytest.mark.parametrize("graph", [chain(4), cycle(5)], ids=["classical", "random"])
    def test_negative_seed_rejected(self, graph):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            fruchterman_reingold(graph, seed=-1)

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
        g = unit_graph("ab")
        assert not np.isfinite(graph_distances(g)[0, 1])

    def test_matches_networkx_shortest_paths(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        disconnected = 0
        for n in (0, 1, 2, 5, 12, 30, 60):
            for density in (0.0, 0.03, 0.1, 0.4):
                g = random_graph(rng, n, density)
                reference = nx.Graph()
                reference.add_nodes_from(range(n))
                reference.add_edges_from(g.edges.tolist())
                want = np.full((n, n), np.inf)
                for a, lengths in nx.all_pairs_shortest_path_length(reference):
                    for b, hops in lengths.items():
                        want[a, b] = hops
                got = graph_distances(g)
                assert np.array_equal(got, want)
                disconnected += not np.isfinite(got).all()
        assert disconnected > 0


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
        g = unit_graph("abc", [(0, 1)])
        with pytest.raises(DataError, match="connected"):
            kamada_kawai(g)

    @pytest.mark.parametrize("tol, max_iter", [(-1.0, 1000), (math.nan, 1000),
                                               (math.inf, 1000), (1e-4, -5)])
    def test_bad_tol_or_max_iter_rejected(self, tol, max_iter):
        with pytest.raises(ConfigError, match=r"^tol must be finite and >= 0 and max_iter >= 0"):
            kamada_kawai(cycle(5), tol=tol, max_iter=max_iter)

    @pytest.mark.parametrize("graph", [chain(4), cycle(5)], ids=["classical", "random"])
    def test_negative_seed_rejected(self, graph):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            kamada_kawai(graph, seed=-1)

    def test_matches_pinv_reference(self):
        """``inv(V + 11ᵀ/n)`` acts as ``pinv(V)`` on the zero-sum columns of
        ``B(pos) @ pos``: the same iterations and stresses from the same start.

        Graphs that embed exactly (every 3-node graph, paths) are left out:
        near stress 0 the relative stop rule reads rounding noise, and the
        triangle stops after 56 iterations one way and 53 the other."""
        cases = itertools.product((5, 8, 12, 25, 50, 100, 200), (0.0, 0.1, 0.5))
        for graph_seed, (n, density) in enumerate(cases):
            g = random_connected_graph(np.random.default_rng(graph_seed), n, density)
            history = kamada_kawai(g, seed=graph_seed).stress_history
            _, start, _ = _start(g, graph_seed)
            _separate_coincident(start, random.Random(graph_seed))
            reference = pinv_smacof(g, start)
            assert reference[-1] > 0.01, "the case must not embed exactly"
            assert len(history) == len(reference), (n, density)
            np.testing.assert_allclose(history, reference, rtol=1e-9, atol=0)

    def test_exact_embeddings_match_pinv_reference(self):
        """Where the stress reaches 0 up to rounding (every 3-node graph,
        paths), the stress floor, not rounding noise, stops both ways after
        the same number of iterations."""
        rng = np.random.default_rng(0)
        cases = [(complete(3), 0), (chain(2), 0)]
        cases += [(chain(n), seed) for n in (3, 4, 5, 8, 13) for seed in range(6)]
        cases += [(random_connected_graph(rng, n, 0.5), seed)
                  for n in (3, 4) for seed in range(30)]
        for g, seed in cases:
            history = kamada_kawai(g, seed=seed).stress_history
            _, start, _ = _start(g, seed)
            _separate_coincident(start, random.Random(seed))
            reference = pinv_smacof(g, start)
            assert len(history) == len(reference), (g.edges.tolist(), seed)
            np.testing.assert_allclose(history, reference, rtol=1e-9, atol=1e-12)

    def test_seeded_determinism(self):
        g = complete(4)
        a = kamada_kawai(g, seed=12)
        b = kamada_kawai(g, seed=12)
        assert np.array_equal(a.coords, b.coords)

    def test_stops_on_tolerance_before_iteration_cap(self):
        g = random_connected_graph(np.random.default_rng(20), 20, density=0.15)
        layout = kamada_kawai(g, tol=1e-6, max_iter=1000, seed=3)
        assert layout.iterations < 1000
        before, after = layout.stress_history[-2:]
        assert before - after <= 1e-6 * before

    @staticmethod
    def networkx_ratio(nx, edges, n):
        """Rescaled stress of ``kamada_kawai`` over that of networkx's layout."""
        g = unit_graph([f"n{i}" for i in range(n)], sorted(edges))
        hops = graph_distances(g)
        theirs = nx.kamada_kawai_layout(nx.Graph(list(edges)))
        theirs = np.array([theirs[i] for i in range(n)])
        return rescaled_stress(kamada_kawai(g).raw, hops) / rescaled_stress(theirs, hops)

    def test_stress_near_networkx(self):
        """200 random connected G(n, p) graphs, n 3-40, p 0.05-0.5: the ratio
        had a median of 0.993, a p99 of 1.07 and a maximum of 1.229 (a
        10-node graph whose SMACOF run ends in another local minimum, with
        tol 0 too). Hence a loose per-graph bound and a tight one on the median."""
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(0)
        ratios = []
        while len(ratios) < 200:
            n, p = int(rng.integers(3, 41)), float(rng.uniform(0.05, 0.5))
            reference = nx.gnp_random_graph(n, p, seed=int(rng.integers(2**31)))
            if nx.is_connected(reference):
                ratios.append(self.networkx_ratio(nx, reference.edges, n))
        assert max(ratios) <= 1.3
        assert np.median(ratios) <= 1.01

    @pytest.mark.xfail(strict=True, reason=(
        "kamada_kawai stops on the saddle of a mirror-symmetric classical start "
        "after 3 and 5 iterations (FOUND in CHANGES.md); with tol 0 both reach "
        "networkx's stress"))
    def test_symmetric_starts_reach_networkx_stress(self):
        nx = pytest.importorskip("networkx")
        for edges in (
            [(0, 6), (1, 5), (1, 7), (1, 8), (2, 4), (3, 5), (4, 7), (4, 9), (6, 8), (7, 8),
             (7, 9), (7, 10), (9, 10)],
            [(0, 1), (0, 4), (0, 5), (0, 9), (1, 5), (1, 7), (2, 9), (3, 5), (3, 6), (4, 5),
             (4, 6), (4, 10), (5, 6), (5, 9), (6, 8)],
        ):
            assert self.networkx_ratio(nx, edges, 11) <= 1.3

    def test_majorization_properties_on_random_graphs(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(2, 30),
            density=st.floats(0.0, 1.0),
            graph_seed=st.integers(0, 2**32 - 1),
            max_iter=st.integers(1, 300),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, density, graph_seed, max_iter, seed):
            g = random_connected_graph(np.random.default_rng(graph_seed), n, density)
            layout = kamada_kawai(g, max_iter=max_iter, seed=seed)
            history = layout.stress_history
            assert all(b <= a for a, b in zip(history, history[1:]))
            assert history[-1] == stress(layout.raw, graph_distances(g))
            assert layout.iterations <= max_iter
            again = kamada_kawai(g, max_iter=max_iter, seed=seed)
            assert np.array_equal(layout.raw, again.raw)

        check()


class TestClassicalStart:
    @pytest.mark.parametrize("n", [3, 4, 10, 60])
    def test_path_recovers_collinear_points(self, n):
        """Hop distances on a path are Euclidean in one dimension."""
        hops = graph_distances(chain(n))
        start = _classical_mds(hops)
        assert np.array_equal(start[:, 1], np.zeros(n))
        assert np.array_equal(np.abs(np.subtract.outer(start[:, 0], start[:, 0])), hops)

    def test_planar_points_recovered_up_to_rotation(self):
        points = np.random.default_rng(30).random((25, 2)) * 10
        distances = np.linalg.norm(points[:, np.newaxis] - points[np.newaxis], axis=2)
        start = _classical_mds(distances)
        got = np.linalg.norm(start[:, np.newaxis] - start[np.newaxis], axis=2)
        np.testing.assert_allclose(got, distances, atol=1e-5)

    def test_sign_rule_and_rounding(self):
        g = random_connected_graph(np.random.default_rng(31), 40, 0.1)
        start = _classical_mds(graph_distances(g))
        for axis in start.T:
            assert axis[np.argmax(np.abs(axis))] >= 0
        assert np.array_equal(start, np.round(start, 6))

    @pytest.mark.parametrize("g", [complete(3), cycle(6), complete(4), chain(2)],
                             ids=["triangle", "C6", "K4", "edge"])
    def test_symmetric_graphs_take_the_seeded_start(self, g):
        hops = graph_distances(g)
        assert _classical_mds(hops) is None
        layout = kamada_kawai(g, seed=5)
        seeded = np.random.default_rng(5).random((len(g.nodes), 2))
        assert layout.stress_history[0] == stress(seeded, hops)
        assert np.array_equal(layout.raw, kamada_kawai(g, seed=5).raw)
        assert not np.array_equal(layout.raw, kamada_kawai(g, seed=6).raw)

    def test_coincident_scaled_start_nudges_from_the_seeded_stream(self):
        g = twin_leaf_grid()
        hops = graph_distances(g)
        start = _classical_mds(hops)
        _separate_coincident(start, random.Random(7))
        history = kamada_kawai(g, seed=7).stress_history
        assert history[0] == stress(start, hops) != stress(_classical_mds(hops), hops)

    @pytest.mark.parametrize("graph_seed", [0, 3, 7])
    def test_default_tol_beats_random_start_at_strict_tol(self, graph_seed):
        g = random_connected_graph(np.random.default_rng(graph_seed), 120, 0.05)
        layout = kamada_kawai(g, seed=graph_seed)
        iterations, reference = random_start_smacof(g, tol=1e-6, seed=graph_seed)
        assert layout.iterations < iterations
        assert layout.stress_history[-1] <= 1.01 * reference

    def test_separate_coincident_matches_full_recomputation(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(2, 30),
            grid=st.integers(1, 4),
            seed=st.integers(0, 2**32 - 1),
        )
        def check(n, grid, seed):
            pos = np.floor(np.random.default_rng(seed).random((n, 2)) * grid)
            got, want = pos.copy(), pos.copy()
            _separate_coincident(got, np.random.default_rng(seed))
            _separate_coincident_reference(want, np.random.default_rng(seed))
            assert np.array_equal(got, want)

        check()

    def test_only_a_random_start_imports_numpy_random(self):
        """Nudges draw from the stdlib generator, so laying out a coincident
        classical start leaves ``numpy.random`` unloaded; a fresh interpreter,
        because the tests themselves import it."""
        script = (
            "import sys\n"
            "from test_layout import cycle, twin_leaf_grid\n"
            "from cowordmap.layout import fruchterman_reingold, kamada_kawai\n"
            "fruchterman_reingold(twin_leaf_grid(), iterations=25, seed=7)\n"
            "kamada_kawai(twin_leaf_grid(), seed=7)\n"
            "print('numpy.random' in sys.modules)\n"
            "kamada_kawai(cycle(6), seed=7)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        here = Path(__file__).parent
        path = os.pathsep.join([str(here), str(here.parent / "src")])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), check=True)
        assert proc.stdout.split() == ["False", "True"]

    def test_map_coordinates_do_not_depend_on_blas_threads(self, tmp_path):
        """At about 400 nodes OpenBLAS threads eigh, inv and the products."""
        script = (
            "import sys; import numpy as np\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_layout import random_connected_graph\n"
            "from cowordmap.export import write_pajek_net\n"
            "from cowordmap.layout import kamada_kawai\n"
            "g = random_connected_graph(np.random.default_rng(2), 400, 0.001)\n"
            "write_pajek_net(g, kamada_kawai(g, seed=1), sys.argv[2])\n"
        )
        nets = []
        for threads in ("1", "2"):
            path = tmp_path / f"map{threads}.net"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-c", script, str(Path(__file__).parent), str(path)],
                env=env, check=True,
            )
            nets.append(path.read_bytes())
        assert nets[0] == nets[1]


class TestSplitAndPack:
    def layout_fn(self, g, seed):
        return fruchterman_reingold(g, iterations=80, seed=seed)

    def test_connected_graph_identical_to_direct(self):
        g = complete(4)
        direct = self.layout_fn(g, 42)
        packed = split_and_pack(g, self.layout_fn, seed=42)
        assert np.array_equal(direct.coords, packed.coords)

    def test_two_components_disjoint_boxes(self):
        g = unit_graph("abcdef", [(0, 1), (1, 2), (3, 4)])
        layout = split_and_pack(g, self.layout_fn, seed=42)
        first = layout.coords[[0, 1, 2]]
        second = layout.coords[[3, 4]]
        assert first[:, 0].max() < second[:, 0].min() or second[:, 0].max() < first[:, 0].min()

    def test_larger_component_packed_first(self):
        g = unit_graph("abcde", [(0, 1), (2, 3), (3, 4)])
        layout = split_and_pack(g, self.layout_fn, seed=42)
        big = layout.coords[[2, 3, 4], 0]
        small = layout.coords[[0, 1], 0]
        assert big.max() < small.min()  # big component occupies the left band

    def test_isolates_in_trailing_row(self):
        g = unit_graph("abcd", [(0, 1)])
        layout = split_and_pack(g, self.layout_fn, seed=42)
        isolate_y = layout.coords[[2, 3], 1]
        component_y = layout.coords[[0, 1], 1]
        assert isolate_y[0] == isolate_y[1]
        assert (isolate_y < component_y.min()).all()

    def test_all_isolates(self):
        g = unit_graph("abc")
        layout = split_and_pack(g, self.layout_fn, seed=42)
        assert np.isfinite(layout.coords).all()
        assert len(np.unique(layout.coords[:, 0])) == 3

    def test_keeps_the_largest_components_stress_history(self):
        g = unit_graph("abcdefg", [(0, 1), (2, 3), (3, 4), (4, 5), (2, 4)])
        packed = split_and_pack(g, lambda sub, s: kamada_kawai(sub, seed=s), seed=42)
        largest = kamada_kawai(g.subgraph([2, 3, 4, 5]), seed=42)
        assert len(largest.stress_history) > 1
        assert packed.stress_history == largest.stress_history

    def test_negative_seed_rejected(self):
        g = unit_graph("abcd", [(0, 1), (2, 3)])
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            split_and_pack(g, self.layout_fn, seed=-1)

    def test_deterministic(self):
        g = unit_graph("abcdef", [(0, 1), (2, 3), (4, 5)])
        a = split_and_pack(g, self.layout_fn, seed=9)
        b = split_and_pack(g, self.layout_fn, seed=9)
        assert np.array_equal(a.coords, b.coords)
