"""Deterministic 2-D graph layouts: Fruchterman-Reingold and Kamada-Kawai.

Both algorithms start from seeded pseudo-random positions in the unit
square, run single-threaded in a fixed node order, and finally rescale the
drawing into the unit square with a uniform (aspect-preserving) transform,
so a given seed and graph always produce identical coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .vectorspace import Graph

__all__ = [
    "Layout",
    "fruchterman_reingold",
    "graph_distances",
    "kamada_kawai",
    "split_and_pack",
    "stress",
]

_EPS = 1e-9  # minimum inter-node distance before forces blow up


@dataclass(frozen=True)
class Layout:
    """Node coordinates in the unit square, plus provenance.

    ``raw`` keeps the pre-normalization coordinates, where geometric
    quantities such as the ideal Fruchterman-Reingold edge length are
    meaningful. ``stress_history`` is filled by the Kamada-Kawai algorithm
    with the total stress after each accepted move.
    """

    coords: np.ndarray
    labels: list[str]
    algorithm: str
    seed: int
    iterations: int
    raw: np.ndarray
    stress_history: tuple[float, ...] = ()

    def position(self, label: str) -> tuple[float, float]:
        i = self.labels.index(label)
        return float(self.coords[i, 0]), float(self.coords[i, 1])


def _normalize(pos: np.ndarray) -> np.ndarray:
    """Fit positions into the unit square, centered, preserving aspect ratio."""
    if len(pos) == 0:
        return pos.copy()
    low = pos.min(axis=0)
    high = pos.max(axis=0)
    span = float((high - low).max())
    center = (low + high) / 2.0
    if span == 0.0:
        return np.full_like(pos, 0.5)
    return np.clip((pos - center) / span + 0.5, 0.0, 1.0)


def _pair_offsets(
    pos: np.ndarray, work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets ``pos[i] - pos[j]`` as n×n x and y planes, and their lengths.

    The lengths are ``sqrt(dx*dx + dy*dy)`` with ``inf`` on the diagonal.
    ``work`` is an optional (4, n, n) buffer to write the planes into; a
    loop that passes one allocates them once.
    """
    n = len(pos)
    dx, dy, dist, dy2 = np.empty((4, n, n)) if work is None else work
    np.subtract.outer(pos[:, 0], pos[:, 0], out=dx)
    np.subtract.outer(pos[:, 1], pos[:, 1], out=dy)
    np.multiply(dx, dx, out=dist)
    dist += np.multiply(dy, dy, out=dy2)
    np.sqrt(dist, out=dist)
    np.fill_diagonal(dist, np.inf)
    return dx, dy, dist


def _separate_coincident(pos: np.ndarray, rng: np.random.Generator) -> None:
    """Nudge exactly coincident nodes apart by a tiny seeded displacement."""
    while True:
        _, _, dist = _pair_offsets(pos)
        close = np.argwhere(dist < _EPS)
        if not len(close):
            return
        j = int(close[0, 1])
        angle = rng.random() * 2 * math.pi
        pos[j] = pos[j] + _EPS * np.array([math.cos(angle), math.sin(angle)])


def fruchterman_reingold(
    g: Graph,
    iterations: int = 500,
    seed: int = 42,
    use_weights: bool = False,
) -> Layout:
    """Classic force-directed layout.

    Every node pair repels with force k^2/d and every edge attracts with
    force d^2/k (scaled by the edge weight when ``use_weights``), where
    k = sqrt(area / n) is the ideal edge length for a unit-square area.
    Displacements are capped by a temperature that cools linearly from
    0.1 * sqrt(area) towards zero. Forces accumulate in a fixed order, so
    results are reproducible: per axis, each node's repulsion is the
    negated column sum of the antisymmetric n×n offset plane (its pushes
    from nodes 0..n-1, added in node order), then its edge pulls are
    subtracted (edges where it is ``a``) and added (where it is ``b``) in
    edge order.

    Raises:
        DataError: The graph has no nodes.
    """
    n = len(g.nodes)
    if n == 0:
        raise DataError("cannot lay out an empty graph")
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return Layout(
            coords=_normalize(pos), labels=g.labels, algorithm="fr",
            seed=seed, iterations=iterations, raw=pos,
        )

    k = math.sqrt(1.0 / n)
    t0 = 0.1
    edge_index = np.array([(e.a, e.b) for e in g.edges], dtype=np.int64).reshape(-1, 2)
    edge_weight = np.array(
        [e.weight if use_weights else 1.0 for e in g.edges], dtype=float
    )
    a, b = edge_index[:, 0], edge_index[:, 1]
    work = np.empty((4, n, n))
    for step in range(iterations):
        t = t0 * (1.0 - step / iterations)
        dx, dy, dist = _pair_offsets(pos, work)
        if dist.min() < _EPS:
            _separate_coincident(pos, rng)
            dx, dy, dist = _pair_offsets(pos, work)
        np.maximum(dist, _EPS, out=dist)
        np.square(dist, out=dist)
        repulse = np.divide(k * k, dist, out=dist)  # k^2/d, one more /d unit-scales
        dx *= repulse
        dy *= repulse
        # Row i holds the pushes on node i. The planes are antisymmetric, so
        # the negated column sums are the row sums, added in the same order.
        fx = -dx.sum(axis=0)
        fy = -dy.sum(axis=0)
        if len(edge_index):
            evec = pos[a] - pos[b]
            edist = np.maximum(np.linalg.norm(evec, axis=1), _EPS)
            pull = edge_weight * edist / k  # d^2/k, unit-scaled by another /d
            for force, offset in ((fx, evec[:, 0]), (fy, evec[:, 1])):
                shift = offset * pull
                np.subtract.at(force, a, shift)
                np.add.at(force, b, shift)
        disp = np.column_stack((fx, fy))
        length = np.maximum(np.linalg.norm(disp, axis=1), _EPS)
        pos += disp / length[:, np.newaxis] * np.minimum(length, t)[:, np.newaxis]
        if not np.isfinite(pos).all():
            raise DataError("layout diverged to non-finite coordinates")
    return Layout(
        coords=_normalize(pos), labels=g.labels, algorithm="fr",
        seed=seed, iterations=iterations, raw=pos,
    )


def graph_distances(g: Graph) -> np.ndarray:
    """All-pairs shortest path lengths in hops (BFS; inf when unreachable)."""
    n = len(g.nodes)
    adj = g.adjacency()
    dist = np.full((n, n), np.inf)
    for start in range(n):
        dist[start, start] = 0
        queue = [start]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for w in adj[v]:
                if not np.isfinite(dist[start, w]):
                    dist[start, w] = dist[start, v] + 1
                    queue.append(w)
    return dist


def stress(coords: np.ndarray, hop_distances: np.ndarray, scale: float = 1.0) -> float:
    """Layout energy: sum over pairs of (|p_a - p_b| - scale*d_ab)^2 / d_ab^2."""
    delta = coords[:, np.newaxis, :] - coords[np.newaxis, :, :]
    geo = np.linalg.norm(delta, axis=2)
    d = np.array(hop_distances, dtype=float)
    np.fill_diagonal(d, np.inf)  # self-pairs contribute 0
    terms = (geo - scale * hop_distances) ** 2 / d**2
    np.fill_diagonal(terms, 0.0)
    return float(terms.sum()) / 2.0


def kamada_kawai(
    g: Graph,
    tol: float = 1e-6,
    max_iter: int = 1000,
    scale: float = 1.0,
    seed: int = 42,
) -> Layout:
    """Stress-minimizing layout for a connected graph.

    The ideal distance between two nodes is ``scale`` times their
    unweighted shortest-path length; the energy is the squared deviation
    from the ideal, weighted by 1/distance^2. The node with the largest
    energy gradient moves first, by damped Newton steps (with a steepest
    descent fallback) that are accepted only when they reduce the energy,
    until the largest gradient falls below ``tol`` or ``max_iter`` node
    moves have been made.

    Like any gradient-based scheme, this converges to a stationary point
    of the stress; for rare seeds that can be a degenerate (e.g. collinear)
    arrangement rather than the global minimum. Rerun with another seed if
    the drawing looks folded.

    Raises:
        DataError: The graph is empty or disconnected (split components
            first, e.g. with :func:`split_and_pack`).
    """
    n = len(g.nodes)
    if n == 0:
        raise DataError("cannot lay out an empty graph")
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n == 1:
        return Layout(
            coords=_normalize(pos), labels=g.labels, algorithm="kk",
            seed=seed, iterations=0, raw=pos, stress_history=(0.0,),
        )
    hops = graph_distances(g)
    if not np.isfinite(hops).all():
        raise DataError("kamada_kawai requires a connected graph; split components first")
    _separate_coincident(pos, rng)
    ideal = scale * hops
    spring = 1.0 / np.maximum(hops, 1.0) ** 2
    np.fill_diagonal(spring, 0.0)

    def all_gradients() -> np.ndarray:
        delta = pos[:, np.newaxis, :] - pos[np.newaxis, :, :]
        dist = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(dist, 1.0)
        factor = spring * (1.0 - ideal / np.maximum(dist, _EPS))
        np.fill_diagonal(factor, 0.0)
        grad = (factor[:, :, np.newaxis] * delta).sum(axis=1)
        return np.linalg.norm(grad, axis=1)

    def node_gradient(m: int) -> tuple[float, float]:
        delta = pos[m] - pos
        dist = np.maximum(np.linalg.norm(delta, axis=1), _EPS)
        dist[m] = 1.0
        factor = spring[m] * (1.0 - ideal[m] / dist)
        factor[m] = 0.0
        return float((factor * delta[:, 0]).sum()), float((factor * delta[:, 1]).sum())

    def node_energy(m: int) -> float:
        dist = np.linalg.norm(pos[m] - pos, axis=1)
        terms = spring[m] * (dist - ideal[m]) ** 2
        terms[m] = 0.0
        return float(terms.sum())

    total = stress(pos, hops, scale)
    history = [total]
    moves = 0
    for _ in range(max_iter):
        grads = all_gradients()
        m = int(np.argmax(grads))
        if grads[m] < tol:
            break
        moved = False
        for _inner in range(50):
            gx, gy = node_gradient(m)
            gnorm = math.hypot(gx, gy)
            if gnorm < tol:
                break
            delta = pos[m] - pos
            dist = np.maximum(np.linalg.norm(delta, axis=1), _EPS)
            dist[m] = 1.0
            cube = dist**3
            others = np.arange(n) != m
            hxx = float((spring[m] * (1 - ideal[m] * delta[:, 1] ** 2 / cube))[others].sum())
            hyy = float((spring[m] * (1 - ideal[m] * delta[:, 0] ** 2 / cube))[others].sum())
            hxy = float((spring[m] * ideal[m] * delta[:, 0] * delta[:, 1] / cube)[others].sum())
            det = hxx * hyy - hxy * hxy
            candidates = []
            if abs(det) >= 1e-12:
                candidates.append(np.array(
                    [(-gx * hyy + gy * hxy) / det, (gx * hxy - gy * hxx) / det]
                ))
            # Steepest descent recovers progress when the Newton direction
            # points uphill (indefinite Hessian away from the minimum).
            candidates.append(np.array([-gx, -gy]) / gnorm * min(gnorm, 1.0))
            before = node_energy(m)
            origin = pos[m].copy()
            accepted = False
            for step in candidates:
                for _halving in range(40):
                    pos[m] = origin + step
                    after = node_energy(m)
                    if after < before:
                        accepted = True
                        break
                    step = step / 2.0
                if accepted:
                    break
            if not accepted:
                pos[m] = origin
                break
            total += after - before
            history.append(total)
            moved = True
        moves += 1
        if not moved:
            break
    return Layout(
        coords=_normalize(pos), labels=g.labels, algorithm="kk",
        seed=seed, iterations=moves, raw=pos, stress_history=tuple(history),
    )


def split_and_pack(g: Graph, layout_fn, seed: int = 42) -> Layout:
    """Lay out each connected component separately and pack the boxes.

    Components with two or more nodes are laid out by
    ``layout_fn(component_graph, seed + index)`` in descending node-count
    order and packed left to right with 5% gutters, each in a box whose
    side grows with the square root of its node share. Isolated nodes go
    into a trailing row underneath. The combined drawing is normalized to
    the unit square. A connected graph is returned exactly as ``layout_fn``
    laid it out.
    """
    n = len(g.nodes)
    if n == 0:
        raise DataError("cannot lay out an empty graph")
    components = g.connected_components()
    if len(components) == 1:
        return layout_fn(g, seed)
    multi = sorted(
        (c for c in components if len(c) > 1), key=lambda c: (-len(c), c[0])
    )
    isolates = [c[0] for c in components if len(c) == 1]

    coords = np.zeros((n, 2))
    gutter = 0.05
    x_cursor = 0.0
    sublayouts = []
    for index, comp in enumerate(multi):
        sub = layout_fn(g.subgraph(comp), seed + index)
        side = math.sqrt(len(comp) / n)
        box = sub.coords * side
        box[:, 0] += x_cursor
        for local, node in enumerate(comp):
            coords[node] = box[local]
        x_cursor += side + gutter
        sublayouts.append(sub)
    main_width = max(x_cursor - gutter, 0.0)
    if isolates:
        row_y = -2 * gutter  # strictly below every packed box
        spacing = main_width / max(len(isolates) - 1, 1) if main_width > 0 else gutter
        for i, node in enumerate(isolates):
            coords[node] = (i * spacing, row_y)
    algorithm = sublayouts[0].algorithm if sublayouts else "pack"
    iterations = max((s.iterations for s in sublayouts), default=0)
    return Layout(
        coords=_normalize(coords), labels=g.labels, algorithm=algorithm,
        seed=seed, iterations=iterations, raw=coords,
    )
