"""Deterministic 2-D graph layouts: Fruchterman-Reingold and Kamada-Kawai.

Both start from the classical scaling of the graph distances where it has
unique axes, and from seeded random positions otherwise. Both run in a
fixed node order, so a seed and graph fix the positions. ``split_and_pack``
lays out each component and fits the map into the unit square with a
uniform (aspect-preserving) transform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .factors import _apply_sign_convention
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
    """Node positions as the algorithm left them; row ``i`` places ``g.nodes[i]``.

    ``raw`` is not fitted to the page, so geometric quantities such as the
    ideal Fruchterman-Reingold edge length are meaningful in it;
    :func:`split_and_pack` fits it into the unit square. ``iterations``
    counts the steps run, 0 for one node. ``stress_history`` is filled by the
    Kamada-Kawai algorithm: the stress of the start positions, then the
    stress after each majorization iteration.
    """

    raw: np.ndarray
    iterations: int
    stress_history: tuple[float, ...] = ()


def _normalize(pos: np.ndarray) -> np.ndarray:
    """Fit positions into the unit square, centered, preserving aspect ratio."""
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


def _separate_coincident(pos: np.ndarray, rng, work: np.ndarray | None = None):
    """Nudge nodes closer than _EPS apart in place, by _EPS at ``rng.random()``
    of a full turn each; return the :func:`_pair_offsets` of the result."""
    offsets = _pair_offsets(pos, work)
    if (dist := offsets[2]).min() < _EPS:
        while len(close := np.argwhere(dist < _EPS)):
            j = int(close[0, 1])
            angle = rng.random() * 2 * math.pi
            pos[j] = pos[j] + _EPS * np.array([math.cos(angle), math.sin(angle)])
            dx, dy = (pos[j] - pos).T  # only node j moved: refresh its distances
            dist[j] = dist[:, j] = np.sqrt(dx * dx + dy * dy)
            dist[j, j] = np.inf
        offsets = _pair_offsets(pos, work)
    return offsets


def fruchterman_reingold(
    g: Graph,
    iterations: int = 500,
    seed: int = 42,
) -> Layout:
    """Classic force-directed layout.

    Every node pair repels with force k^2/d and every edge attracts with
    force d^2/k times its weight (unit weights give the unweighted layout),
    where k = sqrt(area / n) is the ideal edge length for a unit-square area.
    Displacements are capped by a temperature that cools linearly from
    0.1 * sqrt(area) towards zero over ``iterations`` steps. Per axis, each
    node's repulsion is the negated column sum of the antisymmetric n×n
    offset plane (pushes from nodes 0..n-1 in node order), then its edge
    pulls are subtracted (as ``a``) and added (as ``b``) in edge order.

    A connected graph with a unique classical scaling starts from it times
    k (one hop is one ideal edge; Brandes & Pich 2008). That start is
    untangled, so only steps ``4 * iterations // 5`` onward run. Other graphs
    start from random positions drawn with ``seed`` and run every step.
    Coincident nodes are nudged apart at angles from one ``random.Random(seed)``.

    Raises:
        ConfigError: ``iterations`` is negative.
        DataError: The graph has no nodes.
    """
    if iterations < 0:
        raise ConfigError(f"iterations must be >= 0, got {iterations}")
    _, pos, classical = _start(g, seed)
    n = len(g.nodes)
    k = math.sqrt(1.0 / n)
    t0 = 0.1
    if classical is None:  # always so for n < 3; a lone node never moves
        first = iterations if n == 1 else 0
    else:
        pos, first = classical * k, 4 * iterations // 5
    a, b = g.edges.T
    slots = np.add.outer([0, n], np.concatenate([np.arange(n), a, b])).ravel()  # x, then y
    work = np.empty((4, n, n))
    nudges = random.Random(seed)
    for step in range(first, iterations):
        t = t0 * (1.0 - step / iterations)
        dx, dy, dist = _separate_coincident(pos, nudges, work)
        # Every distance is now >= _EPS (the diagonal is inf), so no floor.
        pull = g.weights * dist[a, b] / k  # d^2/k, unit-scaled by another /d
        sx, sy = dx[a, b] * pull, dy[a, b] * pull  # before the planes are scaled
        np.square(dist, out=dist)
        repulse = np.divide(k * k, dist, out=dist)  # k^2/d, one more /d unit-scales
        dx *= repulse
        dy *= repulse
        # The planes are antisymmetric, so the negated column sums are the
        # row sums (the pushes on each node); bincount then adds the pulls.
        force = np.bincount(slots, np.concatenate(
            [-dx.sum(axis=0), -sx, sx, -dy.sum(axis=0), -sy, sy]), minlength=2 * n)
        length = np.maximum(np.sqrt(force[:n] ** 2 + force[n:] ** 2), _EPS)
        disp = force.reshape(2, n).T
        pos += disp / length[:, np.newaxis] * np.minimum(length, t)[:, np.newaxis]
        if not np.isfinite(pos).all():
            raise DataError("layout diverged to non-finite coordinates")
    return Layout(pos, iterations - first)


def graph_distances(g: Graph) -> np.ndarray:
    """All-pairs shortest path lengths in hops (inf when unreachable).

    Breadth-first search from every node at once: each round multiplies the
    boolean frontier rows by the adjacency matrix and keeps the nodes not
    reached before, which lie exactly one hop further out.
    """
    n = len(g.nodes)
    a, b = g.edges.T
    adj = np.zeros((n, n), dtype=np.float32)
    adj[a, b] = adj[b, a] = 1.0
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    reached = frontier = np.eye(n, dtype=bool)
    hop = 0
    while frontier.any():
        hop += 1
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~reached
        dist[frontier] = hop
        reached = reached | frontier
    return dist


def _stress_weights(hops: np.ndarray) -> np.ndarray:
    """Kamada-Kawai spring weights 1/hops^2, 0 on the diagonal."""
    weight = 1.0 / np.maximum(hops, 1.0) ** 2
    np.fill_diagonal(weight, 0.0)
    return weight


def _energy(dist: np.ndarray, ideal: np.ndarray, weight: np.ndarray, out=None) -> float:
    """Half the sum of weight * (dist - ideal)^2 over ordered node pairs.

    ``dist`` comes from :func:`_pair_offsets` (inf diagonal ignored); ``out``
    is an optional n×n scratch buffer.
    """
    dev = np.subtract(dist, ideal, out=out)
    np.fill_diagonal(dev, 0.0)
    return float(np.multiply(np.square(dev, out=dev), weight, out=dev).sum()) / 2.0


def stress(coords: np.ndarray, hop_distances: np.ndarray) -> float:
    """Layout energy: sum over pairs of (|p_a - p_b| - d_ab)^2 / d_ab^2."""
    hops = np.asarray(hop_distances, dtype=float)
    _, _, dist = _pair_offsets(np.asarray(coords, dtype=float))
    return _energy(dist, hops, _stress_weights(hops))


def _classical_mds(ideal: np.ndarray) -> np.ndarray | None:
    """Torgerson's classical scaling into the plane, rounded to 6 decimals.

    The top two eigenvectors of the double-centred ``-ideal^2 / 2``, signed
    like factor loadings, times the roots of their eigenvalues. None when
    n < 3 or the axes are not unique: lambda_2 <= 0, or a tie within
    1e-6 lambda_1 (cycles, complete graphs). A path gets a zero y axis.
    """
    if len(ideal) < 3:
        return None
    sq = ideal * ideal
    centred = sq - sq.mean(axis=0) - sq.mean(axis=1)[:, np.newaxis] + sq.mean()
    values, vectors = np.linalg.eigh(-0.5 * centred)
    top = values[::-1][:3].copy()
    tie = 1e-6 * top[0]
    if np.abs(values[:-1]).max() <= tie:
        top[1] = 0.0
    elif top[1] <= tie or min(top[0] - top[1], top[1] - top[2]) <= tie:
        return None
    axes = vectors[:, ::-1][:, :2]
    start = axes * (_apply_sign_convention(axes) * np.sqrt(top[:2]))
    return np.round(start, 6) + 0.0  # + 0.0 turns -0.0 into 0.0


def _start(g: Graph, seed: int):
    """The hop distances, start positions and classical scaling of ``g``.

    The scaling is None for a disconnected graph or one without unique axes;
    the start is then ``np.random.default_rng(seed)`` positions (the only use
    of ``numpy.random``), else the scaling. DataError if ``g`` has no nodes.
    """
    if not g.nodes:
        raise DataError("cannot lay out an empty graph")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    hops = graph_distances(g)
    classical = _classical_mds(hops) if np.isfinite(hops).all() else None
    if classical is None:
        return hops, np.random.default_rng(seed).random((len(g.nodes), 2)), None
    return hops, classical, classical


def kamada_kawai(
    g: Graph,
    tol: float = 1e-4,
    max_iter: int = 1000,
    seed: int = 42,
) -> Layout:
    """Stress-minimizing layout for a connected graph.

    The ideal distance between two nodes is their unweighted shortest-path
    length; the stress is the squared deviation from the ideal, weighted by
    1/hops^2 (Kamada & Kawai 1989). It is minimized by stress majorization
    (SMACOF; Gansner, Koren & North 2004): every iteration moves all nodes at
    once by one Guttman transform, ``pos <- inv(V + 11ᵀ/n) @ B(pos) @ pos``,
    with ``V`` the weighted Laplacian and ``B(pos)`` off-diagonal entries
    ``-weight * ideal / distance`` (distances below 1e-9 count as 1e-9, which
    keeps it a majorizer). The columns of ``B(pos) @ pos`` sum to 0, and on
    them that inverse equals ``pinv(V)``. The stress never increases; the loop
    stops once an iteration lowers it by at most ``tol`` relative to its previous
    value (their epsilon, 1e-4, by default), once it is at most 1e-20 (an exact
    embedding, where the relative test reads rounding noise) or after ``max_iter``
    iterations. A candidate whose stress rises through rounding ends the loop unused.

    It starts from the classical scaling of the ideal distances (Brandes &
    Pich 2008), or from random positions drawn with ``seed`` where that has no
    unique axes; coincident start nodes are nudged apart by ``random.Random(seed)``.
    The start is rounded, but the inverse and the products vary in their last
    bits with the BLAS thread count; that shows in 4 decimals only near a
    rounding boundary, or where a relative decrease is within them of ``tol``.

    Raises:
        ConfigError: ``tol`` is not finite, or ``tol``, ``max_iter`` or ``seed`` is negative.
        DataError: The graph is empty or disconnected (split components
            first, e.g. with :func:`split_and_pack`).
    """
    if not (0 <= tol < math.inf and max_iter >= 0):  # nan fails the first test
        raise ConfigError(f"tol must be finite and >= 0 and max_iter >= 0, got {tol}, {max_iter}")
    hops, pos, _ = _start(g, seed)
    n = len(g.nodes)
    if n == 1:
        return Layout(pos, 0, stress_history=(0.0,))
    if not np.isfinite(hops).all():
        raise DataError("kamada_kawai requires a connected graph; split components first")
    weight = _stress_weights(hops)
    guttman = np.linalg.inv(np.diag(weight.sum(axis=1)) - weight + 1.0 / n)
    neg_pull = -(weight * hops)
    # Planes 0, 1 and 3 are scratch; plane 2 holds the current distances.
    work = np.empty((4, n, n))
    dist = _separate_coincident(pos, random.Random(seed), work)[2]
    energy = _energy(dist, hops, weight, work[0])
    history = [energy]
    iterations = 0
    while iterations < max_iter and energy > 1e-20:
        b = np.divide(neg_pull, np.maximum(dist, _EPS, out=work[0]), out=work[0])
        np.fill_diagonal(b, -b.sum(axis=1))
        candidate = guttman @ (b @ pos)
        dist = _pair_offsets(candidate, work)[2]
        candidate_energy = _energy(dist, hops, weight, work[0])
        if candidate_energy > energy:
            break
        converged = energy - candidate_energy <= tol * energy
        pos, energy = candidate, candidate_energy
        history.append(energy)
        iterations += 1
        if converged:
            break
    return Layout(pos, iterations, tuple(history))


def split_and_pack(g: Graph, layout_fn, seed: int = 42) -> np.ndarray:
    """Lay out each connected component, pack the boxes, and fit the map to the page.

    Returns the (n, 2) coordinates of ``g``'s nodes in the unit square. A
    connected graph is ``layout_fn(g, seed)``'s drawing fitted there with a
    uniform (aspect-preserving) transform, centred. Otherwise components with
    two or more nodes are laid out by ``layout_fn(component_graph, seed + index)``
    in descending node-count order, each fitted the same way into a box whose
    side grows with the square root of its node share, and packed left to
    right with 5% gutters. Isolated nodes go into a trailing row underneath,
    and the whole drawing is fitted once more.
    """
    n = len(g.nodes)
    if n == 0:
        raise DataError("cannot lay out an empty graph")
    components = g.connected_components()
    if len(components) == 1:
        return _normalize(layout_fn(g, seed).raw)
    multi = sorted(
        (c for c in components if len(c) > 1), key=lambda c: (-len(c), c[0])
    )
    isolates = [c[0] for c in components if len(c) == 1]

    coords = np.zeros((n, 2))
    gutter = 0.05
    x_cursor = 0.0
    for index, comp in enumerate(multi):
        side = math.sqrt(len(comp) / n)
        box = _normalize(layout_fn(g.subgraph(comp), seed + index).raw) * side
        box[:, 0] += x_cursor
        coords[comp] = box
        x_cursor += side + gutter
    main_width = max(x_cursor - gutter, 0.0)
    if isolates:
        row_y = -2 * gutter  # strictly below every packed box
        spacing = main_width / max(len(isolates) - 1, 1) if main_width > 0 else gutter
        coords[isolates, 0] = np.arange(len(isolates)) * spacing
        coords[isolates, 1] = row_y
    return _normalize(coords)
