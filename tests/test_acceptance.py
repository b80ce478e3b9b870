"""Behavioral acceptance suite.

Every check here pins an external contract of the package: formula oracles
coded independently of the library, stated tolerances, format golden bytes,
and end-to-end determinism and runtime bounds. One ``[accept] ... PASS``
line is printed per criterion (run with ``pytest -v -s`` to see them).
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    make_matrix, random_pruned_counts, read_pajek_matrix, read_pajek_net, same_graph,
)
from cowordmap.errors import CowordMapWarning
from cowordmap.export import render_svg_map, write_pajek_matrix, write_pajek_net
from cowordmap.factors import (
    UNASSIGNED,
    FactorSolution,
    assign_factors,
    factor_analyze,
    factor_graph,
    varimax,
    varimax_criterion,
)
from cowordmap.layout import fruchterman_reingold, graph_distances, kamada_kawai
from cowordmap.pipeline import ARTIFACTS, PipelineConfig, run
from cowordmap.termstats import chi_square, expected_matrix, obs_exp, tfidf_matrix
from cowordmap.vectorspace import (
    Graph,
    SimilarityMatrix,
    cooccurrence,
    cosine_matrix,
    pearson_matrix,
    threshold_graph,
)

GOLDEN = Path(__file__).parent / "golden" / "micro"


def ok(name: str) -> None:
    print(f"[accept] {name}: PASS")


def micro_config(micro_dir, out) -> PipelineConfig:
    return PipelineConfig.build({
        "input": str(micro_dir), "out": str(out), "top": 20, "factors": 5,
    })


def test_criterion_01_tfidf_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    saw_full_column = 0
    for trial in range(200):
        counts = random_pruned_counts(rng, 10, 20, 9)
        if trial % 3 == 0:
            counts[:, 0] = np.maximum(counts[:, 0], 1)  # docfreq == n column
        m = make_matrix(counts)
        cells = tfidf_matrix(m)
        n = m.n_docs
        for k in range(m.n_terms):
            docfreq = sum(1 for i in range(n) if counts[i, k] > 0)
            if docfreq == n:
                saw_full_column += 1
                assert (cells[:, k] == 0.0).all()
            for i in range(n):
                manual = counts[i, k] * math.log2(n / docfreq)
                assert abs(cells[i, k] - manual) < 1e-12
    elapsed = time.perf_counter() - started
    assert saw_full_column > 0
    assert elapsed < 1.0, f"tf-idf oracle took {elapsed:.2f}s"
    ok("01 tf-idf formula oracle (200 matrices, 1e-12, <1s)")


def _chi2_oracle(counts, yates: bool):
    rows, cols = len(counts), len(counts[0])
    row_sum = [sum(counts[i][k] for k in range(cols)) for i in range(rows)]
    col_sum = [sum(counts[i][k] for i in range(rows)) for k in range(cols)]
    grand = sum(row_sum)
    per_cell = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(cols):
            expected = row_sum[i] * col_sum[k] / grand
            deviation = abs(counts[i][k] - expected)
            if yates and counts[i][k] < 5:
                deviation = max(deviation - 0.5, 0.0)
            per_cell[i][k] = deviation * deviation / expected
    return sum(map(sum, per_cell)), per_cell


def test_criterion_02_chi_square_oracle():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    for _ in range(200):
        counts = random_pruned_counts(rng, 6, 6, 9)
        m = make_matrix(counts)
        off = chi_square(m, yates="off")
        on = chi_square(m, yates="observed_lt_5")
        total_off, cells_off = _chi2_oracle(counts.tolist(), yates=False)
        total_on, cells_on = _chi2_oracle(counts.tolist(), yates=True)
        assert abs(off.sum() - total_off) < 1e-9
        assert abs(on.sum() - total_on) < 1e-9
        np.testing.assert_allclose(off, cells_off, atol=1e-9)
        np.testing.assert_allclose(on, cells_on, atol=1e-9)
        assert on.sum() <= off.sum() + 1e-12
    reference_total, _ = _chi2_oracle([[10, 20], [30, 40]], yates=False)
    report = chi_square(make_matrix([[10, 20], [30, 40]]), yates="off")
    assert abs(report.sum() - reference_total) < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"chi-square oracle took {elapsed:.2f}s"
    ok("02 chi-square contingency oracle (200 matrices, 1e-9, <1s)")


def test_criterion_03_margin_property():
    rng = np.random.default_rng(103)
    for _ in range(200):
        m = make_matrix(random_pruned_counts(rng, 8, 12))
        e = expected_matrix(m)
        np.testing.assert_allclose(e.sum(axis=0), m.col_margins, atol=1e-9)
        np.testing.assert_allclose(e.sum(axis=1), m.row_margins, atol=1e-9)
    uniform = make_matrix(np.full((5, 7), 3))
    np.testing.assert_allclose(obs_exp(uniform), 1.0, atol=1e-12)
    ok("03 expected-matrix margins preserved; uniform obs/exp all ones")


def test_criterion_04_pearson_equals_centered_cosine():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 500:
        length = int(rng.integers(3, 40))
        pair = rng.random((length, 2)) * rng.choice([0.5, 1, 20])
        centered = pair - pair.mean(axis=0)
        if (np.linalg.norm(centered, axis=0) == 0).any():
            continue
        p = pearson_matrix(pair).values[0, 1]
        c = cosine_matrix(centered).values[0, 1]
        assert abs(p - c) < 1e-12
        checked += 1
    ok("04 pearson == cosine of centered vectors (500 pairs, 1e-12)")


def test_criterion_05_cooccurrence_exactness():
    rng = np.random.default_rng(105)
    for _ in range(100):
        counts = random_pruned_counts(rng, 12, 18, 9)
        m = make_matrix(counts)
        for mode in ("words", "documents"):
            product = cooccurrence(m, mode=mode).values
            a = counts.T if mode == "words" else counts
            n, depth = a.shape
            manual = np.zeros((n, n), dtype=np.int64)
            for x in range(n):
                for y in range(n):
                    acc = 0
                    for z in range(depth):
                        acc += a[x, z] * a[y, z]
                    manual[x, y] = acc
            assert np.array_equal(product, manual)
            assert np.array_equal(product, product.T)
    binary = (random_pruned_counts(rng, 9, 11) > 0).astype(np.int64)
    diag = np.diag(cooccurrence(make_matrix(binary), mode="words").values)
    np.testing.assert_array_equal(diag, binary.sum(axis=0))
    ok("05 co-occurrence products exact vs triple loop; binary diag = docfreq")


def test_criterion_06_factor_reconstruction():
    rng = np.random.default_rng(106)
    for _ in range(50):
        data = rng.normal(size=(20, 8))
        sol = factor_analyze(data, k=8)
        corr = np.corrcoef(data, rowvar=False)
        np.testing.assert_allclose(sol.loadings @ sol.loadings.T, corr, atol=1e-8)
        for f in range(sol.n_factors):
            v = sol.loadings[:, f] / math.sqrt(sol.eigenvalues[f])
            residual = corr @ v - sol.eigenvalues[f] * v
            assert np.linalg.norm(residual) < 1e-8
    ok("06 full-retention reconstruction and eigen residuals (50 x 20x8, 1e-8)")


def _hand_solution(loadings) -> FactorSolution:
    loadings = np.asarray(loadings, dtype=float)
    p, k = loadings.shape
    return FactorSolution(
        loadings=loadings, eigenvalues=np.zeros(k), rotated=False,
        variable_labels=[f"v{j}" for j in range(p)],
    )


def test_criterion_07_varimax_invariants():
    rng = np.random.default_rng(107)
    for _ in range(20):
        p, k = int(rng.integers(4, 12)), int(rng.integers(2, 5))
        loadings = rng.normal(size=(p, k)) / 2
        sol = _hand_solution(loadings)
        rotated = varimax(sol, kaiser_normalize=bool(rng.integers(2)))
        np.testing.assert_allclose(
            rotated.communalities(), sol.communalities(), atol=1e-8
        )
        t = rotated.rotation_matrix
        np.testing.assert_allclose(t.T @ t, np.eye(k), atol=1e-10)
        history = rotated.criterion_history
        assert all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
    for _ in range(10):
        loadings = rng.normal(size=(int(rng.integers(4, 10)), 2)) / 2
        rotated = varimax(_hand_solution(loadings), kaiser_normalize=False)
        t = rotated.rotation_matrix
        angle = math.degrees(math.atan2(t[1, 0], t[0, 0])) % 90.0
        best_angle, best_value = 0.0, -np.inf
        for deg in np.arange(0.0, 90.0, 0.1):
            theta = math.radians(deg)
            rot = np.array([
                [math.cos(theta), -math.sin(theta)],
                [math.sin(theta), math.cos(theta)],
            ])
            value = varimax_criterion(loadings @ rot)
            if value > best_value:
                best_angle, best_value = deg, value
        distance = abs(angle - best_angle) % 90.0
        assert min(distance, 90.0 - distance) <= 0.5
    ok("07 varimax: communalities 1e-8, orthogonality 1e-10, grid angle 0.5 deg")


def test_criterion_08_suppression_behavior(tmp_path):
    sol = _hand_solution([
        [0.1, -0.1],    # boundary values: suppressed
        [0.05, 0.02],   # inside the interval: suppressed
        [-0.5, 0.0],    # negative decisive loading
        [0.0, 0.9],     # positive decisive loading
    ])
    graph = factor_graph(sol, suppression=0.1)
    assert graph.edges.tolist() == [[2, 4], [3, 5]]  # only the two strong loadings
    assert graph.dotted.tolist() == [True, False]
    assert graph.weights[0] == pytest.approx(0.5)
    assignment = assign_factors(sol, suppression=0.1)
    assert assignment.factor[0] == UNASSIGNED
    assert assignment.factor[1] == UNASSIGNED
    assert assignment.factor[2] == 0 and assignment.sign[2] == -1
    assert assignment.factor[3] == 1 and assignment.sign[3] == 1

    coords = np.linspace(0.1, 0.9, 4)[:, None] * np.ones((1, 2))
    node_graph = Graph([f"v{j}" for j in range(4)], [], [])
    svg = tmp_path / "suppression.svg"
    render_svg_map(node_graph, coords, assignment, svg)
    text = svg.read_text()
    assert text.count('fill="#ffffff"') == 2  # both suppressed nodes white
    ok("08 closed [-0.1, 0.1] suppression: no edges, white nodes, dotted negatives")


def test_criterion_09_threshold_semantics():
    defaults = PipelineConfig.build({"input": "x"})
    assert defaults.cos_threshold == 0.1
    assert defaults.cooc_threshold == 1.0
    sim = SimilarityMatrix(
        values=np.array([[1.0, 0.1], [0.1, 1.0]]), labels=["a", "b"]
    )
    assert len(threshold_graph(sim, 0.1, rule="geq").edges) == 1
    cooc = SimilarityMatrix(
        values=np.array([[5, 1], [1, 5]]), labels=["a", "b"]
    )
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore", CowordMapWarning)
        assert not len(threshold_graph(cooc, 1.0, rule="gt").edges)
        rng = np.random.default_rng(109)
        values = rng.random((9, 9))
        values = (values + values.T) / 2
        matrix = SimilarityMatrix(values=values, labels=[f"n{i}" for i in range(9)])
        previous = None
        for threshold in np.linspace(0.0, 1.1, 23):
            count = len(threshold_graph(matrix, float(threshold), rule="geq").edges)
            if previous is not None:
                assert count <= previous
            previous = count
    ok("09 cosine >= 0.1 and cooc > 1 defaults; edge count monotone in threshold")


def test_criterion_10_layout_checks(tmp_path, monkeypatch):
    two = Graph(["a", "b"], [(0, 1)], [1.0])
    layout = fruchterman_reingold(two, iterations=500, seed=42)
    k = math.sqrt(1.0 / 2)
    separation = float(np.linalg.norm(layout.raw[0] - layout.raw[1]))
    assert abs(separation - k) <= 0.1 * k

    triangle = Graph(list("abc"), [(0, 1), (0, 2), (1, 2)], [1.0, 1.0, 1.0])
    kk = kamada_kawai(triangle, seed=11)
    sides = [
        float(np.linalg.norm(kk.raw[a] - kk.raw[b]))
        for a, b in [(0, 1), (0, 2), (1, 2)]
    ]
    assert max(sides) - min(sides) < 1e-4 * 1.0

    path_graph = Graph(list("abc"), [(0, 1), (1, 2)], [1.0, 1.0])
    hops = graph_distances(path_graph)
    converged = kamada_kawai(path_graph, seed=13)

    def oracle_stress(coords):
        total = 0.0
        for a in range(3):
            for b in range(a + 1, 3):
                geo = math.dist(coords[a], coords[b])
                total += (geo - hops[a, b]) ** 2 / hops[a, b] ** 2
        return total

    rng = np.random.default_rng(110)
    best_random = min(
        oracle_stress(rng.random((3, 2)) * 2) for _ in range(100)
    )
    assert oracle_stress(converged.raw) <= best_random

    again = fruchterman_reingold(two, iterations=500, seed=42)
    assert np.array_equal(layout.raw, again.raw)
    kk_again = kamada_kawai(triangle, seed=11)
    assert np.array_equal(kk.raw, kk_again.raw)

    # One run in two processes, with one and two OpenBLAS threads, on a corpus
    # large enough for OpenBLAS to split its products, eigh and inv.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import corpusgen

    corpus_file = tmp_path / "zipf.lines"
    corpus_file.write_text(corpusgen.generate(200, 1000, seed=3).text, encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {corpus_file}\ninput_format = lines\n", encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "cowordmap", "run", "--config", str(config),
             "--out", str(out), "--top", "160", "--factors", "5"],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({n: (out / n).read_bytes() for n in ARTIFACTS if n != "report.json"})
    assert len(outputs[0]) == 8 and outputs[0] == outputs[1]
    ok("10 FR separation ~k, KK equilateral/stress, bitwise seeds, OpenBLAS threads 1 vs 2")


def test_criterion_11_format_fidelity(micro_dir, tmp_path):
    out = tmp_path / "golden-check"
    run(micro_config(micro_dir, out))
    for name in sorted(GOLDEN.iterdir()):
        produced = (out / name.name).read_bytes()
        assert produced == name.read_bytes(), f"{name.name} deviates from golden bytes"
    assert ET.parse(out / "map.svg").getroot().tag == "{http://www.w3.org/2000/svg}svg"

    rng = np.random.default_rng(111)
    for i in range(100):
        n = int(rng.integers(2, 10))
        edges, weights, dotted = [], [], []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    edges.append((a, b))
                    weights.append(float(rng.integers(1, 99999)) / 10000.0)
                    dotted.append(bool(rng.integers(2)))
        g = Graph([f"n{j}" for j in range(n)], edges, weights, dotted)
        path = tmp_path / f"rt{i}.net"
        write_pajek_net(g, None, path)
        back, _ = read_pajek_net(path)
        assert same_graph(back, g) and back.sizes is None

        size = int(rng.integers(1, 8))
        half = rng.integers(0, 40, size=(size, size))
        cooc = SimilarityMatrix(
            values=half + half.T, labels=[f"t{j}" for j in range(size)]
        )
        dat = tmp_path / f"rt{i}.dat"
        write_pajek_matrix(cooc, dat)
        parsed = read_pajek_matrix(dat)
        assert np.array_equal(parsed.values, cooc.values)
        assert parsed.labels == cooc.labels
    ok("11 golden bytes for micro corpus; 100 read/write round trips")


def test_criterion_12_end_to_end(micro_dir, tmp_path):
    out = tmp_path / "micro"
    started = time.perf_counter()
    run(micro_config(micro_dir, out))
    micro_elapsed = time.perf_counter() - started
    assert micro_elapsed < 5.0, f"micro pipeline took {micro_elapsed:.2f}s"
    first = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert set(first) == set(ARTIFACTS)
    shutil.rmtree(out)
    run(micro_config(micro_dir, out))
    second = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert first == second

    # synthetic load: 500 documents over a 2000-term vocabulary
    rng = np.random.default_rng(112)
    terms = np.array([f"term{i:04d}" for i in range(2000)])
    weights = 1.0 / np.arange(1, 2001) ** 1.05
    weights /= weights.sum()
    lines = []
    for d in range(500):
        tokens = list(rng.choice(terms, size=int(rng.integers(80, 150)), p=weights))
        tokens.extend(terms[j] for j in range(d * 4, d * 4 + 4))  # cover all terms
        lines.append(" ".join(tokens))
    corpus_file = tmp_path / "synthetic.txt"
    corpus_file.write_text("\n".join(lines) + "\n", encoding="utf-8")

    config = PipelineConfig.build({
        "input": str(corpus_file), "input_format": "lines",
        "out": str(tmp_path / "synthetic-out"),
        "criterion": "obsexp", "top": 75, "factors": 5, "layout": "fr",
    })
    started = time.perf_counter()
    result = run(config)
    synthetic_elapsed = time.perf_counter() - started
    assert synthetic_elapsed < 60.0, f"synthetic pipeline took {synthetic_elapsed:.2f}s"
    assert result.report["corpus"]["vocabulary"] == 2000
    assert result.report["corpus"]["documents"] == 500
    assert result.report["factors"]["retained"] == 5
    ok(
        "12 end-to-end: micro "
        f"{micro_elapsed:.2f}s (<5s), synthetic 500x2000 {synthetic_elapsed:.2f}s (<60s)"
    )
