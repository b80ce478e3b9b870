"""Every name in a ``cowordmap`` module's ``__all__`` resolves, and every name
the benchmark's traced mode wraps, which also runs on the micro corpus."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cowordmap
from cowordmap import corpus, export, pipeline
from cowordmap.data import micro_config_path, micro_corpus_dir

MODULES = ["cowordmap"] + [
    f"cowordmap.{info.name}"
    for info in pkgutil.iter_modules(cowordmap.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


def test_every_module_is_listed():
    assert {"cowordmap.corpus", "cowordmap.factors", "cowordmap.data"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    exported = getattr(importlib.import_module(module), "__all__", [])
    namespace: dict = {}
    exec(f"from {module} import *", namespace)  # AttributeError on a stale name
    assert set(exported) <= set(namespace)


def test_traced_benchmark_wraps_only_names_that_exist():
    # perfbench/traced.py replaces cowordmap functions by name; a deleted or
    # renamed one makes instrument() raise AttributeError.
    root = Path(__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(root / 'perfbench')!r}); "
        "import traced; traced.instrument(traced.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_benchmark_runs_its_hooks_on_the_micro_corpus(tmp_path):
    # Running the hooks, not only installing them, reads Graph.nodes and
    # Graph.edges from inside the program's own calls.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced.py"), str(tmp_path / "spans.jsonl"),
         str(tmp_path / "summary.json"), "run", "--config", str(micro_config_path()),
         "--input", str(micro_corpus_dir()), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))["metrics"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert metrics["vectorspace.map_edges"] == report["map"]["edges"] > 0
    # Stage spans come from run_stage's "stage <name>: <status> (<seconds>)" lines.
    assert all(metrics[f"pipeline.stage.{name}.s"] > 0 for name in pipeline.STAGE_ORDER)
    assert metrics["corpus.tokenize.calls_per_doc"] == 1.0


def test_build_vocabulary_is_the_count_builder_outside_all():
    # Kept only because perfbench/traced.py wraps the names.
    assert corpus.build_vocabulary is corpus.build_word_doc_matrix
    assert not {"Vocabulary", "build_vocabulary"} & set(corpus.__all__)
    assert not hasattr(corpus, "Vocabulary")
    assert export.read_csv_matrix is None
    assert "read_csv_matrix" not in export.__all__


def test_readme_library_block_runs_on_the_micro_corpus(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.partition("\n## Library\n")[2].partition("```python\n")[2].partition("```")[0]
    assert '"texts/"' in block
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(block.replace('"texts/"', repr(str(micro_corpus_dir()))), {})
    assert "<svg " in (tmp_path / "map.svg").read_text(encoding="utf-8")


def test_package_stays_within_the_line_budget():
    # The ROADMAP budget for src/cowordmap/*.py, with room left for a trace module.
    package = Path(__file__).resolve().parents[1] / "src" / "cowordmap"
    lines = sum(len(path.read_bytes().splitlines()) for path in package.glob("*.py"))
    assert lines <= 2637, f"src/cowordmap/*.py has {lines} lines, over the budget of 2637"
