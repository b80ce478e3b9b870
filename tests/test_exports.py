"""Every name in a ``cowordmap`` module's ``__all__`` resolves, and every name
the benchmark's traced mode wraps."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cowordmap

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


def test_package_stays_within_the_line_budget():
    # The ROADMAP budget for src/cowordmap/*.py, with room left for a trace module.
    package = Path(__file__).resolve().parents[1] / "src" / "cowordmap"
    lines = sum(len(path.read_bytes().splitlines()) for path in package.glob("*.py"))
    assert lines <= 2921, f"src/cowordmap/*.py has {lines} lines, over the budget of 2921"
