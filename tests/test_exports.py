"""Every name in a ``cowordmap`` module's ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

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
