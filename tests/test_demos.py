"""Every script in demos/ runs to completion against the installed package."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.filterwarnings("ignore::cowordmap.errors.CowordMapWarning")
@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos write their output into the cwd
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
