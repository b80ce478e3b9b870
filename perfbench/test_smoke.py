"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root (not part of the default ``tests/`` suite)::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def results(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_spec_matches_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_generator_is_deterministic_and_hits_targets():
    a = corpusgen.generate(30, 100, seed=5)
    b = corpusgen.generate(30, 100, seed=5)
    assert a == b
    assert a.sha256 != corpusgen.generate(30, 100, seed=6).sha256
    lines = a.text.splitlines()
    assert len(lines) == 30
    assert len({tok for line in lines for tok in line.split()}) == 100
    assert sum(len(line.split()) for line in lines) == a.tokens


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = run_bench(ROOT, "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    found = results(proc.stdout)
    assert len(found) == len(bench.WORKLOADS)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    for result in found:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in expected
        }
    assert proc.stdout.splitlines()[-1] == json.dumps(found[-1])


def copy_checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    for part in ("src", "tests/golden", "perfbench"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def test_golden_mismatch_stops_before_timing(tmp_path):
    root = copy_checkout(tmp_path)
    golden = root / "tests" / "golden" / "micro" / "terms.csv"
    golden.write_bytes(golden.read_bytes() + b"\n")
    proc = run_bench(root, "--smoke", "--workload", "wide-corpus")
    assert proc.returncode == 3
    assert "golden gate failed" in proc.stderr
    assert results(proc.stdout) == []


def test_refuses_a_directory_without_sources(tmp_path):
    root = copy_checkout(tmp_path)
    shutil.rmtree(root / "src")
    shutil.rmtree(root / "tests")
    proc = run_bench(root, "--workload", "wide-corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert results(proc.stdout) == []
