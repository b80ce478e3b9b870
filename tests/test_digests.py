"""Artifact digests of generated corpora, against ``tests/golden/matrix.json``.

The micro goldens pin the bytes of one small corpus. This table pins them on
larger ones: the sha256 of the eight byte artifacts, and of ``report.json``
without its ``input`` and ``out`` paths, for corpusgen 200 x 1000 corpora
(``perfbench/corpusgen.py``, one document per line) at the settings of
``CASES``. The same table must hold under every OpenBLAS kernel; run this file
again with e.g. ``OPENBLAS_CORETYPE=Haswell`` to check another one.

After an intended byte change, regenerate the table with
``PYTHONPATH=src python tests/test_digests.py --write`` and list which
artifacts of which cases moved.
"""

from __future__ import annotations

import hashlib
import json
import runpy
import sys
import tempfile
from pathlib import Path

from cowordmap.pipeline import ARTIFACTS, PipelineConfig, run

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "matrix.json"

SEEDS = (1, 3)
CASES = {
    "fr-top160": {"top": 160, "factors": 5},
    "kk-top120": {"layout": "kk", "top": 120, "factors": 5},
    "kaiser-top120": {"top": 120},
    "binary-obsexp-cooc-top60": {"binary": True, "cells": "obsexp", "map": "cooc", "top": 60},
    "q-tfidf-kk-top60": {"mode": "Q", "cells": "tfidf", "layout": "kk", "factors": 3,
                         "top": 60},
    "kk-top400": {"layout": "kk", "top": 400, "factors": 5},
}
# Seed 3's binary case keeps 31 Kaiser factors, and its rotated factors 28
# and 30 trade places between OpenBLAS kernels (Haswell against SkylakeX), so
# its loadings.csv, factors.net and map.svg have no kernel-independent bytes.
LEFT_OUT = {(3, "binary-obsexp-cooc-top60")}


def digests() -> dict[str, dict[str, str]]:
    """Run every case into a temporary directory; its digests by case name."""
    generate = runpy.run_path(str(ROOT / "perfbench" / "corpusgen.py"))["generate"]

    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            corpus = Path(tmp) / f"zipf{seed}.lines"
            corpus.write_text(generate(200, 1000, seed=seed).text, encoding="utf-8")
            for name, settings in CASES.items():
                if (seed, name) in LEFT_OUT:
                    continue
                out = Path(tmp) / f"{seed}-{name}"
                run(PipelineConfig.build({"input": str(corpus), "input_format": "lines",
                                          "out": str(out), **settings}))
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                del report["config"]["input"], report["config"]["out"]
                blobs = {n: (out / n).read_bytes() for n in ARTIFACTS if n != "report.json"}
                blobs["report.json"] = (json.dumps(report, indent=2, sort_keys=True)
                                        + "\n").encode("utf-8")
                table[f"seed{seed}/{name}"] = {
                    n: hashlib.sha256(blob).hexdigest() for n, blob in blobs.items()
                }
    return table


def test_generated_corpora_match_the_digest_table():
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    got = digests()
    assert got.keys() == want.keys()
    moved = {case: sorted(n for n in want[case] if got[case][n] != want[case][n])
             for case in want}
    assert not any(moved.values()), {case: names for case, names in moved.items() if names}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digests.py --write")
    TABLE.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
