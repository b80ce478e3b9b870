"""Run the ``coword-map`` CLI once with every layer wrapped in spans.

Usage (the benchmark starts it as a child, with ``src`` on PYTHONPATH)::

    python perfbench/traced.py SPANS.jsonl SUMMARY.json run --config ... --out ...

The public functions of each ``cowordmap`` module are replaced, from
outside, by wrappers that record a span (name, start, end, parent id) and
per-call counts in memory. The program's own code is not edited: a function
is patched where its caller looks it up, e.g. ``factors.pearson_matrix``
(imported by name) as well as ``vectorspace.pearson_matrix``, and
``Graph.connected_components`` on the class. Stage spans come from the
``cowordmap`` logger records that ``pipeline.run_stage`` emits after each
stage. At exit the spans are written as JSON lines to SPANS.jsonl and the
per-layer metrics of this one process to SUMMARY.json. The exit status is
the CLI's.
"""

from __future__ import annotations

import ctypes
import json
import logging
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from cowordmap import cli, corpus, export, factors, layout, pipeline, termstats, vectorspace

STAGES = pipeline.STAGE_ORDER


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, after=None, peak_memory: bool = False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, args, kwargs)`` runs after each call, outside the
        span, to take counts from the call's arguments and result.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            if peak_memory:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                return_value = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if peak_memory:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stack.pop()
            if after is not None:
                after(return_value, args, kwargs)
            return return_value

        setattr(owner, attr, wrapper)

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def dump(self, path: Path) -> None:
        """Write spans and counts as JSON lines.

        Layer spans opened directly under ``run_stage`` are re-parented to
        their stage span, the first stage to end after them; stage spans are
        only known once their stage has ended.
        """
        stages = [s for s in self.spans if s["name"].startswith("pipeline.stage.")]
        for span in self.spans:
            parent = span["parent"]
            if (parent is None or span["name"].startswith("pipeline.stage.")
                    or self.spans[parent]["name"] != "pipeline.run_stage"):
                continue
            enclosing = [s for s in stages if s["end"] >= span["end"]]
            if enclosing:
                span["parent"] = enclosing[0]["id"]
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
            fh.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")


class StageSpans(logging.Handler):
    """Turn ``stage <name>: <status> (<seconds>)`` records into stage spans."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if not record.msg.startswith("stage ") or len(record.args) != 3:
            return
        stage, status, seconds = record.args
        end = time.perf_counter()
        self.tracer.spans.append({
            "id": len(self.tracer.spans), "name": f"pipeline.stage.{stage}",
            "parent": self.tracer.stack[-1] if self.tracer.stack else None,
            "start": end - seconds, "end": end, "status": status,
        })
        if status == "cached":
            self.tracer.count("pipeline.cached_stages")


def blas_threads() -> int:
    """OpenBLAS thread count of this process, or 0 when it cannot be read."""
    libs = {
        line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
        if "openblas" in line.lower() and ".so" in line
    }
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return 0


def instrument(tracer: Tracer) -> dict:
    """Install every wrapper; return a dict the hooks fill with run facts."""
    facts: dict = {"csv_bytes": 0}
    w = tracer.wrap

    def csv_size(_result, args, kwargs):
        facts["csv_bytes"] += Path(kwargs.get("path", args[1])).stat().st_size

    def matrix_nnz(result, _args, _kwargs):
        tracer.count("corpus.matrix_nnz", int(np.count_nonzero(result.counts)))

    def fr_iterations(_result, args, kwargs):
        if len(args[0].nodes) > 1:
            tracer.count("layout.fr.iterations", kwargs.get("iterations", 500))

    def remember_report(result, _args, _kwargs):
        facts["report"] = result.report

    w(cli, "run_stage", "pipeline.run_stage", after=remember_report)
    w(corpus, "load_corpus", "corpus.load_corpus")
    w(corpus, "build_vocabulary", "corpus.build_vocabulary")
    w(corpus, "build_word_doc_matrix", "corpus.build_word_doc_matrix", after=matrix_nnz)
    # tokenize runs once per document per pass: counted, not spanned.
    tokenize = corpus.tokenize

    def counted_tokenize(*args, **kwargs):
        tracer.count("corpus.tokenize.calls")
        return tokenize(*args, **kwargs)

    corpus.tokenize = counted_tokenize

    w(termstats, "term_scores", "termstats.term_scores", peak_memory=True)
    w(termstats, "expected_matrix", "termstats.expected_matrix")
    w(termstats, "select_terms", "termstats.select_terms")

    w(export, "write_csv", "export.write_csv", after=csv_size)
    for name in ("read_csv_matrix", "write_table_csv", "write_pajek_matrix",
                 "write_pajek_net", "render_svg_map"):
        w(export, name, f"export.{name}")

    for name in ("cosine_matrix", "cooccurrence", "pearson_matrix", "threshold_graph"):
        w(vectorspace, name, f"vectorspace.{name}")
    w(vectorspace.Graph, "connected_components", "vectorspace.connected_components",
      after=lambda result, _a, _k: tracer.count("vectorspace.components", len(result)))

    w(factors, "factor_analyze", "factors.factor_analyze")
    w(factors, "pearson_matrix", "factors.pearson_matrix")
    w(factors, "varimax", "factors.varimax",
      after=lambda result, _a, _k: tracer.count("factors.varimax.sweeps", result.rotation_sweeps))

    w(layout, "split_and_pack", "layout.split_and_pack",
      after=lambda _r, args, _k: tracer.count("vectorspace.map_edges", len(args[0].edges)))
    w(layout, "fruchterman_reingold", "layout.fruchterman_reingold", after=fr_iterations)
    w(layout, "kamada_kawai", "layout.kamada_kawai",
      after=lambda result, _a, _k: tracer.count("layout.kk.moves", result.iterations))
    w(layout, "graph_distances", "layout.graph_distances",
      after=lambda _r, _a, _k: tracer.count("layout.graph_distances.calls"))
    return facts


def summarize(tracer: Tracer, facts: dict) -> dict:
    """Per-layer metrics of this process, named as in BENCHMARK.json."""
    t, c = tracer.total, tracer.counts
    documents = facts.get("report", {}).get("corpus", {}).get("documents", 0)
    fr_iters = c.get("layout.fr.iterations", 0)
    peak = [s["peak_bytes"] for s in tracer.spans if "peak_bytes" in s]
    roots = [s for s in tracer.spans if s["name"] == "pipeline.run_stage"]
    stage_spans = [s for s in tracer.spans if s["name"].startswith("pipeline.stage.")]
    metrics = {
        "corpus.load_corpus.s": t("corpus.load_corpus"),
        "corpus.build_vocabulary.s": t("corpus.build_vocabulary"),
        "corpus.build_word_doc_matrix.s": t("corpus.build_word_doc_matrix"),
        "corpus.tokenize.calls_per_doc":
            c.get("corpus.tokenize.calls", 0) / documents if documents else 0.0,
        "corpus.matrix_nnz": c.get("corpus.matrix_nnz", 0),
        "termstats.term_scores.s": t("termstats.term_scores"),
        "termstats.term_scores.peak_mb": max(peak, default=0) / 2**20,
        "termstats.expected_matrix.s": t("termstats.expected_matrix"),
        "termstats.select_terms.s": t("termstats.select_terms"),
        "export.write_csv.s": t("export.write_csv"),
        "export.write_csv.mb": facts["csv_bytes"] / 2**20,
        "export.read_csv_matrix.s": t("export.read_csv_matrix"),
        "export.write_table_csv.s": t("export.write_table_csv"),
        "export.write_pajek_matrix.s": t("export.write_pajek_matrix"),
        "export.write_pajek_net.s": t("export.write_pajek_net"),
        "export.render_svg_map.s": t("export.render_svg_map"),
        "vectorspace.cosine_matrix.s": t("vectorspace.cosine_matrix"),
        "vectorspace.cooccurrence.s": t("vectorspace.cooccurrence"),
        "vectorspace.threshold_graph.s": t("vectorspace.threshold_graph"),
        "vectorspace.connected_components.s": t("vectorspace.connected_components"),
        "vectorspace.map_edges": c.get("vectorspace.map_edges", 0),
        "vectorspace.components": c.get("vectorspace.components", 0),
        "factors.factor_analyze.s": t("factors.factor_analyze"),
        "factors.pearson_matrix.s": t("factors.pearson_matrix") + t("vectorspace.pearson_matrix"),
        "factors.varimax.s": t("factors.varimax"),
        "factors.varimax.sweeps": c.get("factors.varimax.sweeps", 0),
        "layout.split_and_pack.s": t("layout.split_and_pack"),
        "layout.fruchterman_reingold.s": t("layout.fruchterman_reingold"),
        "layout.fr.ms_per_iter":
            1000 * t("layout.fruchterman_reingold") / fr_iters if fr_iters else 0.0,
        "layout.kamada_kawai.s": t("layout.kamada_kawai"),
        "layout.kk.moves": c.get("layout.kk.moves", 0),
        "layout.graph_distances.s": t("layout.graph_distances"),
        "layout.graph_distances.calls": c.get("layout.graph_distances.calls", 0),
    }
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}.s"] = t(f"pipeline.stage.{stage}")
    metrics["pipeline.cached_stages"] = c.get("pipeline.cached_stages", 0)
    root_s = sum(s["end"] - s["start"] for s in roots)
    stage_s = sum(s["end"] - s["start"] for s in stage_spans)
    metrics["pipeline.self_s"] = root_s - stage_s
    # Wall-clock time of run_stage entry, comparable with the parent's launch time.
    entry = time.time() - (time.perf_counter() - roots[0]["start"]) if roots else None
    return {
        "metrics": metrics,
        "blas_threads": blas_threads(),
        "run_stage_entry": entry,
        "stage_s": stage_s,
    }


def main(argv: list[str]) -> int:
    spans_path, summary_path, cli_args = Path(argv[0]), Path(argv[1]), argv[2:]
    tracer = Tracer()
    facts = instrument(tracer)
    logging.getLogger("cowordmap").addHandler(StageSpans(tracer))
    status = cli.main(cli_args)
    tracer.dump(spans_path)
    summary_path.write_text(json.dumps(summarize(tracer, facts), sort_keys=True), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
