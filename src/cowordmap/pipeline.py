"""End-to-end orchestration: configuration, staged execution, artifacts.

A run turns an input corpus into nine artifacts inside the output
directory:

========== ==================================================
ingest     matrix.csv (observed counts), expected.csv (margins)
terms      terms.csv (per-term scores)
cooc       coocc.dat (selected-term co-occurrence, Pajek matrix)
factors    loadings.csv, factors.net (variable-factor graph)
map        map.net (thresholded similarity/co-occurrence map)
render     map.svg (map with factor coloring)
(always)   report.json (config echo, counts, pruning, warnings)
========== ==================================================

One table, :data:`STAGES`, drives every run. Each row names a stage, the
stages it runs after, the config keys it reads, its artifacts, and a
compute and a write step; a subcommand runs its stage and everything
upstream. One cache rule holds: a stage's key hashes what its compute
step returns (ingest: the matrix it built), else its declared config
values, with its upstream keys and the package's own sources; a stage is
a hit only when its key matches the manifest and every artifact still
has the sha256 recorded when it was written. A hit skips the write step;
the in-memory state later stages and report.json need is always rebuilt
from the inputs. Identical inputs, config and seed produce byte-identical
artifacts, whatever ran in the output directory before.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import re
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import corpus as corpus_mod
from . import export, layout as layout_mod, termstats, vectorspace
from . import factors as factors_mod
from ._stopwords import DEFAULT_STOPWORDS
from .errors import ConfigError, check_choice

__all__ = ["ARTIFACTS", "PipelineConfig", "RunResult", "run", "run_stage"]

logger = logging.getLogger("cowordmap")

_MANIFEST = ".coword-cache.json"

_CHOICES = {
    "input_format": corpus_mod.FORMATS,
    "criterion": termstats.CRITERIA,
    "yates": termstats.YATES,
    "cells": ("counts", "tfidf", "obsexp"),
    "map": ("cosine", "cooc"),
    "mode": ("R", "Q"),
    "layout": ("fr", "kk"),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Every pipeline switch, with its default.

    Built from a flat ``key = value`` configuration file plus command-line
    overrides (flags win). Unknown keys are rejected.
    """

    input: str = ""
    input_format: str = "files"
    lowercase: bool = True
    token_pattern: str = r"[^\W_]+"
    min_token_length: int = 1
    stopword_file: str | None = None
    synonym_file: str | None = None
    binary: bool = False
    criterion: str = "obsexp"
    top: int | None = 30
    min_score: float | None = None
    yates: str = "observed_lt_5"
    cells: str = "counts"
    map: str = "cosine"
    cos_threshold: float = 0.1
    cooc_threshold: float = 1.0
    factors: int | str = "kaiser"
    rotate: bool = True
    kaiser_normalize: bool = True
    mode: str = "R"
    suppression: float = 0.1
    layout: str = "fr"
    fr_iterations: int = 500
    kk_tol: float = 1e-4
    kk_max_iter: int = 1000
    seed: int = 42
    out: str = "coword-out"

    @classmethod
    def build(
        cls,
        file_values: dict | None = None,
        overrides: dict | None = None,
    ) -> "PipelineConfig":
        """Merge defaults, config-file values, and flag overrides (later wins).

        The selection cut is one choice: a source that sets ``top`` or
        ``min_score`` replaces the cut of every earlier source, the default
        top-30 included. Setting both in one source is an error.
        """
        merged: dict = {}
        for source in (file_values or {}, overrides or {}):
            for key in source:
                if key not in _TYPES:
                    raise ConfigError(f"unknown configuration key {key!r}")
            cuts = [key for key in ("top", "min_score") if source.get(key) is not None]
            if len(cuts) == 2:
                raise ConfigError("give either top or min_score, not both")
            if cuts:
                merged.update(top=None, min_score=None)
            merged.update(source)
        config = cls(**merged)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        """Parse a ``key = value`` file; ``#`` at line start or after a space comments."""
        values: dict = {}
        for lineno, raw in enumerate(corpus_mod.read_lines(path, ConfigError), start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
            values[key] = _parse_value(key, value, f"{path}:{lineno}: {key}")
        return cls.build(values, overrides)

    def validate(self) -> None:
        for key, annotation in _TYPES.items():
            value, kinds = getattr(self, key), annotation.split(" | ")
            types = tuple(_KINDS[kind] for kind in kinds)
            if isinstance(value, bool) != ("bool" in kinds) or not isinstance(value, types):
                raise ConfigError(f"{key} must be {' or '.join(kinds)}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        for key in ("input", "out"):
            if not getattr(self, key):
                raise ConfigError(f"{key} is required (config key '{key}' or --{key})")
        for key, choices in _CHOICES.items():
            check_choice(key, getattr(self, key), choices)
        if (self.top is None) == (self.min_score is None):
            raise ConfigError("give exactly one of top and min_score")
        for key, low in (("top", 1), ("seed", 0), ("fr_iterations", 0), ("kk_max_iter", 0),
                         ("kk_tol", 0), ("suppression", 0)):
            if (value := getattr(self, key)) is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        factors_mod.check_factor_count(self.factors)
        # The tokenizer checks min_token_length and compiles token_pattern.
        corpus_mod.TokenizerConfig(
            token_pattern=self.token_pattern, min_token_length=self.min_token_length
        )


# Every setting's annotation (a string under ``from __future__ import
# annotations``), by name; the one walk over the PipelineConfig fields.
_TYPES = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}

# What each annotation kind accepts; validate also keeps bools and numbers apart.
_KINDS = {"bool": bool, "int": int, "float": (int, float), "str": str, "None": type(None)}


def _parse_value(key: str, value: str, where: str):
    """Parse one config-file or flag value into the type its field declares.

    The annotation in ``_TYPES`` names the kind: ``bool``, ``int...``,
    ``float...``, else text; an ``int | str`` value stays text unless it is
    a decimal integer, and ``validate`` judges it.
    """
    kind = _TYPES[key]
    try:
        if kind == "bool":
            low = value.lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"expected a boolean, got {value!r}")
        if kind.startswith("int") and ("str" not in kind or value.isdecimal()):
            return int(value)
        if kind.startswith("float"):
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class RunResult:
    """What a pipeline invocation produced."""

    out_dir: Path
    artifacts: dict[str, Path]
    stages: dict[str, str]  # stage -> "computed" | "cached"
    report: dict


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    ``compute(view, products)`` fills the in-memory products and runs on
    every invocation; ``write(view, products, out)`` writes the artifacts
    and is skipped on a cache hit. Both see only the config keys named in
    ``reads``; compute's value, or theirs when it returns None, and the
    upstream keys make the cache key.
    """

    name: str
    after: tuple[str, ...]
    reads: tuple[str, ...]
    artifacts: tuple[str, ...]
    compute: Callable[[SimpleNamespace, dict], object]
    write: Callable[[SimpleNamespace, dict, Path], None]


def _digest(parts: list) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _tokenizer_config(view: SimpleNamespace) -> corpus_mod.TokenizerConfig:
    stopwords = DEFAULT_STOPWORDS
    if view.stopword_file:
        stopwords = corpus_mod.load_stopword_file(view.stopword_file)
    synonyms = {}
    if view.synonym_file:
        synonyms = corpus_mod.load_synonym_file(view.synonym_file)
    return corpus_mod.TokenizerConfig(
        lowercase=view.lowercase,
        token_pattern=view.token_pattern,
        min_token_length=view.min_token_length,
        stopwords=stopwords,
        synonyms=synonyms,
    )


def _layout_fn(view: SimpleNamespace):
    if view.layout == "fr":
        return lambda g, seed: layout_mod.fruchterman_reingold(
            g, iterations=view.fr_iterations, seed=seed
        )
    return lambda g, seed: layout_mod.kamada_kawai(
        g, tol=view.kk_tol, max_iter=view.kk_max_iter, seed=seed
    )


def _cells_matrix(m: corpus_mod.WordDocMatrix, which: str) -> np.ndarray:
    if which == "counts":
        return m.counts.astype(float)
    if which == "tfidf":
        return termstats.tfidf_matrix(m)
    return termstats.obs_exp(m)


# ---------------------------------------------------------------------------
# stage bodies


def _compute_ingest(view: SimpleNamespace, products: dict) -> tuple:
    """Build the matrix; return all matrix.csv and expected.csv hold (arrays by digest)."""
    corpus = corpus_mod.load_corpus(view.input, format=view.input_format)
    m = products["matrix"] = corpus_mod.build_word_doc_matrix(
        corpus, _tokenizer_config(view), binary=view.binary
    )
    arrays = (m.indptr, m.indices, m.data)
    # By their bytes: repr elides arrays longer than 1000 items.
    return m.doc_ids, m.terms, [hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]


def _write_ingest(view: SimpleNamespace, products: dict, out: Path) -> None:
    matrix = products["matrix"]
    export.write_csv(matrix, out / "matrix.csv", matrix.doc_ids, matrix.terms)
    cells, *index = termstats.distinct_expected_cells(matrix)
    export.write_csv(cells, out / "expected.csv", matrix.doc_ids, matrix.terms, index=index)


def _compute_terms(view: SimpleNamespace, products: dict) -> None:
    products["scores"] = termstats.term_scores(products["matrix"], yates=view.yates)


def _write_terms(view: SimpleNamespace, products: dict, out: Path) -> None:
    scores = products["scores"]
    order = scores.ranked(view.criterion)
    columns = (scores.freq, scores.doc_freq, scores.tfidf, scores.chi2, scores.obs_exp_sum)
    header = ["term", "freq", "docfreq", "tfidf", "chi2", "obs_exp_sum"]
    export.write_table_csv(out / "terms.csv", header, [scores.terms[k] for k in order],
                           [column[order] for column in columns])


_SELECTION = ("criterion", "top", "min_score")


def _select(view: SimpleNamespace, products: dict) -> None:
    """Cut the matrix to the selected terms, once: the first stage that reads it."""
    if "selected" not in products:
        products["selected"] = termstats.select_terms(
            products["scores"], view.criterion, top_n=view.top, threshold=view.min_score
        )
        products["selected_matrix"] = products["matrix"].select_terms(
            products["selected"]
        )


def _write_cooc(view: SimpleNamespace, products: dict, out: Path) -> None:
    cooc = vectorspace.cooccurrence(products["selected_matrix"], mode="words")
    export.write_pajek_matrix(cooc, out / "coocc.dat")


def _compute_factors(view: SimpleNamespace, products: dict) -> None:
    _select(view, products)
    selected = products["selected_matrix"]
    # tf-idf cells feed the cosine map only; factors then correlate counts.
    cells = _cells_matrix(selected, "counts" if view.cells == "tfidf" else view.cells)
    labels = selected.terms
    if view.mode == "Q":
        cells, labels = cells.T, selected.doc_ids
    solution = factors_mod.factor_analyze(cells, labels, k=view.factors)
    if view.rotate and solution.n_factors >= 2:
        solution = factors_mod.varimax(solution, kaiser_normalize=view.kaiser_normalize)
    products["solution"] = solution
    products["assignment"] = factors_mod.assign_factors(solution, view.suppression)


def _write_factors(view: SimpleNamespace, products: dict, out: Path) -> None:
    solution = products["solution"]
    header = [f"factor_{f + 1}" for f in range(solution.n_factors)] + ["communality"]
    table = np.column_stack([solution.loadings, solution.communalities()])
    export.write_csv(table, out / "loadings.csv", solution.variable_labels, header,
                     corner="variable")
    # No coordinates: factors.net is the bipartite structure itself, and a
    # network program can lay it out; this also keeps the factors stage
    # independent of the layout seed.
    graph = factors_mod.factor_graph(solution, view.suppression)
    export.write_pajek_net(graph, None, out / "factors.net")


def _compute_map(view: SimpleNamespace, products: dict) -> None:
    _select(view, products)
    selected = products["selected_matrix"]
    if view.map == "cosine":  # no name holds the n×n matrix through the layout
        graph = vectorspace.threshold_graph(vectorspace.cosine_matrix(
            _cells_matrix(selected, view.cells), labels=selected.terms), view.cos_threshold, "geq")
    else:
        graph = vectorspace.threshold_graph(
            vectorspace.cooccurrence(selected, mode="words"), view.cooc_threshold, "gt")
    # By label: the cosine map drops all-zero terms.
    freq = dict(zip(selected.terms, selected.col_margins.tolist()))
    graph = dataclasses.replace(graph, sizes=[freq[label] for label in graph.nodes])
    products["map_graph"] = graph
    products["map_coords"] = layout_mod.split_and_pack(
        graph, _layout_fn(view), seed=view.seed
    )


def _write_map(view: SimpleNamespace, products: dict, out: Path) -> None:
    export.write_pajek_net(products["map_graph"], products["map_coords"], out / "map.net")


def _write_render(view: SimpleNamespace, products: dict, out: Path) -> None:
    # Q-mode assigns documents, not the mapped terms, so maps stay uncolored.
    assignment = products["assignment"] if view.mode == "R" else None
    export.render_svg_map(
        products["map_graph"], products["map_coords"], assignment, out / "map.svg"
    )


def _no_products(view: SimpleNamespace, products: dict) -> None:
    pass


# name, after, reads, artifacts, compute, write; upstream rows come first.
STAGES = (
    Stage(
        "ingest", (),
        ("input", "input_format", "lowercase", "token_pattern", "min_token_length",
         "stopword_file", "synonym_file", "binary"),
        ("matrix.csv", "expected.csv"), _compute_ingest, _write_ingest,
    ),
    Stage("terms", ("ingest",), ("criterion", "yates"), ("terms.csv",),
          _compute_terms, _write_terms),
    Stage("cooc", ("terms",), _SELECTION, ("coocc.dat",),
          _select, _write_cooc),
    Stage(
        "factors", ("terms",),
        _SELECTION + ("cells", "mode", "factors", "rotate", "kaiser_normalize",
                      "suppression"),
        ("loadings.csv", "factors.net"), _compute_factors, _write_factors,
    ),
    Stage(
        "map", ("terms",),
        _SELECTION + ("cells", "map", "cos_threshold", "cooc_threshold", "layout",
                      "seed", "fr_iterations", "kk_tol", "kk_max_iter"),
        ("map.net",), _compute_map, _write_map,
    ),
    Stage("render", ("factors", "map"), ("mode",), ("map.svg",),
          _no_products, _write_render),
)

STAGE_ORDER = tuple(stage.name for stage in STAGES)

ARTIFACTS = tuple(name for stage in STAGES for name in stage.artifacts) + ("report.json",)


# ---------------------------------------------------------------------------
# execution


def _prefix(subcommand: str) -> tuple[Stage, ...]:
    """The stages ``subcommand`` runs: its stage and everything upstream."""
    check_choice("subcommand", subcommand, ("run",) + STAGE_ORDER)
    needed = set(STAGE_ORDER) if subcommand == "run" else {subcommand}
    for stage in reversed(STAGES):
        if stage.name in needed:
            needed.update(stage.after)
    return tuple(stage for stage in STAGES if stage.name in needed)


def _recorded_stages(out: Path) -> dict:
    """The manifest's stage entries, or ``{}`` when it is missing or malformed."""
    try:
        stages = json.loads((out / _MANIFEST).read_text(encoding="utf-8"))["stages"]
    except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
        return {}
    ok = isinstance(stages, dict) and all(isinstance(e, dict) for e in stages.values())
    return stages if ok else {}


def _artifact_hashes(out: Path, stage: Stage) -> dict[str, str | None]:
    return {
        name: _file_digest(out / name) if (out / name).is_file() else None
        for name in stage.artifacts
    }


def _publish(staged: Path, names: tuple) -> dict[str, str]:
    """Move the files ``names`` out of ``staged``; return their sha256s.

    ``staged`` is a temporary directory inside the output directory, filled
    by a write step that has returned; each file replaces its namesake there.
    """
    hashes = {name: _file_digest(staged / name) for name in names}
    for name in names:
        os.replace(staged / name, staged.parent / name)
    return hashes


def run_stage(config: PipelineConfig, subcommand: str) -> RunResult:
    """Execute the pipeline prefix ending at ``subcommand``.

    A stage's key hashes what its compute step returns, or its ``reads``
    values when that is None, with the program digest and upstream keys.
    It is a cache hit when its key matches the manifest and every artifact
    still has the sha256 recorded when it was written; a hit skips the
    stage's writes. Every stage still computes its in-memory products from
    the inputs, so cached and fresh runs produce identical bytes whatever
    ran in the output directory before.

    Writes are atomic: each write step writes into one temporary directory
    inside the output directory, and its artifacts replace the old ones
    (``os.replace``) only after the step returns; the manifest and
    report.json are replaced the same way. The first write creates the
    output directory and the temporary one, so a run that fails before it
    leaves no directory; a failed run leaves every file either as it was or
    complete, and no temporary file behind.
    """
    stages = _prefix(subcommand)
    out = Path(config.out)
    recorded = _recorded_stages(out)
    keys: dict[str, str] = {}
    sources = sorted(Path(__file__).parent.glob("*.py"))  # a changed program misses the cache
    program = _digest([(path.name, _file_digest(path)) for path in sources])
    products: dict = {}
    statuses: dict[str, str] = {}

    with contextlib.ExitStack() as cleanup, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        @functools.cache
        def staged() -> Path:
            out.mkdir(parents=True, exist_ok=True)
            tmp = tempfile.TemporaryDirectory(prefix=".coword-tmp-", dir=out)
            return Path(cleanup.enter_context(tmp))

        for stage in stages:
            started = time.perf_counter()
            view = SimpleNamespace(**{key: getattr(config, key) for key in stage.reads})
            value = stage.compute(view, products)
            key = keys[stage.name] = _digest([
                stage.name, program, vars(view) if value is None else value,
                [keys[upstream] for upstream in stage.after],
            ])
            entry = recorded.get(stage.name, {})
            cached = (
                entry.get("key") == key
                and entry.get("artifacts") == _artifact_hashes(out, stage)
            )
            if not cached:
                stage.write(view, products, staged())
                entry = {"key": key, "artifacts": _publish(staged(), stage.artifacts)}
            recorded[stage.name] = entry
            statuses[stage.name] = "cached" if cached else "computed"
            logger.info("stage %s: %s (%.3fs)", stage.name, statuses[stage.name],
                        time.perf_counter() - started)

        names = sorted(name for stage in stages for name in stage.artifacts)
        report = _build_report(config, products, names, [str(w.message) for w in caught])
        for name, data in ((_MANIFEST, {"stages": recorded}), ("report.json", report)):
            text = json.dumps(data, indent=2, sort_keys=True) + "\n"
            (staged() / name).write_text(text, encoding="utf-8")
        _publish(staged(), (_MANIFEST, "report.json"))
    artifacts = {name: out / name for name in ["report.json", *names]}
    return RunResult(out_dir=out, artifacts=artifacts, stages=statuses, report=report)


def run(config: PipelineConfig) -> RunResult:
    """Run every stage and produce the full artifact set."""
    return run_stage(config, "run")


def _build_report(config: PipelineConfig, products: dict, artifacts: list[str],
                  warning_messages: list[str]) -> dict:
    report: dict = {
        "config": dataclasses.asdict(config),
        "artifacts": artifacts + ["report.json"],
        "warnings": warning_messages,
    }
    if "matrix" in products:
        matrix = products["matrix"]
        report["corpus"] = {
            "documents": matrix.n_docs + len(matrix.pruned_docs),
            "documents_after_pruning": matrix.n_docs,
            "pruned_documents": list(matrix.pruned_docs),
            "vocabulary": matrix.n_terms,
            "tokens": matrix.total,
        }
    if "selected" in products:
        report["selection"] = {
            "criterion": config.criterion,
            "selected": len(products["selected"]),
            "terms": products["selected"],
        }
    if "solution" in products:
        solution = products["solution"]
        report["factors"] = {
            "retained": solution.n_factors,
            "rotated": solution.rotated,
            "rotation_sweeps": solution.rotation_sweeps,
            "rotation_converged": solution.rotation_converged,
        }
    if "map_graph" in products:
        report["map"] = {
            "kind": config.map,
            "nodes": len(products["map_graph"].nodes),
            "edges": len(products["map_graph"].edges),
        }
    return report
