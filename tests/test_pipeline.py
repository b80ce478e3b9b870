"""Configuration handling, staged runs, caching, CLI exit codes."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace
from xml.etree import ElementTree

import pytest

from conftest import make_matrix, write_bytes_name
from cowordmap import corpus, export, factors, layout, termstats, vectorspace
from cowordmap.cli import build_parser, main
from cowordmap.data import micro_corpus_dir
from cowordmap.errors import ConfigError, CowordMapWarning, DataError
from cowordmap.factors import factor_analyze
from cowordmap.pipeline import (
    _CHOICES, _TYPES, ARTIFACTS, STAGES, PipelineConfig, _parse_value, run, run_stage,
)


def micro_config(micro_dir, out, **extra) -> PipelineConfig:
    values = {
        "input": str(micro_dir),
        "out": str(out),
        "top": 20,
        "factors": 5,
    }
    values.update(extra)
    return PipelineConfig.build(values)


def artifact_bytes(out):
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


def _check_parses_back(out, doc_ids):
    """Every artifact of a run in ``out`` parses with a reader that is not the
    writer's, and the labels in them are the corpus's ``doc_ids`` and terms."""
    tables = {}
    for name in ("matrix.csv", "expected.csv", "terms.csv", "loadings.csv"):
        with open(out / name, encoding="utf-8", newline="") as fh:
            tables[name] = rows = list(csv.reader(fh))
        assert {len(row) for row in rows} == {len(rows[0])}, name
    matrix = tables["matrix.csv"]
    assert [row[0] for row in tables["expected.csv"]] == [row[0] for row in matrix]
    assert tables["expected.csv"][0] == matrix[0]
    docs, terms = [row[0] for row in matrix[1:]], matrix[0][1:]
    assert set(docs) <= set(doc_ids)
    assert {row[0] for row in tables["terms.csv"][1:]} == set(terms)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(docs) == report["corpus"]["documents_after_pruning"]
    selected = report["selection"]["terms"]
    assert set(selected) <= set(terms)
    assert export.read_pajek_matrix(out / "coocc.dat").labels == selected
    variables = [row[0] for row in tables["loadings.csv"][1:]]
    assert set(variables) <= set(selected) | set(docs)
    factor_graph, _ = export.read_pajek_net(out / "factors.net")
    assert set(variables) <= set(factor_graph.nodes)
    map_graph, coords = export.read_pajek_net(out / "map.net")
    assert set(map_graph.nodes) <= set(selected)
    assert ((coords >= 0) & (coords <= 1)).all()
    svg = ElementTree.parse(out / "map.svg").iter("{http://www.w3.org/2000/svg}text")
    assert [element.text for element in svg] == map_graph.nodes


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig.build({"input": "x"})
        assert config.criterion == "obsexp"
        assert config.cos_threshold == 0.1
        assert config.cooc_threshold == 1.0
        assert config.suppression == 0.1
        assert config.top == 30
        assert config.factors == "kaiser"
        assert config.layout == "fr"
        assert config.seed == 42

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            PipelineConfig.build({"input": "x", "colour": "red"})

    def test_file_parsing_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\ninput = corpus/  # trailing comment\ntop = 10\n"
            "rotate = false\nfactors = kaiser\n",
            encoding="utf-8",
        )
        config = PipelineConfig.from_file(path)
        assert config.input == "corpus/"
        assert config.top == 10
        assert config.rotate is False

    def test_hash_inside_a_value_is_not_a_comment(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("input = a#b\ntoken_pattern = [\\w#]+\n", encoding="utf-8")
        config = PipelineConfig.from_file(path)
        assert (config.input, config.token_pattern) == ("a#b", r"[\w#]+")

    @pytest.mark.parametrize("key, value", [("rotate", "false"), ("top", "5")])
    def test_value_of_the_wrong_type_is_a_config_error(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be"):
            PipelineConfig.build({"input": "x", key: value})

    def test_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\ufeffinput = corpus/\ntop = 10\n", encoding="utf-8")
        config = PipelineConfig.from_file(path)
        assert (config.input, config.top) == ("corpus/", 10)

    def test_file_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1"):
            PipelineConfig.from_file(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("input = a\nseed = 1\n", encoding="utf-8")
        config = PipelineConfig.from_file(path, {"seed": 99})
        assert config.seed == 99

    def test_min_score_replaces_top(self):
        config = PipelineConfig.build({"input": "x", "min_score": 2.0})
        assert config.top is None
        assert config.min_score == 2.0

    def test_top_and_min_score_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            PipelineConfig.build({"input": "x", "top": 5, "min_score": 2.0})

    def test_defaults_parse_back_to_themselves(self):
        for field in dataclasses.fields(PipelineConfig):
            if field.default is None:
                continue
            text = str(field.default)
            if isinstance(field.default, bool):
                text = text.lower()
            parsed = _parse_value(field.name, text, "default")
            assert parsed == field.default and type(parsed) is type(field.default)

    def test_flags_are_fields_offering_the_declared_choices(self):
        flags = [a for a in build_parser()._actions if a.dest not in ("help", "command")]
        assert len(flags) == 15
        for action in flags:
            assert action.dest == "config" or action.dest in _TYPES
            assert action.choices is None  # PipelineConfig.validate checks every value
            if action.dest in _CHOICES:
                assert action.metavar == "{" + ",".join(_CHOICES[action.dest]) + "}"

    def test_a_bad_choice_gets_one_message_from_a_flag_or_a_config_file(
        self, tmp_path, capsys
    ):
        keys = [a.dest for a in build_parser()._actions if a.dest in _CHOICES]
        assert keys
        config = tmp_path / "run.cfg"
        for key in keys:
            config.write_text(f"input = x\n{key} = foo\n", encoding="utf-8")
            assert main(["run", "--config", str(config)]) == 1
            from_file = capsys.readouterr().err
            assert main(["run", "--input", "x", "--" + key.replace("_", "-"), "foo"]) == 1
            assert capsys.readouterr().err == from_file
            assert f"unknown {key} 'foo'; valid values: " in from_file

    def test_readme_flag_block_lists_the_parser_flags(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.partition("Flags (each sets the config-file key")[2]
        block = block.partition("```\n")[2].partition("```")[0]
        options = {s for a in build_parser()._actions for s in a.option_strings}
        assert set(re.findall(r"--[a-z][a-z-]*", block)) == options - {"-h", "--help"}

    def test_factors_text_stays_text_unless_it_is_a_decimal_integer(self):
        parsed = [_parse_value("factors", v, "--factors") for v in ("7", "007", "kaiser",
                                                                      "1.5", "many")]
        assert parsed == [7, 7, "kaiser", "1.5", "many"]

    def test_invalid_choice_lists_valid_values(self):
        with pytest.raises(ConfigError, match="freq, tfidf, chi2, obsexp"):
            PipelineConfig.build({"input": "x", "criterion": "idf"})

    def test_missing_input(self):
        with pytest.raises(ConfigError, match="input"):
            PipelineConfig.build({})

    def test_bad_boolean_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("input = x\nrotate = perhaps\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="boolean"):
            PipelineConfig.from_file(path)


@pytest.mark.parametrize("call, value, choices", [
    (lambda: corpus.load_corpus(".", format="records"), "records", ("files", "lines")),
    (lambda: termstats.term_scores(make_matrix([[1, 2], [3, 1]])).by_criterion("idf"),
     "idf", ("freq", "tfidf", "chi2", "obsexp")),
    (lambda: termstats.chi_square(make_matrix([[1, 2], [3, 1]]), yates="sometimes"),
     "sometimes", ("off", "observed_lt_5")),
    (lambda: vectorspace.cooccurrence(make_matrix([[1]]), mode="phrases"),
     "phrases", ("words", "documents")),
    (lambda: vectorspace.threshold_graph(vectorspace.cooccurrence(make_matrix([[1]])), 1.0,
                                         rule="lt"), "lt", ("geq", "gt")),
    (lambda: PipelineConfig.build({"input": "x", "layout": "zz"}), "zz", ("fr", "kk")),
    (lambda: run_stage(PipelineConfig.build({"input": "x"}), "animate"), "animate",
     ("run", "ingest", "terms", "cooc", "factors", "map", "render")),
], ids=["corpus_format", "criterion", "yates", "cooc_mode", "threshold_rule", "config",
        "subcommand"])
def test_every_choice_check_names_the_value_and_every_valid_one(call, value, choices):
    with pytest.raises(ConfigError) as excinfo:
        call()
    assert str(excinfo.value).endswith(f"{value!r}; valid values: {', '.join(choices)}")


@pytest.mark.parametrize("key, value, library", [
    ("yates", "sometimes",
     lambda v: termstats.term_scores(make_matrix([[1, 2], [3, 1]]), yates=v)),
    ("input_format", "records", lambda v: corpus.load_corpus(".", format=v)),
    ("factors", 0, lambda v: factor_analyze(make_matrix([[1, 2], [3, 1]]).counts, k=v)),
    ("factors", "many", lambda v: factor_analyze(make_matrix([[1, 2], [3, 1]]).counts, k=v)),
])
def test_a_bad_setting_gets_one_message_from_config_and_library(key, value, library):
    with pytest.raises(ConfigError) as from_config:
        PipelineConfig.build({"input": "x", key: value})
    with pytest.raises(ConfigError) as from_library:
        library(value)
    assert str(from_config.value) == str(from_library.value)


def _default(function, parameter):
    return inspect.signature(function).parameters[parameter].default


_TOKENIZER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(corpus.TokenizerConfig)}


@pytest.mark.parametrize("key, library_default", [
    ("lowercase", _TOKENIZER_DEFAULTS["lowercase"]),
    ("token_pattern", _TOKENIZER_DEFAULTS["token_pattern"]),
    ("min_token_length", _TOKENIZER_DEFAULTS["min_token_length"]),
    ("yates", _default(termstats.term_scores, "yates")),
    ("yates", _default(termstats.chi_square, "yates")),
    ("factors", _default(factors.factor_analyze, "k")),
    ("kaiser_normalize", _default(factors.varimax, "kaiser_normalize")),
    ("suppression", _default(factors.assign_factors, "suppression")),
    ("suppression", _default(factors.factor_graph, "suppression")),
    ("fr_iterations", _default(layout.fruchterman_reingold, "iterations")),
    ("kk_tol", _default(layout.kamada_kawai, "tol")),
    ("kk_max_iter", _default(layout.kamada_kawai, "max_iter")),
    ("seed", _default(layout.fruchterman_reingold, "seed")),
    ("seed", _default(layout.kamada_kawai, "seed")),
    ("seed", _default(layout.split_and_pack, "seed")),
])
def test_config_default_equals_the_library_default_it_feeds(key, library_default):
    assert getattr(PipelineConfig(), key) == library_default


class TestRun:
    def test_produces_all_artifacts(self, micro_dir, tmp_path):
        result = run(micro_config(micro_dir, tmp_path / "out"))
        for name in ARTIFACTS:
            assert (tmp_path / "out" / name).exists(), name
        assert set(result.stages.values()) == {"computed"}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["corpus"]["documents"] == 8
        assert report["selection"]["selected"] == 20
        assert report["factors"]["retained"] == 5

    def test_byte_identical_across_fresh_runs(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        first = artifact_bytes(out)
        shutil.rmtree(out)
        run(micro_config(micro_dir, out))
        assert artifact_bytes(out) == first

    def test_cached_rerun_identical_and_reported(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        first = artifact_bytes(out)
        result = run(micro_config(micro_dir, out))
        assert set(result.stages.values()) == {"cached"}
        assert artifact_bytes(out) == first

    def test_seed_change_recomputes_only_map_and_render(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        before = artifact_bytes(out)
        result = run(micro_config(micro_dir, out, seed=7))
        assert result.stages == {
            "ingest": "cached", "terms": "cached", "cooc": "cached",
            "factors": "cached", "map": "computed", "render": "computed",
        }
        after = artifact_bytes(out)
        unchanged = [
            "matrix.csv", "terms.csv", "expected.csv", "loadings.csv",
            "coocc.dat", "factors.net",
        ]
        for name in unchanged:
            assert after[name] == before[name], name
        assert after["map.net"] != before["map.net"]

    def test_input_change_invalidates_ingest(self, micro_dir, tmp_path):
        corpus = tmp_path / "corpus"
        shutil.copytree(micro_dir, corpus)
        out = tmp_path / "out"
        run(micro_config(corpus, out))
        (corpus / "d1.txt").write_text("impact factor impact factor", encoding="utf-8")
        result = run(micro_config(corpus, out))
        assert result.stages["ingest"] == "computed"

    def test_ratio_cells_configuration(self, micro_dir, tmp_path):
        config = micro_config(
            micro_dir, tmp_path / "out",
            criterion="obsexp", cells="obsexp", factors=5,
        )
        result = run(config)
        assert result.report["factors"]["retained"] == 5

    def test_q_mode(self, micro_dir, tmp_path):
        config = micro_config(micro_dir, tmp_path / "out", mode="Q", factors=3)
        run(config)
        loadings = (tmp_path / "out" / "loadings.csv").read_text().splitlines()
        assert loadings[0] == "variable,factor_1,factor_2,factor_3,communality"
        # variables are documents (those still covered by the selected terms)
        assert 3 <= len(loadings) - 1 <= 8
        assert all(line.split(",")[0].endswith(".txt") for line in loadings[1:])

    def test_q_mode_loadings_are_factors_of_the_transposed_counts(
        self, micro_dir, tmp_path
    ):
        out = tmp_path / "out"
        result = run(micro_config(micro_dir, out, mode="Q", factors=3, rotate=False))
        matrix = corpus.build_word_doc_matrix(
            corpus.load_corpus(str(micro_dir)), corpus.TokenizerConfig()
        )
        with pytest.warns(CowordMapWarning, match="pruned documents"):
            selected = matrix.select_terms(result.report["selection"]["terms"])
        sol = factor_analyze(selected.counts.T, selected.doc_ids, k=3)
        rows = [
            (label, *sol.loadings[j], communality)
            for j, (label, communality) in enumerate(
                zip(sol.variable_labels, sol.communalities())
            )
        ]
        header = ["variable", "factor_1", "factor_2", "factor_3", "communality"]
        export.write_table_csv(tmp_path / "expected.csv", header, rows)
        assert (out / "loadings.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["R", "Q"])
    def test_factor_cells_are_counts_or_ratios(self, micro_dir, tmp_path, mode):
        def loadings(cells):
            run(micro_config(micro_dir, tmp_path / cells, cells=cells, mode=mode))
            return (tmp_path / cells / "loadings.csv").read_bytes()

        by_counts = loadings("counts")
        assert loadings("obsexp") != by_counts
        # tf-idf cells feed the cosine map only (in R mode idf's column
        # scaling would not change the correlations anyway; in Q mode it does)
        assert loadings("tfidf") == by_counts

    def test_cooc_map(self, micro_dir, tmp_path):
        config = micro_config(micro_dir, tmp_path / "out", map="cooc")
        result = run(config)
        assert result.report["map"]["kind"] == "cooc"

    def test_kk_layout(self, micro_dir, tmp_path):
        config = micro_config(micro_dir, tmp_path / "out", layout="kk", top=10)
        run(config)
        assert (tmp_path / "out" / "map.net").exists()

    def test_stopword_and_synonym_files(self, micro_dir, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nof\na\nimpact\n", encoding="utf-8")
        syn = tmp_path / "syn.txt"
        syn.write_text("journals\tjournal\n", encoding="utf-8")
        config = micro_config(
            micro_dir, tmp_path / "out",
            stopword_file=str(stop), synonym_file=str(syn),
            criterion="freq", top=10,
        )
        result = run_stage(config, "terms")
        terms = (tmp_path / "out" / "terms.csv").read_text()
        assert "impact" not in terms.splitlines()[1:][0:]  # stopworded away
        assert "\nimpact," not in terms
        assert "journals," not in terms  # merged into the canonical form
        assert result.stages["terms"] == "computed"

    def test_ingest_tokenizes_each_document_once(self, micro_dir, tmp_path, monkeypatch):
        calls = []
        tokenize = corpus.tokenize
        monkeypatch.setattr(
            corpus, "tokenize", lambda text, cfg: calls.append(text) or tokenize(text, cfg)
        )
        run_stage(micro_config(micro_dir, tmp_path / "out"), "ingest")
        assert len(calls) == 8
        assert sorted(calls) == sorted(
            path.read_text(encoding="utf-8-sig") for path in micro_dir.glob("*.txt")
        )


class TestSubcommands:
    def test_terms_prefix_only(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        result = run_stage(micro_config(micro_dir, out), "terms")
        assert (out / "terms.csv").exists()
        assert (out / "matrix.csv").exists()
        assert (out / "report.json").exists()
        assert not (out / "map.net").exists()
        assert set(result.stages) == {"ingest", "terms"}

    def test_terms_after_ingest_adds_terms_csv_only(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        run_stage(micro_config(micro_dir, out), "ingest")
        assert (out / "matrix.csv").exists() and (out / "expected.csv").exists()
        before = {p.name for p in out.iterdir()}
        result = run_stage(micro_config(micro_dir, out), "terms")
        assert result.stages["ingest"] == "cached"
        assert result.stages["terms"] == "computed"
        added = {p.name for p in out.iterdir()} - before
        assert added == {"terms.csv"}

    def test_render_prefix_includes_factors_and_map(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        result = run_stage(micro_config(micro_dir, out), "render")
        assert (out / "map.svg").exists()
        assert (out / "factors.net").exists()
        assert not (out / "coocc.dat").exists()
        assert set(result.stages) == {"ingest", "terms", "factors", "map", "render"}

    def test_unknown_subcommand(self, micro_dir, tmp_path):
        with pytest.raises(ConfigError, match="unknown subcommand"):
            run_stage(micro_config(micro_dir, tmp_path / "out"), "animate")

    def test_corrupted_cached_matrix_recomputes_ingest(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        run_stage(micro_config(micro_dir, out), "ingest")
        (out / "matrix.csv").write_text("oops", encoding="utf-8")
        result = run_stage(micro_config(micro_dir, out), "terms")
        assert result.stages == {"ingest": "computed", "terms": "computed"}
        fresh = tmp_path / "fresh"
        run_stage(micro_config(micro_dir, fresh), "terms")
        assert (out / "matrix.csv").read_bytes() == (fresh / "matrix.csv").read_bytes()


ALL_STAGES = ("ingest", "terms", "cooc", "factors", "map", "render")


def comparable(result):
    """The artifacts a run wrote, with report.json's echo of ``out`` dropped."""
    files = {name: path.read_bytes() for name, path in result.artifacts.items()}
    report = json.loads(files["report.json"])
    del report["config"]["out"]
    files["report.json"] = report
    return files


def fresh_run(config, out, subcommand="run"):
    """Run ``config`` into the new directory ``out``."""
    return run_stage(dataclasses.replace(config, out=str(out)), subcommand)


class TestCache:
    """A stage is a hit only when its key and its artifacts' hashes match."""

    def test_failed_run_leaves_no_false_hit(self, micro_dir, tmp_path):
        other = tmp_path / "other"
        other.mkdir()
        for name, text in [("a.txt", "impact factor"), ("b.txt", "journal impact")]:
            (other / name).write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        failing = PipelineConfig.build(
            {"input": str(other), "out": str(out), "min_score": 1e9}
        )
        with pytest.raises(DataError):
            run(failing)
        result = run(micro_config(micro_dir, out))
        assert comparable(result) == comparable(
            fresh_run(micro_config(micro_dir, out), tmp_path / "fresh")
        )

    def test_failed_write_keeps_old_artifacts_and_no_temp_files(
        self, micro_dir, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_write_csv = export.write_csv

        def failing_write_csv(values, path, *args, **kwargs):
            real_write_csv(values, path, *args, **kwargs)  # matrix.csv completes
            if Path(path).name == "expected.csv":
                Path(path).write_text("half a row,", encoding="utf-8")
                raise OSError("disk full")

        monkeypatch.setattr(export, "write_csv", failing_write_csv)
        with pytest.raises(OSError, match="disk full"):
            run(micro_config(micro_dir, out, binary=True))
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

        monkeypatch.setattr(export, "write_csv", real_write_csv)
        result = run(micro_config(micro_dir, out, binary=True))
        assert result.stages["ingest"] == "computed"
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        assert comparable(result) == comparable(
            fresh_run(micro_config(micro_dir, out, binary=True), tmp_path / "fresh")
        )

    def test_undecodable_manifest_counts_as_absent(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        golden = artifact_bytes(run(micro_config(micro_dir, out)).out_dir)
        (out / ".coword-cache.json").write_bytes(b"\xff\xfe{not json")
        result = run(micro_config(micro_dir, out))
        assert set(result.stages.values()) == {"computed"}
        assert artifact_bytes(out) == golden

    @pytest.mark.parametrize("manifest", [
        "[]", '{"stages": []}', '{"stages": {"ingest": "x"}}',
    ])
    def test_malformed_manifest_counts_as_absent(self, micro_dir, tmp_path, capsys, manifest):
        out = tmp_path / "out"
        argv = ["run", "--input", str(micro_dir), "--out", str(out), "--top", "20",
                "--factors", "5"]
        assert main(argv) == 0
        (out / ".coword-cache.json").write_text(manifest, encoding="utf-8")
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        golden = Path(__file__).parent / "golden" / "micro"
        for name in sorted(golden.iterdir()):
            assert (out / name.name).read_bytes() == name.read_bytes(), name.name

    @pytest.mark.parametrize("tampered, owners", [
        (("expected.csv",), {"ingest"}),
        (("loadings.csv",), {"factors"}),
        (("expected.csv", "loadings.csv"), {"ingest", "factors"}),
    ])
    def test_tampered_artifact_recomputes_owner(
        self, micro_dir, tmp_path, tampered, owners
    ):
        out = tmp_path / "out"
        run(micro_config(micro_dir, out))
        golden = artifact_bytes(out)
        for name in tampered:
            (out / name).write_text("broken\n", encoding="utf-8")
        result = run(micro_config(micro_dir, out))
        assert {s for s, status in result.stages.items() if status == "computed"} == owners
        assert artifact_bytes(out) == golden


    def test_a_changed_program_misses_the_cache_of_a_used_directory(self, micro_dir, tmp_path):
        """A copy of the package whose Pajek writer prints 5 decimals reruns
        into a directory the package filled: no stage is a hit, and every
        artifact gets the copy's fresh-run bytes."""
        package = Path(export.__file__).parent
        copy = tmp_path / "src" / "cowordmap"
        shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
        writer = copy / "export.py"
        source = writer.read_text(encoding="utf-8")
        assert source.count("weight:.4f}") == 1
        writer.write_text(source.replace("weight:.4f}", "weight:.5f}"), encoding="utf-8")

        def statuses(src, out):
            proc = subprocess.run(
                [sys.executable, "-m", "cowordmap", "run", "--input", str(micro_dir),
                 "--out", str(out), "--top", "20", "--factors", "5"],
                env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            return [line.split()[2] for line in proc.stderr.splitlines()
                    if line.startswith("stage ")]

        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert statuses(package.parent, out) == ["computed"] * len(STAGES)
        assert statuses(copy.parent, out) == ["computed"] * len(STAGES)
        assert statuses(copy.parent, fresh) == ["computed"] * len(STAGES)
        written = [name for name in ARTIFACTS if name != "report.json"]  # it echoes out
        assert {name: (out / name).read_bytes() for name in written} == {
            name: (fresh / name).read_bytes() for name in written}
        first_edge = (out / "map.net").read_text(encoding="utf-8").split("*Edges\n")[1]
        assert re.fullmatch(r"\d+ \d+ \d\.\d{5}", first_edge.splitlines()[0])


@pytest.fixture(scope="module")
def cache_workspace(tmp_path_factory):
    """Inputs for the invalidation table plus one finished base run."""
    root = tmp_path_factory.mktemp("invalidation")
    micro = Path(micro_corpus_dir())
    w = SimpleNamespace(
        corpus=root / "corpus", moved=root / "moved", edited=root / "edited",
        lines=root / "lines.txt", stop=root / "stop.txt", syn=root / "syn.txt",
        base=root / "base",
    )
    for target in (w.corpus, w.moved, w.edited):
        shutil.copytree(micro, target)
    (w.edited / "d1.txt").write_text("impact factor impact factor", encoding="utf-8")
    w.lines.write_text(
        "\n".join(p.read_text(encoding="utf-8").replace("\n", " ")
                  for p in sorted(micro.glob("*.txt"))) + "\n",
        encoding="utf-8",
    )
    w.stop.write_text("the\nof\na\nimpact\n", encoding="utf-8")
    w.syn.write_text("journals\tjournal\n", encoding="utf-8")
    run(micro_config(w.corpus, w.base, fr_iterations=50))
    return w


DOWNSTREAM = ("cooc", "factors", "map", "render")

INVALIDATION = [
    ("input content", lambda w: {"input": str(w.edited)}, ALL_STAGES),
    ("input_format", lambda w: {"input": str(w.lines), "input_format": "lines"},
     ALL_STAGES),
    ("lowercase", {"lowercase": False}, ALL_STAGES),
    ("token_pattern", {"token_pattern": r"[a-z]+"}, ALL_STAGES),
    ("min_token_length", {"min_token_length": 3}, ALL_STAGES),
    ("stopword_file", lambda w: {"stopword_file": str(w.stop)}, ALL_STAGES),
    ("synonym_file", lambda w: {"synonym_file": str(w.syn)}, ALL_STAGES),
    ("binary", {"binary": True}, ALL_STAGES),
    ("criterion", {"criterion": "chi2"}, ALL_STAGES[1:]),
    ("yates", {"yates": "off"}, ALL_STAGES[1:]),
    ("top", {"top": 15}, DOWNSTREAM),
    ("min_score", {"top": None, "min_score": 9.0}, DOWNSTREAM),
    ("cells", {"cells": "obsexp"}, ("factors", "map", "render")),
    ("mode", {"mode": "Q"}, ("factors", "render")),
    ("factors", {"factors": 4}, ("factors", "render")),
    ("rotate", {"rotate": False}, ("factors", "render")),
    ("kaiser_normalize", {"kaiser_normalize": False}, ("factors", "render")),
    ("suppression", {"suppression": 0.3}, ("factors", "render")),
    ("map", {"map": "cooc"}, ("map", "render")),
    ("cos_threshold", {"cos_threshold": 0.2}, ("map", "render")),
    ("cooc_threshold", {"cooc_threshold": 2.0}, ("map", "render")),
    ("layout", {"layout": "kk"}, ("map", "render")),
    ("seed", {"seed": 7}, ("map", "render")),
    ("fr_iterations", {"fr_iterations": 40}, ("map", "render")),
    ("kk_tol", {"kk_tol": 1e-6}, ("map", "render")),
    ("kk_max_iter", {"kk_max_iter": 50}, ("map", "render")),
    ("out", {}, ()),
    ("moved input", lambda w: {"input": str(w.moved)}, ()),
]


@pytest.mark.parametrize(
    "change, recomputed", [row[1:] for row in INVALIDATION],
    ids=[row[0] for row in INVALIDATION],
)
def test_invalidation_matrix(cache_workspace, tmp_path, change, recomputed):
    """Changing one key recomputes exactly the stages that read it, and their descendants."""
    w = cache_workspace
    out = tmp_path / "out"
    shutil.copytree(w.base, out)
    extra = change(w) if callable(change) else change
    result = run(micro_config(w.corpus, out, **{"fr_iterations": 50, **extra}))
    assert {s for s, status in result.stages.items() if status == "computed"} == set(
        recomputed
    )


def test_random_run_sequences_match_fresh_runs(micro_dir, tmp_path_factory):
    """Whatever ran in a directory before, a successful run writes fresh-run bytes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    other = tmp_path_factory.mktemp("other")
    for name, text in [("a.txt", "impact factor journal"), ("b.txt", "journal impact"),
                       ("c.txt", "citation impact factor")]:
        (other / name).write_text(text, encoding="utf-8")

    step = st.fixed_dictionaries({
        "subcommand": st.sampled_from(ALL_STAGES + ("run",)),
        "input": st.sampled_from([str(micro_dir), str(other)]),
        "cut": st.sampled_from([{"top": 20}, {"top": 5}, {"top": None, "min_score": 9.0},
                                {"top": None, "min_score": 1e9}]),
        "criterion": st.sampled_from(["obsexp", "chi2"]),
        "cells": st.sampled_from(["counts", "obsexp"]),
        "factors": st.sampled_from([2, "kaiser"]),
        "map": st.sampled_from(["cosine", "cooc"]),
        "seed": st.sampled_from([1, 2]),
        "binary": st.booleans(),
    })

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(step, min_size=2, max_size=4))
    def check(steps):
        root = tmp_path_factory.mktemp("sequence")
        out = root / "out"
        for i, values in enumerate(steps):
            values = dict(values)
            subcommand = values.pop("subcommand")
            config = PipelineConfig.build({
                **values.pop("cut"), **values, "out": str(out), "fr_iterations": 30,
            })
            try:
                result = run_stage(config, subcommand)
            except DataError:
                continue
            assert comparable(result) == comparable(
                fresh_run(config, root / f"fresh-{i}", subcommand)
            )

    check()


class TestCli:
    def test_run_exit_zero(self, micro_dir, micro_cfg, tmp_path, capsys):
        code = main([
            "run", "--config", str(micro_cfg), "--input", str(micro_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "map.svg").exists()

    def test_invalid_criterion_exits_one_and_lists_values(self, capsys):
        code = main(["run", "--input", "x", "--criterion", "idf"])
        assert code == 1
        err = capsys.readouterr().err
        assert "freq" in err and "obsexp" in err

    def test_missing_input_dir_exits_three(self, tmp_path, capsys):
        code = main([
            "run", "--input", str(tmp_path / "absent"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "absent" in capsys.readouterr().err

    def test_empty_corpus_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["run", "--input", str(empty), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "empty corpus" in capsys.readouterr().err

    def test_files_corpus_skips_a_directory_named_like_a_text_file(
        self, micro_dir, tmp_path, capsys
    ):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        shutil.copytree(micro_dir, corpus)
        assert main(["run", "--input", str(corpus), "--out", str(out)]) == 0
        plain = artifact_bytes(out)
        shutil.rmtree(out)
        (corpus / "sub.txt").mkdir()
        (corpus / "sub.txt" / "inner.txt").write_text("hidden words\n", encoding="utf-8")
        code = main(["run", "--input", str(corpus), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert artifact_bytes(out) == plain

    def test_term_with_a_line_break_exits_two_before_a_pajek_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in [("a.txt", "alpha beta\ngamma alpha\nbeta gamma\n"),
                           ("b.txt", "gamma\nalpha\nbeta delta\nalpha beta\n"),
                           ("c.txt", "beta gamma\nalpha delta\ngamma\n")]:
            (corpus / name).write_text(text, encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("token_pattern = [^ ]+\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--input", str(corpus),
                     "--out", str(tmp_path / "out"), "--top", "10", "--factors", "1"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "data error: Pajek labels must not contain line breaks: " in err
        assert "Traceback" not in err
        assert not list((tmp_path / "out").glob("*.net")) + list((tmp_path / "out").glob("*.dat"))

    def test_term_xml_cannot_hold_exits_two_before_the_svg(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, text in [("a.txt", "alpha\x0bbeta gamma\ngamma alpha\x0bbeta delta\n"),
                           ("b.txt", "gamma delta\nalpha\x0bbeta epsilon\ndelta\n"),
                           ("c.txt", "epsilon gamma\nalpha\x0bbeta delta\ngamma zeta\n"),
                           ("d.txt", "zeta epsilon\ndelta zeta gamma\n")]:
            (corpus / name).write_text(text, encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("token_pattern = [^ \\n]+\n", encoding="utf-8")
        code = main(["run", "--config", str(config), "--input", str(corpus),
                     "--out", str(tmp_path / "out"), "--top", "5", "--factors", "2"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert ("data error: SVG labels must not contain characters XML 1.0 forbids: "
                "'alpha\\x0bbeta'") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "map.svg").exists()

    @pytest.mark.parametrize("bad, code", [
        ("corpus_file", 2), ("lines_file", 2), ("stopword_file", 2),
        ("synonym_file", 2), ("config_file", 1),
    ])
    def test_undecodable_input_names_file_without_traceback(
        self, micro_dir, tmp_path, capsys, bad, code
    ):
        latin1 = "café crème\n".encode("latin-1")
        corpus = tmp_path / "corpus"
        shutil.copytree(micro_dir, corpus)
        lines = tmp_path / "docs.lines"
        lines.write_text("impact factor\njournal impact\n", encoding="utf-8")
        stopwords = tmp_path / "stop.txt"
        stopwords.write_text("the\n", encoding="utf-8")
        synonyms = tmp_path / "syn.txt"
        synonyms.write_text("journals\tjournal\n", encoding="utf-8")
        target = {
            "corpus_file": corpus / "d9.txt", "lines_file": lines,
            "stopword_file": stopwords, "synonym_file": synonyms,
            "config_file": tmp_path / "run.cfg",
        }[bad]
        config = tmp_path / "run.cfg"
        config.write_text(
            f"stopword_file = {stopwords}\nsynonym_file = {synonyms}\n"
            + ("input_format = lines\n" if bad == "lines_file" else ""),
            encoding="utf-8",
        )
        target.write_bytes(latin1)
        source = lines if bad == "lines_file" else corpus
        exit_code = main([
            "run", "--config", str(config), "--input", str(source),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert exit_code == code
        assert str(target) in err and "UTF-8" in err
        assert "Traceback" not in err

    def test_undecodable_lines_corpus_exits_two_in_a_process(self, tmp_path):
        lines = tmp_path / "docs.lines"
        lines.write_bytes("café crème\nthé noir\n".encode("latin-1"))
        config = tmp_path / "run.cfg"
        config.write_text(f"input = {lines}\ninput_format = lines\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "cowordmap", "run", "--config", str(config),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "data error" in proc.stderr and str(lines) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_negative_seed_exits_one_in_a_process(self, micro_dir, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "cowordmap", "run", "--input", str(micro_dir),
             "--out", str(out), "--seed", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert "configuration error" in proc.stderr and "seed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("line, key", [
        ("seed = -1", "seed"),
        ("fr_iterations = -1", "fr_iterations"),
        ("kk_max_iter = -5", "kk_max_iter"),
        ("kk_tol = -1e-6", "kk_tol"),
        ("kk_tol = nan", "kk_tol"),
        ("kk_tol = inf", "kk_tol"),
        ("min_score = nan", "min_score"),
        ("cos_threshold = nan", "cos_threshold"),
        ("suppression = nan", "suppression"),
        ("suppression = -0.5", "suppression"),
        ("cooc_threshold = -inf", "cooc_threshold"),
        ("token_pattern = (", "token_pattern"),
        (r"token_pattern = (\w)(\w+)", "token_pattern"),
        ("top = 5\x0cseed = 3", "run.cfg:2"),  # only \n, \r\n and \r end a line
        ("seed = 3\u2028top = 5", "run.cfg:2"),
        ("top = abc", "run.cfg:2: top"),  # a type error names its key
        ("seed = 1.5", "run.cfg:2: seed"),
    ])
    def test_negative_or_non_finite_setting_exits_one_before_writing(
        self, micro_dir, tmp_path, capsys, line, key
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"layout = kk\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--input", str(micro_dir), "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "configuration error" in err and key in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line, flags, value", [
        ("factors = many", [], "many"),
        ("", ["--factors", "many"], "many"),
        ("", ["--factors", "1.5"], "1.5"),
    ], ids=["file-word", "flag-word", "flag-fraction"])
    def test_a_bad_factor_count_gets_the_factor_count_rule_message(
        self, micro_dir, tmp_path, capsys, line, flags, value
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(config), "--input", str(micro_dir), "--out", str(out),
            *flags,
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "coword-map: configuration error: factors must be a positive integer or "
            f"'kaiser', got {value!r}\n"
        )
        assert not out.exists()

    def test_no_input_exits_one(self, capsys):
        assert main(["run"]) == 1

    def test_subcommand_required(self, capsys):
        assert main([]) == 1

    def test_unknown_command_exits_one_listing_the_commands(self, capsys):
        assert main(["bogus"]) == 1
        err = capsys.readouterr().err.partition("choose from")[2]
        assert all(name in err for name in
                   ("run", "ingest", "terms", "cooc", "factors", "map", "render"))

    def test_flags_may_come_before_the_command(self, micro_dir, tmp_path, capsys):
        flags = ["--input", str(micro_dir), "--top", "15", "--factors", "4"]
        assert main([*flags, "--out", str(tmp_path / "before"), "run"]) == 0
        assert main(["run", *flags, "--out", str(tmp_path / "after")]) == 0
        before, after = artifact_bytes(tmp_path / "before"), artifact_bytes(tmp_path / "after")
        before.pop("report.json"), after.pop("report.json")  # it echoes --out
        assert before == after

    def test_factors_flag_accepts_kaiser_and_int(self, micro_dir, tmp_path):
        code = main([
            "terms", "--input", str(micro_dir), "--out", str(tmp_path / "a"),
            "--factors", "kaiser",
        ])
        assert code == 0
        code = main([
            "terms", "--input", str(micro_dir), "--out", str(tmp_path / "b"),
            "--factors", "nope",
        ])
        assert code == 1

    def test_top_and_min_score_mutually_exclusive(self, capsys):
        code = main(["run", "--input", "x", "--top", "5", "--min-score", "1.0"])
        assert code == 1
        assert "give either top or min_score, not both" in capsys.readouterr().err

    @pytest.mark.parametrize("file_line, flag, selection", [
        ("top = 20", ["--min-score", "2"], (None, 2.0)),
        ("min_score = 2", ["--top", "5"], (5, None)),
    ])
    def test_flag_cut_wins_over_config_file_cut(
        self, micro_dir, tmp_path, capsys, file_line, flag, selection
    ):
        config = tmp_path / "run.cfg"
        config.write_text(f"{file_line}\nfactors = 5\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--input", str(micro_dir),
                     "--out", str(out), *flag])
        assert code == 0, capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert (report["config"]["top"], report["config"]["min_score"]) == selection

    def test_ratio_cells_flag_combination(self, micro_dir, tmp_path):
        code = main([
            "run", "--input", str(micro_dir), "--out", str(tmp_path / "out"),
            "--criterion", "obsexp", "--top", "75", "--cells", "obsexp",
            "--factors", "5",
        ])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["cells"] == "obsexp"
        assert report["factors"]["retained"] == 5

    def test_tfidf_cells_drop_term_in_every_document(self, tmp_path, capsys):
        lines = tmp_path / "docs.lines"
        lines.write_text(
            "common alpha beta\ncommon beta gamma\ncommon gamma delta\ncommon alpha delta\n",
            encoding="utf-8",
        )
        config = tmp_path / "run.cfg"
        config.write_text("input_format = lines\n", encoding="utf-8")
        code = main([
            "run", "--config", str(config), "--input", str(lines),
            "--out", str(tmp_path / "out"), "--cells", "tfidf", "--top", "5", "--factors", "1",
        ])
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "dropped all-zero vectors before cosine: common" in report["warnings"]
        assert report["map"]["nodes"] == 4

    def test_pruned_document_warning_is_capped_but_report_lists_all(self, tmp_path, capsys):
        lines = tmp_path / "docs.lines"
        lines.write_text(
            "the of and\n" * 25 + "alpha beta\nbeta gamma\ngamma alpha\n", encoding="utf-8"
        )
        config = tmp_path / "run.cfg"
        config.write_text("input_format = lines\n", encoding="utf-8")
        code = main([
            "run", "--config", str(config), "--input", str(lines),
            "--out", str(tmp_path / "out"), "--top", "3", "--factors", "1",
        ])
        assert code == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        ids = [str(i) for i in range(1, 26)]
        assert report["corpus"]["pruned_documents"] == ids
        assert report["warnings"][0] == (
            "pruned documents with all-zero counts: " + ", ".join(ids[:10]) + ", ... (25 in all)"
        )

    def test_fuzzed_configs_and_inputs_exit_with_a_documented_code(self, micro_dir):
        """Bad values, unknown keys, empty lines, a BOM, odd inputs and outputs.

        Every case exits 0-3 without a traceback; a success reruns to the same bytes.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        good = st.sampled_from([
            "", "   ", "# comment", "top = 5", "factors = 2", "criterion = chi2",
            "cells = tfidf", "cells = obsexp", "map = cooc", "layout = kk",
            "binary = true", "fr_iterations = 20", "min_score = 1e9", "min_score = 2",
            "input_format = lines", "mode = Q", "yates = off", "suppression = 2",
        ])
        bad = st.sampled_from([
            "top = abc", "top = -3", "top = 0", "factors = 0", "factors = many",
            "criterion = idf", "map = x", "layout = zz", "binary = maybe",
            "fr_iterations = -1", "kk_tol = nan", "seed = 1.5", "cos_threshold = x",
            "colour = red", "no equals sign", "= 3", "threads = 0",
            "min_token_length = 0", "top = 5 = 6",
        ])
        config_text = st.builds(
            lambda bom, lines: ("\ufeff" if bom else "") + "\n".join(lines) + "\n",
            st.booleans(), st.lists(st.one_of(good, good, bad), max_size=5),
        )
        source = st.sampled_from(["micro", "missing", "empty_file", "empty_dir", "file"])

        @hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
        @hypothesis.given(config_text, source, st.booleans())
        def check(text, source, out_is_file):
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                inputs = {
                    "micro": micro_dir, "missing": tmp / "absent",
                    "empty_file": tmp / "empty.txt", "empty_dir": tmp / "none",
                    "file": micro_dir / "d1.txt",
                }
                inputs["empty_file"].write_text("", encoding="utf-8")
                inputs["empty_dir"].mkdir()
                config = tmp / "run.cfg"
                config.write_text(text, encoding="utf-8")
                out = tmp / "out"
                if out_is_file:  # an --out that cannot be a directory
                    out.write_text("", encoding="utf-8")
                argv = ["run", "--config", str(config), "--input", str(inputs[source]),
                        "--out", str(out)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1, 2, 3), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if code == 0:  # a cached rerun gives the same bytes
                    first = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
                    with contextlib.redirect_stderr(io.StringIO()):
                        assert main(argv) == 0
                    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == first

        check()

    def test_a_file_name_that_is_not_utf8_exits_two_before_any_artifact(
        self, micro_dir, tmp_path, capsys
    ):
        corpus, out = tmp_path / "corpus", tmp_path / "out"
        shutil.copytree(micro_dir, corpus)
        if not write_bytes_name(corpus, b"caf\xe9.txt", "coffee words\n"):
            pytest.skip("the file system refuses file names that are not UTF-8")
        assert main(["run", "--input", str(corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "coword-map: data error: document ids must be valid UTF-8: 'caf\\udce9.txt'\n"
        assert not out.exists() or not any(out.iterdir())

    def test_fuzzed_corpus_content_exits_with_a_documented_code(self):
        """File names and texts with every kind of line break, quotes, commas,
        a BOM, NUL and an undecodable name byte; token patterns that keep them.

        Every case exits 0-3 without a traceback; on success every artifact
        parses back and holds the corpus's labels.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        awkward = ["\r", "\n", "\r\n", "\x0b", "\x85", "\u2028", '"', ",", "\ufeff"]
        words = ["map", "word", "term", " ", " "] * 3  # three in five pieces are plain
        text = st.lists(st.sampled_from(words + awkward + ["\x00"]), max_size=12).map("".join)
        name_bytes = [piece.encode("utf-8") for piece in ["map", "word"] * 3 + awkward]
        with tempfile.TemporaryDirectory() as tmp:
            if write_bytes_name(tmp, b"\xe9.txt", ""):
                name_bytes.append(b"\xe9")
        name = st.lists(st.sampled_from(name_bytes), max_size=3).map(b"".join)

        @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
        @hypothesis.given(
            st.lists(st.tuples(name, text), min_size=1, max_size=5),
            st.sampled_from(["files", "lines"]), st.sampled_from(["\n", "\r\n", "\r"]),
            st.sampled_from([r"\S+", r"[^ \n]+"]), st.sampled_from(["R", "Q"]),
        )
        def check(docs, input_format, ending, pattern, mode):
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                corpus = tmp / "corpus"
                if input_format == "lines":
                    corpus.write_bytes(ending.join(t for _, t in docs).encode("utf-8"))
                    ids = [str(i) for i in range(1, len(corpus.read_bytes()) + 2)]  # any line number
                else:
                    corpus.mkdir()
                    names = [b"%d" % i + n + b".txt" for i, (n, _) in enumerate(docs)]
                    hypothesis.assume(all(write_bytes_name(corpus, n, t)
                                          for n, (_, t) in zip(names, docs)))
                    ids = [os.fsdecode(n) for n in names]
                config = tmp / "run.cfg"
                config.write_text(f"input = {corpus}\ninput_format = {input_format}\n"
                                  f"token_pattern = {pattern}\nfr_iterations = 50\n",
                                  encoding="utf-8")
                out = tmp / "out"
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(["run", "--config", str(config), "--mode", mode,
                                 "--out", str(out)])
                assert code in (0, 1, 2, 3), err.getvalue()
                assert "Traceback" not in err.getvalue()
                if code == 0:
                    _check_parses_back(out, ids)
                codes.append(code)

        codes = []
        check()
        assert {0, 2} <= set(codes)  # both successes and label errors were exercised

    def test_module_entry_point(self, micro_dir, tmp_path):
        proc = subprocess.run(
            [
                sys.executable, "-m", "cowordmap", "run",
                "--input", str(micro_dir), "--out", str(tmp_path / "out"),
                "--top", "15", "--factors", "4",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "report.json").exists()

    def test_module_entry_point_flushes_every_line_before_it_exits(
        self, micro_dir, micro_cfg, tmp_path
    ):
        out = tmp_path / "out"
        command = [sys.executable, "-m", "cowordmap", "run", "--config", str(micro_cfg),
                   "--input", str(micro_dir), "--out", str(out)]
        proc = subprocess.run(command, stderr=subprocess.PIPE, text=True)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 0, proc.stderr
        assert sum(line.startswith("stage ") for line in lines) == len(STAGES)
        assert [line for line in lines if line.startswith(str(out))] == sorted(
            str(out / name) for name in ARTIFACTS)
        proc = subprocess.run(command + ["--factors", "many"], stderr=subprocess.PIPE,
                              text=True)
        assert proc.returncode == 1
        assert proc.stderr.endswith(
            "factors must be a positive integer or 'kaiser', got 'many'\n")
