"""Command-line front end.

Usage::

    coword-map run --config run.cfg --out results/
    coword-map run --input texts/ --criterion chi2 --top 50 --map cooc
    coword-map terms --input texts/ --out results/   # pipeline prefix only

Subcommands ``ingest | terms | map | factors | cooc | render`` run the
pipeline up to the named stage, skipping the writes of stages whose inputs,
configuration and artifacts are unchanged.

Exit status: 0 success, 1 usage or configuration error, 2 data error,
3 I/O error. Progress lines go to stderr; artifacts are deterministic.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ConfigError, DataError
from .pipeline import PipelineConfig, run_stage

__all__ = ["build_parser", "entrypoint", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through ConfigError (exit 1)."""

    def error(self, message: str):  # noqa: D102 - argparse override
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coword-map",
        description="Turn a document collection into semantic co-word maps.",
    )
    shared = _Parser(add_help=False)
    shared.add_argument("--config", metavar="FILE", help="key = value configuration file")
    shared.add_argument("--input", metavar="PATH", help="corpus directory or lines file")
    shared.add_argument(
        "--criterion", choices=["freq", "tfidf", "chi2", "obsexp"],
        help="term-selection score (default obsexp)",
    )
    cut = shared.add_mutually_exclusive_group()
    cut.add_argument("--top", type=int, metavar="N", help="keep the N best terms")
    cut.add_argument(
        "--min-score", type=float, metavar="X", dest="min_score",
        help="keep terms scoring at least X",
    )
    shared.add_argument(
        "--cells", choices=["counts", "tfidf", "obsexp"],
        help="cell values fed to the similarity/factor analysis (default counts)",
    )
    shared.add_argument(
        "--map", choices=["cosine", "cooc"],
        help="map edges from cosine similarity or raw co-occurrence (default cosine)",
    )
    shared.add_argument(
        "--cos-threshold", type=float, metavar="X", dest="cos_threshold",
        help="keep cosine edges >= X (default 0.1)",
    )
    shared.add_argument(
        "--factors", metavar="N|kaiser",
        help="number of factors, or 'kaiser' for eigenvalue > 1 (default kaiser)",
    )
    shared.add_argument(
        "--no-rotate", action="store_true", help="skip the varimax rotation"
    )
    shared.add_argument(
        "--mode", choices=["R", "Q"],
        help="factor words over documents (R) or documents over words (Q)",
    )
    shared.add_argument("--layout", choices=["fr", "kk"], help="layout algorithm")
    shared.add_argument("--seed", type=int, metavar="N", help="layout seed (default 42)")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument(
        "--threads", type=int, metavar="N", help="accepted and validated; has no effect"
    )
    shared.add_argument(
        "--binary", action="store_true",
        help="count term presence per document instead of occurrences",
    )

    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "run the full pipeline and write all artifacts"),
        ("ingest", "build the word-document matrix; write matrix.csv / expected.csv"),
        ("terms", "score terms and write terms.csv"),
        ("cooc", "write the selected-term co-occurrence matrix"),
        ("factors", "extract factors; write loadings.csv / factors.net"),
        ("map", "build and lay out the map; write map.net"),
        ("render", "render map.svg with factor coloring"),
    ]:
        commands.add_parser(name, parents=[shared], help=help_text)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    values: dict = {}
    for key in ("input", "criterion", "top", "min_score", "cells", "map",
                "cos_threshold", "mode", "layout", "seed", "out", "threads"):
        value = getattr(args, key)
        if value is not None:
            values[key] = value
    if args.factors is not None:
        values["factors"] = (
            args.factors if args.factors == "kaiser" else _parse_factors(args.factors)
        )
    if args.no_rotate:
        values["rotate"] = False
    if args.binary:
        values["binary"] = True
    return values


def _parse_factors(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"--factors must be an integer or 'kaiser', got {text!r}"
        ) from None


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, run the requested pipeline prefix, return exit status."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        overrides = _overrides(args)
        if args.config:
            config = PipelineConfig.from_file(args.config, overrides)
        else:
            config = PipelineConfig.build({}, overrides)
        result = run_stage(config, args.command)
    except ConfigError as exc:
        print(f"coword-map: configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"coword-map: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"coword-map: i/o error: {exc}", file=sys.stderr)
        return 3
    for name in sorted(result.artifacts):
        print(f"{result.out_dir / name}", file=sys.stderr)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
