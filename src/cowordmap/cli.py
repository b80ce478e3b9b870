"""Command-line front end.

Usage: ``coword-map COMMAND [flags]``; flags may come before or after the
command::

    coword-map run --config run.cfg --out results/
    coword-map --input texts/ --criterion chi2 --top 50 --map cooc run
    coword-map terms --input texts/ --out results/   # pipeline prefix only

Each stage of ``pipeline.STAGES`` is a command that runs the pipeline up to
that stage, skipping the writes of stages whose inputs, configuration and
artifacts are unchanged; ``run`` runs every stage.

Exit status: 0 success, 1 usage or configuration error, 2 data error,
3 I/O error. Progress lines go to stderr; artifacts are deterministic. The
``coword-map`` script exits right after its last line is flushed, without
interpreter teardown; Ctrl-C (SIGINT), SIGTERM or SIGHUP unwinds a run,
removing its staging directory, and then ends the script by that signal
without a traceback.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys

from .errors import ConfigError, DataError
from .pipeline import (_CHOICES, _TYPES, STAGE_ORDER, STAGES, PipelineConfig, _parse_value,
                       run_stage)

__all__ = ["build_parser", "entrypoint", "main"]


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through ConfigError (exit 1)."""

    def error(self, message: str):  # noqa: D102 - argparse override
        raise ConfigError(message)


# One row per flag: config key, metavar, help. Types come from the
# PipelineConfig fields, the "{a,b}" metavar of a key with choices from
# pipeline._CHOICES and the "(default ...)" text from PipelineConfig(); a bool
# key is a switch that flips its default. PipelineConfig.validate checks every
# value, so a flag and a config-file line get the same message.
_FLAGS = (
    ("input", "PATH", "corpus directory or lines file"),
    ("criterion", None, "term-selection score"),
    ("top", "N", "keep the N best terms"),
    ("min_score", "X", "keep terms scoring at least X"),
    ("cells", None, "cell values fed to the similarity/factor analysis"),
    ("map", None, "map edges from cosine similarity or raw co-occurrence"),
    ("cos_threshold", "X", "keep cosine edges >= X"),
    ("factors", "N|kaiser", "number of factors, or 'kaiser' for eigenvalue > 1"),
    ("rotate", None, "skip the varimax rotation"),
    ("mode", None, "factor words over documents (R) or documents over words (Q)"),
    ("layout", None, "layout algorithm"),
    ("seed", "N", "layout seed"),
    ("out", "DIR", "output directory"),
    ("binary", None, "count term presence per document instead of occurrences"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coword-map",
        description="Turn a document collection into semantic co-word maps.",
    )
    parser.add_argument(
        "command", choices=("run", *STAGE_ORDER),
        help="run runs every stage, a stage name that stage and its upstream ones; "
        + "; ".join(f"{stage.name} writes {', '.join(stage.artifacts)}" for stage in STAGES),
    )
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    defaults = PipelineConfig()
    for key, metavar, help_text in _FLAGS:
        default = getattr(defaults, key)
        if isinstance(default, bool):
            flag = ("--no-" if default else "--") + key
            parser.add_argument(flag, dest=key, action="store_const",
                                const=str(not default).lower(), help=help_text)
            continue
        if default not in (None, ""):
            help_text += f" (default {default})"
        metavar = metavar or "{" + ",".join(_CHOICES[key]) + "}"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, metavar=metavar,
                            help=help_text)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The config values given as flags, parsed like config-file values."""
    return {
        key: _parse_value(key, value, "--" + key.replace("_", "-"))
        for key in _TYPES
        if (value := getattr(args, key, None)) is not None
    }


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


_STOPS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)


class _Killed(BaseException):
    """A SIGINT, SIGTERM or SIGHUP, raised so that every ``with`` block of the run unwinds."""


def _unwind(signum, frame) -> None:
    for other in _STOPS:  # a second signal must not cut the cleanup
        signal.signal(other, signal.SIG_IGN)
    raise _Killed(signum)


def entrypoint() -> None:
    """Run :func:`main` and end the process without interpreter teardown; a SIGINT,
    SIGTERM or SIGHUP unwinds the run, then ends the process by the same signal.
    A signal the parent set to ignored (``nohup``'s SIGHUP) stays ignored."""
    caught = [s for s in _STOPS if signal.getsignal(s) is not signal.SIG_IGN]
    try:
        for signum in caught:
            signal.signal(signum, _unwind)
        status, killed = main(), None
        for signum in caught:  # the run is over: a signal from here on just ends it
            signal.signal(signum, signal.SIG_DFL)
    except _Killed as exc:
        killed = exc.args[0]
        status = 128 + killed
    sys.stdout.flush()
    sys.stderr.flush()  # the logging handler writes here too
    if killed:
        signal.signal(killed, signal.SIG_DFL)
        os.kill(os.getpid(), killed)
    os._exit(status)


if __name__ == "__main__":
    entrypoint()
