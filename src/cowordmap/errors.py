"""Exception and warning types shared across the package.

Exit-code mapping used by the command-line front end:

* :class:`ConfigError` - bad usage or configuration (exit status 1)
* :class:`DataError` - the input data cannot be processed (exit status 2)
* ``OSError`` - unreadable/unwritable files (exit status 3)
"""

from __future__ import annotations

from collections import Counter


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, missing setting."""


class DataError(Exception):
    """The input data violates a precondition (empty corpus, zero vector, ...)."""


class CowordMapWarning(UserWarning):
    """Non-fatal condition worth recording in the run report.

    Emitted for documented situations only: pruned all-zero documents,
    constant columns dropped before correlation, an empty edge set after
    thresholding, or a clamped factor count.
    """


def capped_ids(ids: list[str]) -> str:
    """``ids`` joined by commas: the first 10, then ``, ... (N in all)`` if longer."""
    more = f", ... ({len(ids)} in all)" if len(ids) > 10 else ""
    return ", ".join(ids[:10]) + more


def check_unique(ids: list[str], what: str) -> None:
    """Raise a DataError naming the repeated ``ids``, sorted and capped."""
    if dupes := sorted(i for i, count in Counter(ids).items() if count > 1):
        raise DataError(f"duplicate {what}: {capped_ids(dupes)}")
