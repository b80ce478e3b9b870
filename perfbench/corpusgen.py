"""Deterministic Zipf corpus generator for the benchmark workloads.

This is the generator of acceptance criterion 12 with its sizes as
parameters: every document samples 80-149 tokens from a Zipf(1.05) law over
the vocabulary, then appends a few coverage terms so that every term occurs
at least once. The output is one document per line (``input_format =
lines``). Because the generator knows what it wrote, the benchmark can check
the program's ``report.json`` counts against it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GeneratedCorpus:
    text: str
    documents: int
    vocabulary: int
    tokens: int
    sha256: str


def generate(
    docs: int,
    vocab: int,
    seed: int,
    tokens_per_doc: tuple[int, int] = (80, 150),
    exponent: float = 1.05,
) -> GeneratedCorpus:
    """Build a corpus of ``docs`` lines over ``vocab`` distinct terms.

    ``tokens_per_doc`` is the half-open range of sampled tokens per document;
    the coverage terms come on top. Raises ``ValueError`` when the result
    misses its document or vocabulary target.
    """
    rng = np.random.default_rng(seed)
    terms = np.array([f"term{i:05d}" for i in range(vocab)])
    weights = 1.0 / np.arange(1, vocab + 1) ** exponent
    weights /= weights.sum()
    cover = -(-vocab // docs)  # coverage terms per document, rounded up
    lines = []
    seen: set[str] = set()
    tokens = 0
    for d in range(docs):
        sampled = rng.choice(terms, size=int(rng.integers(*tokens_per_doc)), p=weights)
        row = [*sampled, *terms[d * cover:(d + 1) * cover]]
        seen.update(row)
        tokens += len(row)
        lines.append(" ".join(row))
    if len(lines) != docs or len(seen) != vocab:
        raise ValueError(
            f"generator missed its targets: {len(lines)}/{docs} documents, "
            f"{len(seen)}/{vocab} terms"
        )
    text = "\n".join(lines) + "\n"
    return GeneratedCorpus(
        text=text,
        documents=docs,
        vocabulary=vocab,
        tokens=tokens,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
