"""Semantic co-word maps from document collections.

The package turns a set of documents into maps of their vocabulary: it
builds a word-document count matrix, scores terms by frequency, tf-idf,
chi-square contribution or observed/expected ratio, derives cosine/Pearson
similarity and co-occurrence structure, extracts varimax-rotated factors,
computes force-directed layouts, and writes Pajek, CSV and SVG artifacts.

Typical library use::

    from cowordmap import corpus, termstats, vectorspace, factors, layout

    docs = corpus.load_corpus("texts/")
    cfg = corpus.TokenizerConfig()
    m = corpus.build_word_doc_matrix(docs, cfg)
    scores = termstats.term_scores(m)
    best = termstats.select_terms(scores, "obsexp", top_n=75)
    sub = m.select_terms(best)
    sim = vectorspace.cosine_matrix(sub.counts, sub.terms)
    graph = vectorspace.threshold_graph(sim, 0.1)

or run the whole pipeline via :func:`cowordmap.pipeline.run` / the
``coword-map`` command.
"""

from __future__ import annotations

__version__ = "0.1.0"

__all__ = [
    "corpus",
    "errors",
    "export",
    "factors",
    "layout",
    "pipeline",
    "termstats",
    "vectorspace",
]
