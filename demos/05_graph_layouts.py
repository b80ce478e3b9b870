"""
Placing the map on the page
===========================

Two deterministic layouts: Fruchterman-Reingold (forces) and Kamada-Kawai
(stress over shortest-path distances). Disconnected graphs are laid out
component by component and packed, isolated words in a trailing row.
"""

import numpy as np

from cowordmap.corpus import TokenizerConfig, build_word_doc_matrix, load_corpus
from cowordmap.data import micro_corpus_dir
from cowordmap.layout import fruchterman_reingold, kamada_kawai, split_and_pack
from cowordmap.termstats import select_terms, term_scores
from cowordmap.vectorspace import cosine_matrix, threshold_graph

cfg = TokenizerConfig()
corpus = load_corpus(micro_corpus_dir())
m = build_word_doc_matrix(corpus, cfg)
sub = m.select_terms(select_terms(term_scores(m), "obsexp", top_n=20))
graph = threshold_graph(cosine_matrix(sub.counts, sub.terms), 0.1, rule="geq")
print(f"map graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges,"
      f" {len(graph.connected_components())} components")

# Same seed, same coordinates, run after run.
fr = split_and_pack(graph, lambda g, s: fruchterman_reingold(g, seed=s), seed=42)
fr_again = split_and_pack(graph, lambda g, s: fruchterman_reingold(g, seed=s), seed=42)
print("fruchterman-reingold deterministic:", np.array_equal(fr.coords, fr_again.coords))
print("three node positions:")
for label, (x, y) in list(zip(graph.nodes, fr.coords))[:3]:
    print(f"  {label:<12} ({x:.3f}, {y:.3f})")

# Kamada-Kawai needs connected input, which split_and_pack guarantees.
kk = split_and_pack(
    graph, lambda g, s: kamada_kawai(g, seed=s), seed=42
)
print("kamada-kawai coordinates in unit square:",
      bool((kk.coords >= 0).all() and (kk.coords <= 1).all()))

# Kamada-Kawai starts from the classical scaling of the hop distances, or
# from seeded positions where its axes are not unique (as for this complete
# component), and stops once an iteration lowers the stress by at most tol
# (default 1e-4). The packed layout keeps the largest component's stress.
print(f"kamada-kawai: {kk.iterations} iterations (most of any component),"
      f" largest component's final stress {kk.stress_history[-1]:.3f}")
