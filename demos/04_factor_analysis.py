"""
Latent structure: factors, rotation, and word coloring
======================================================

Factor analysis runs on the correlation matrix of the two-mode matrix
itself. After a varimax rotation each word is assigned to the factor it
loads highest on; loadings inside [-0.1, 0.1] are suppressed and leave the
word unassigned (drawn white on maps).
"""

import numpy as np

from cowordmap.corpus import TokenizerConfig, build_word_doc_matrix, load_corpus
from cowordmap.data import micro_corpus_dir
from cowordmap.factors import UNASSIGNED, assign_factors, factor_analyze, factor_graph, varimax
from cowordmap.termstats import select_terms, term_scores

cfg = TokenizerConfig()
corpus = load_corpus(micro_corpus_dir())
m = build_word_doc_matrix(corpus, cfg)
sub = m.select_terms(select_terms(term_scores(m), "obsexp", top_n=20))

# Five factors over the counts, terms as variables; obs_exp(sub) gives
# ratio cells, and sub.counts.T with sub.doc_ids makes documents the variables.
solution = factor_analyze(sub.counts, sub.terms, k=5)
print("eigenvalues:", np.round(solution.eigenvalues, 3))
print("explained variance %:", np.round(solution.explained_variance_pct, 1))

rotated = varimax(solution)
print(f"varimax converged after {rotated.rotation_sweeps} sweeps;"
      f" communalities preserved: "
      f"{np.allclose(rotated.communalities(), solution.communalities())}")

assignment = assign_factors(rotated, suppression=0.1)
for factor in range(rotated.n_factors):
    members = [l for l, f in zip(assignment.labels, assignment.factor) if f == factor]
    print(f"factor {factor + 1}: {', '.join(members) if members else '-'}")
white = [l for l, f in zip(assignment.labels, assignment.factor) if f == UNASSIGNED]
print("unassigned (white):", ", ".join(white) if white else "-")

# The loading structure as a bipartite graph: dotted edges mark negative
# loadings.
graph = factor_graph(rotated, suppression=0.1)
dotted = graph.dotted.sum()
print(f"factor graph: {len(graph.edges)} edges, {dotted} dotted (negative)")
