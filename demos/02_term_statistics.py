"""
Four ways to pick the words worth mapping
=========================================

A word can be selected by raw frequency, by tf-idf, by its contribution to
the matrix chi-square, or by the column sum of observed/expected ratios.
The four rankings agree on little, which is exactly why all four exist.
"""

import numpy as np

from cowordmap.corpus import TokenizerConfig, build_word_doc_matrix, load_corpus
from cowordmap.data import micro_corpus_dir
from cowordmap.termstats import (
    chi_square,
    expected_matrix,
    obs_exp,
    select_terms,
    term_scores,
)

cfg = TokenizerConfig()
corpus = load_corpus(micro_corpus_dir())
m = build_word_doc_matrix(corpus, cfg)

# Expected values come from the margins: E = row_total * col_total / grand.
e = expected_matrix(m)
print("margins preserved:",
      np.allclose(e.sum(axis=0), m.col_margins),
      np.allclose(e.sum(axis=1), m.row_margins))

# Chi-square sums (O - E)^2 / E over all cells; small observed counts get
# the 0.5 continuity correction unless it is switched off.
contributions = chi_square(m)
dof = (m.n_docs - 1) * (m.n_terms - 1)
print(f"chi-square total {contributions.sum():.2f} at {dof} dof")

# Obs/exp column sums read directly as above/below expectation: a term
# spread evenly over n documents sums to about n.
ratios = obs_exp(m)
print("highest obs/exp column sum:", float(ratios.sum(axis=0).max()))

# Compare the four rankings on the same matrix.
scores = term_scores(m)
for criterion in ("freq", "tfidf", "chi2", "obsexp"):
    best = select_terms(scores, criterion, top_n=5)
    print(f"{criterion:>7}: {', '.join(best)}")
