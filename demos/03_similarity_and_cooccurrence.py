"""
From the two-mode matrix to one-mode structure
==============================================

Multiplying the matrix with its own transpose counts co-occurrences
(a network of relations); cosine or Pearson similarity between columns
compares distribution patterns instead. Thresholding either one gives the
graph behind a map.
"""

import numpy as np

from cowordmap.corpus import TokenizerConfig, build_word_doc_matrix, load_corpus
from cowordmap.data import micro_corpus_dir
from cowordmap.termstats import obs_exp, select_terms, term_scores
from cowordmap.vectorspace import cooccurrence, cosine_matrix, pearson_matrix, threshold_graph

cfg = TokenizerConfig()
corpus = load_corpus(micro_corpus_dir())
m = build_word_doc_matrix(corpus, cfg)

# Map the 20 terms that occur most above expectation.
selected = select_terms(term_scores(m), "obsexp", top_n=20)
sub = m.select_terms(selected)

# Word co-occurrence: integer matrix, diagonal = sum of squared counts.
cooc = cooccurrence(sub, mode="words")
print("co-occurrence sample:\n", cooc.values[:4, :4])

# Cosine works on the raw counts; Pearson centers them first, which is why
# the two orderings of pairs differ.
cos = cosine_matrix(sub.counts, sub.terms)
pea = pearson_matrix(sub.counts, sub.terms)
pair = np.unravel_index(np.argmax(cos.values - np.eye(len(cos.labels))), cos.values.shape)
print(f"closest pair by cosine: {cos.labels[pair[0]]} / {cos.labels[pair[1]]}"
      f" = {cos.values[pair]:.3f} (pearson {pea.values[pair]:.3f})")

# The same similarity can also be computed on obs/exp cells.
cos_ratio = cosine_matrix(obs_exp(sub), sub.terms)
print("cosine on counts vs on obs/exp cells differ:",
      not np.allclose(cos.values, cos_ratio.values))

# Keep cosine edges >= 0.1; keep co-occurrence edges strictly above 1.
cos_map = threshold_graph(cos, 0.1, rule="geq")
cooc_map = threshold_graph(cooc, 1, rule="gt")
print(f"cosine map: {len(cos_map.edges)} edges over {len(cos_map.nodes)} terms")
print(f"co-occurrence map: {len(cooc_map.edges)} edges")
