"""
Building the word-document matrix
=================================

Documents are the cases (rows) and words the variables (columns) of the
matrix every later step works on. This walk-through uses the bundled
eight-document micro corpus.
"""

from cowordmap.corpus import TokenizerConfig, build_word_doc_matrix, load_corpus, tokenize
from cowordmap.data import micro_corpus_dir

# Load one document per .txt file (lines of a single file work too): an
# ordered dict from document id (here the filename) to its text.
corpus = load_corpus(micro_corpus_dir(), format="files")
print(f"documents: {len(corpus)}")

# Tokens are maximal letter/digit runs, lowercased, with stopwords removed.
cfg = TokenizerConfig()
print("first document tokens:", tokenize(next(iter(corpus.values())), cfg)[:8], "...")

# One tokenizing pass fills the count matrix. It prunes all-zero rows and
# columns, so margin-based statistics are always well defined.
m = build_word_doc_matrix(corpus, cfg)
print(f"matrix: {m.n_docs} x {m.n_terms}, total tokens {m.total}")
print("row margins:", m.row_margins.tolist())

# The columns are the vocabulary, ordered by descending total frequency
# (ties: alphabetical).
for term, tf, df in list(zip(m.terms, m.col_margins, m.doc_freq))[:5]:
    print(f"  {term:<12} total={tf}  in {df} documents")
