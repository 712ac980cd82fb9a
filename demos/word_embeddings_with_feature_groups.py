"""Multi-group skip-gram embeddings on a tiny templated corpus.

A walk through the first pipeline: train word embeddings jointly with
auxiliary feature-group embeddings (part-of-speech and the word's own
identity group), inspect nearest neighbours, and emit the binarized /
clustered representations used as downstream CRF features.

Run:  python3 demos/word_embeddings_with_feature_groups.py
"""

import os
import tempfile

import numpy as np

from conceptkit.corpus import build_vocab, emit_crf_features, parse_corpus
from conceptkit.embed import (
    SkipNerConfig,
    binarize,
    cluster_words,
    nearest_neighbors,
    train_skipner,
)
from conceptkit.numerics import substream_rng

# ---------------------------------------------------------------------------
# 1. A toy corpus.  Two topical registers (beverages and vehicles) so that
#    the learned space has visible cluster structure.  The token-per-line
#    format carries surface form and POS tag; blank line ends a sentence.
# ---------------------------------------------------------------------------
TEMPLATES = [
    ("the/D {x}/N tastes/V fresh/A", ["coffee", "tea", "juice", "cocoa"]),
    ("she/P drinks/V hot/A {x}/N daily/R", ["coffee", "tea", "cocoa"]),
    ("the/D {x}/N drives/V fast/A", ["car", "truck", "bus", "train"]),
    ("he/P rides/V the/D {x}/N north/R", ["bus", "train", "car"]),
]

rng = substream_rng(11, "demo.embed")
lines = []
for _ in range(400):
    template, fillers = TEMPLATES[int(rng.integers(len(TEMPLATES)))]
    word = fillers[int(rng.integers(len(fillers)))]
    for pair in template.format(x=word).split():
        surface, pos = pair.rsplit("/", 1)
        lines.append(f"{surface}\t{pos}")
    lines.append("")

corpus = parse_corpus(lines)
vocab = build_vocab(corpus, min_count=1)
print(f"corpus: {len(corpus.sentences)} sentences, vocab size {len(vocab)}")

# ---------------------------------------------------------------------------
# 2. Train.  The "word" group is ordinary skip-gram with negative sampling;
#    the "pos" group adds a multi-task term that predicts each context
#    position's part-of-speech id from the same center vector.
# ---------------------------------------------------------------------------
config = SkipNerConfig(
    dims=16, window=2, negatives=5, epochs=3, groups=("word", "pos"), seed=11
)
emb, table = train_skipner(corpus, vocab, config)
print(f"trained {emb.word_vectors.shape[0]} vectors of dim {emb.word_vectors.shape[1]}")

# ---------------------------------------------------------------------------
# 3. Neighbours: beverages should neighbour beverages, vehicles vehicles.
# ---------------------------------------------------------------------------
for query in ("coffee", "bus"):
    near = nearest_neighbors(emb, query, k=3)
    pretty = ", ".join(f"{w} ({s:.2f})" for w, s in near)
    print(f"nearest to {query!r}: {pretty}")

# ---------------------------------------------------------------------------
# 4. Downstream representations: per-dimension sign binarization and
#    multi-granularity k-means cluster ids, emitted as CRF feature lines.
# ---------------------------------------------------------------------------
bits = binarize(emb)
clusterings = cluster_words(emb, ks=[2, 4], seed=11)
sample = corpus.sentences[0]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "crf.txt")
    emit_crf_features(
        type(corpus)(sentences=[sample]), vocab, bits, clusterings, path, window=1
    )
    with open(path, encoding="utf-8") as f:
        first = f.readline().rstrip("\n")
print("\nCRF feature line for the first token (truncated):")
print(first[:200] + " ...")

coffee, tea = emb.tokens.index("coffee"), emb.tokens.index("tea")
car = emb.tokens.index("car")
# binarize returns a (dims x V) ternary matrix; compare word columns
agree_ct = int(np.sum(bits[:, coffee] == bits[:, tea]))
agree_cc = int(np.sum(bits[:, coffee] == bits[:, car]))
print(
    f"\nbit agreement coffee~tea {agree_ct}/{bits.shape[0]}, "
    f"coffee~car {agree_cc}/{bits.shape[0]} (same-topic pairs should agree more)"
)
