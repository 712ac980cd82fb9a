"""Discriminative RBM reranking of recognizer N-best lists.

Each utterance comes with an N-best list: the recognizer's ranked guesses
plus their log-posteriors.  The list is the unit of scoring: a scorer maps
the list's hypotheses to one score each, and reranking takes the argmax.
A binary-visible RBM scores every hypothesis by (negative) free energy,
trained discriminatively so the lowest-WER hypothesis in each list clears
a hinge margin over its competitors.  The demo walks
through the full recipe on rule-generated lists whose oracle hypothesis
keeps a gazetteer word that higher-posterior competitors corrupt:

  1. baseline: pick the recognizer's 1-best              -> high WER
  2. generative pretraining (CD-1) as an initializer
  3. discriminative training                              -> WER drops
  4. an entity-aware prior ties gazetteer words to dedicated hidden
     units, nudging their connection weights during training
  5. a pairwise perceptron (SLP) over unigram differences, fused with
     the RBM score, matches or beats either model alone.

Run:  python3 demos/nbest_reranking_with_rbm.py
"""

import numpy as np

from conceptkit.rerank import (
    DrbmConfig,
    DrbmParams,
    EntityPrior,
    asr_scores,
    build_nbest_vocab,
    corpus_wer,
    fused_scorer,
    pretrain_generative,
    prior_activation,
    score_rbm,
    slp_score,
    train_drbm,
    train_slp,
)
from conceptkit.synth import synth_nbest


# ---------------------------------------------------------------------------
# 1. Data and the 1-best baseline.
# ---------------------------------------------------------------------------
lists, gaz = synth_nbest(n_utts=300, n_best=10, seed=7)
vocab = build_nbest_vocab(lists)
train, test = lists[:240], lists[240:]
asr_wer = corpus_wer(test, asr_scores)
print(f"{len(train)} train / {len(test)} test lists, vocab {len(vocab)}")
print(f"recognizer 1-best WER: {asr_wer:.3f}")

# ---------------------------------------------------------------------------
# 2. Generative pretraining gives the discriminative phase a warm start.
#    One config carries every stage's settings: 20 hidden units, 2 CD-1
#    epochs, 3 hinge epochs and 50 perceptron pairs per list for 5 passes.
# ---------------------------------------------------------------------------
cfg = DrbmConfig(epochs=3, lr=0.05, seed=7, hidden=20, pretrain_epochs=2,
                 slp_pairs=50, slp_iterations=5)
sentences = [nb.reference for nb in train]
W, b, c, history = pretrain_generative(sentences, vocab, cfg, return_history=True)
init = DrbmParams(W=W, b=b, c=c, w0=1.0)
print(f"CD-1 pretraining reconstruction cross-entropy: "
      f"{history[0]:.3f} -> {history[-1]:.3f}")

# ---------------------------------------------------------------------------
# 3. Discriminative training: a hinge on -free_energy between each list's
#    minimum-WER hypothesis and every competitor inside the margin.
# ---------------------------------------------------------------------------
trained = train_drbm(train, init, vocab, cfg)
rbm_wer = corpus_wer(test, lambda hyps: score_rbm(hyps, trained, vocab))
print(f"reranked WER: {rbm_wer:.3f} "
      f"(gain {100 * (asr_wer - rbm_wer):.1f} absolute points)")

# ---------------------------------------------------------------------------
# 4. Entity prior: regularize gazetteer words toward class-specific hidden
#    units.  The mean unit activation given the word's indicator vector
#    rises over training, i.e. the units specialize as intended.
# ---------------------------------------------------------------------------
prior = EntityPrior.from_gazetteer(gaz, vocab, lam=0.05)
pairs = prior.pairs
blank = DrbmParams.zeros(len(vocab), cfg.hidden)
before = float(np.mean([prior_activation(blank, prior, w, e) for w, e in pairs]))
with_prior = train_drbm(train, blank, vocab, cfg, prior=prior)
after = float(np.mean([prior_activation(with_prior, prior, w, e) for w, e in pairs]))
print(f"entity-unit activation: {before:.3f} -> {after:.3f}")

# ---------------------------------------------------------------------------
# 5. Score-level fusion with a pairwise perceptron.
# ---------------------------------------------------------------------------
slp = train_slp(train, vocab, cfg)
slp_wer = corpus_wer(test, lambda hyps: slp_score(hyps, slp, vocab))
fuse_wer = corpus_wer(test, fused_scorer(trained, slp, vocab, alpha=1.0))
print(f"SLP WER {slp_wer:.3f}, fused WER {fuse_wer:.3f} "
      f"(<= min of the two single models)")
