"""N-best hypothesis reranking with a discriminatively trained RBM.

The reranker scores a hypothesis by the negative free energy of an RBM whose
energy includes the ASR log posterior as an extra visible term. Training is
a hinge objective against the oracle (minimum-WER) hypothesis of each list;
an optional entity-prior regularizer encourages dedicated hidden units to
activate on gazetteer words. A sampled-pair perceptron over the same unigram
features serves as the baseline, and the two scores fuse linearly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .artifact import load_arrays, save_arrays
from .metrics import align, wer
from .numerics import SparseVector, sigmoid, softplus, substream_rng

log = logging.getLogger(__name__)

__all__ = [
    "Hypothesis",
    "NBestList",
    "DrbmParams",
    "DrbmConfig",
    "EntityPrior",
    "SlpModel",
    "build_nbest_vocab",
    "phi_unigram",
    "free_energy",
    "score_rbm",
    "train_drbm",
    "prior_activation",
    "pretrain_generative",
    "train_slp",
    "slp_score",
    "fuse",
    "rerank",
    "corpus_wer",
    "tfidf_keywords",
    "load_nbest",
    "save_nbest",
    "load_keywords",
    "save_keywords",
    "save_drbm",
    "load_drbm",
]


@dataclass
class Hypothesis:
    """One candidate transcript with its ASR log posterior (natural log)."""

    words: list
    asr_logp: float

    def __post_init__(self):
        if not math.isfinite(self.asr_logp):
            raise ValueError("asr_logp must be finite")


@dataclass
class NBestList:
    utt_id: str
    reference: list
    hyps: list

    def __post_init__(self):
        if not self.hyps:
            raise ValueError(f"{self.utt_id}: N-best list is empty")

    def oracle_index(self):
        """Index of the minimum-WER hypothesis; ties go to the lowest index."""
        errs = [align(self.reference, h.words).errors for h in self.hyps]
        return int(np.argmin(errs))


@dataclass
class DrbmParams:
    """Energy parameters: W (n x d), visible bias b (n), hidden bias c (d),
    and the fixed weight w0 on the ASR log posterior."""

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    w0: float = 1.0

    def __post_init__(self):
        n, d = self.W.shape
        if self.b.shape != (n,) or self.c.shape != (d,):
            raise ValueError("bias shapes do not match W")
        if not (
            np.all(np.isfinite(self.W))
            and np.all(np.isfinite(self.b))
            and np.all(np.isfinite(self.c))
            and math.isfinite(self.w0)
        ):
            raise ValueError("parameters must be finite")

    @classmethod
    def zeros(cls, n, d, w0=1.0):
        return cls(W=np.zeros((n, d)), b=np.zeros(n), c=np.zeros(d), w0=w0)

    def copy(self):
        return DrbmParams(W=self.W.copy(), b=self.b.copy(), c=self.c.copy(), w0=self.w0)


@dataclass
class EntityPrior:
    """Gazetteer pairs (feature index w, hidden index e) with weight lam.

    The first three hidden units are reserved, one per gazetteer class, in
    the fixed order LOCATION, ORGANIZATION, PERSON.
    """

    pairs: list
    lam: float = 0.01
    reserved: tuple = (0, 1, 2)

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        for w, e in self.pairs:
            if e not in self.reserved:
                raise ValueError(f"hidden index {e} is not a reserved prior unit")


@dataclass
class DrbmConfig:
    epochs: int = 3
    lr: float = 0.001
    seed: int = 1
    shuffle: bool = True
    presence: bool = False  # indicator features instead of counts
    literal_prior: bool = False  # the divergent textbook-literal variant


@dataclass
class SlpModel:
    """Perceptron weights over unigram features, scored on top of asr_logp."""

    weights: np.ndarray
    pairs_per_list: int
    iterations: int


def build_nbest_vocab(data):
    """Vocabulary over all training hypotheses and references."""
    from .corpus import UNK, Vocabulary

    counts = {}
    for nb in data:
        for w in nb.reference:
            counts[w] = counts.get(w, 0) + 1
        for h in nb.hyps:
            for w in h.words:
                counts[w] = counts.get(w, 0) + 1
    kept = sorted(counts, key=lambda t: (-counts[t], t))
    id_to_token = [UNK] + [t for t in kept if t != UNK]
    return Vocabulary(
        token_to_id={t: i for i, t in enumerate(id_to_token)},
        id_to_token=id_to_token,
        counts={t: counts.get(t, 0) for t in id_to_token},
        min_count=1,
    )


def phi_unigram(hyp, vocab, presence=False):
    """Unigram count vector of the hypothesis; OOV folds into <unk>."""
    counts = {}
    for w in hyp.words:
        i = vocab.id_of(w)
        counts[i] = counts.get(i, 0) + 1
    if presence:
        counts = {i: 1.0 for i in counts}
    return SparseVector.from_counts(counts)


def _hidden_input(phi, params):
    return params.c + phi.matvec(params.W.T)


def free_energy(hyp, params, vocab, presence=False):
    """F(t) = -w0 asr_logp - b.phi - sum_j softplus(c_j + (W^T phi)_j).

    Equal to -ln sum_h exp(-E(t, h)) with the hidden sum carried out
    analytically; the 2^d enumeration agrees to float precision.
    """
    phi = phi_unigram(hyp, vocab, presence=presence)
    z = _hidden_input(phi, params)
    return float(
        -params.w0 * hyp.asr_logp - phi.dot_dense(params.b) - softplus(z).sum()
    )


def score_rbm(hyp, params, vocab, presence=False):
    return -free_energy(hyp, params, vocab, presence=presence)


def _free_energy_grads(phi, params):
    """dF/db, dF/dc, dF/dW at the given feature vector (asr term is w0-fixed)."""
    z = _hidden_input(phi, params)
    s = sigmoid(z)
    gb = -phi.to_dense(params.b.shape[0])
    gc = -s
    gW = np.zeros_like(params.W)
    for i, v in phi:
        gW[i] = -v * s
    return gb, gc, gW


def _prior_grads(params, prior, literal=False):
    """Gradient of the activation regularizer added to the minimized loss.

    Default form: -lam * sum ln sigma(z) over gazetteer pairs, which pulls
    each designated hidden unit toward firing on its gazetteer word. The
    literal flag instead uses -lam * ln (P-1)^2, kept only for study: it
    diverges as P -> 1 and pushes activations away from certainty.
    """
    gc = np.zeros_like(params.c)
    gW = np.zeros_like(params.W)
    for w, e in prior.pairs:
        z = params.c[e] + params.W[w, e]
        if literal:
            g = 2.0 * prior.lam * sigmoid(z)
        else:
            g = prior.lam * (sigmoid(z) - 1.0)
        gc[e] += g
        gW[w, e] += g
    return gc, gW


def train_drbm(data, params, vocab, config, prior=None):
    """Hinge training toward the oracle hypothesis of every list.

    For each utterance, every competitor inside the margin (1 + S(t') >
    S(oracle)) contributes a hinge term; the utterance's summed analytic
    gradient is applied in one step. Lists whose oracle already clears the
    margin everywhere produce no update. The entity-prior regularizer, when
    present, is added to each utterance's minimized loss. w0 stays fixed.
    """
    params = params.copy()
    rng = substream_rng(config.seed, "rerank.drbm")
    for _ in range(config.epochs):
        order = rng.permutation(len(data)) if config.shuffle else range(len(data))
        for idx in order:
            nb = data[idx]
            if not nb.hyps:
                log.warning("%s: empty N-best list skipped", nb.utt_id)
                continue
            phis = [phi_unigram(h, vocab, presence=config.presence) for h in nb.hyps]
            scores = [
                params.w0 * h.asr_logp
                + p.dot_dense(params.b)
                + softplus(_hidden_input(p, params)).sum()
                for h, p in zip(nb.hyps, phis)
            ]
            best = nb.oracle_index()
            losers = [
                j
                for j in range(len(nb.hyps))
                if j != best and 1.0 + scores[j] > scores[best]
            ]
            if not losers and prior is None:
                continue
            gb = np.zeros_like(params.b)
            gc = np.zeros_like(params.c)
            gW = np.zeros_like(params.W)
            if losers:
                # minimizing 1 - S(t_hat) + S(t') = 1 + F(t_hat) - F(t')
                hb, hc, hW = _free_energy_grads(phis[best], params)
                gb += len(losers) * hb
                gc += len(losers) * hc
                gW += len(losers) * hW
                for j in losers:
                    lb, lc, lW = _free_energy_grads(phis[j], params)
                    gb -= lb
                    gc -= lc
                    gW -= lW
            if prior is not None:
                pc, pW = _prior_grads(params, prior, literal=config.literal_prior)
                gc += pc
                gW += pW
            params.b -= config.lr * gb
            params.c -= config.lr * gc
            params.W -= config.lr * gW
    return params


def prior_activation(params, prior, w, e):
    """P(h_e = 1 | phi_w) = sigma(c_e + W[w, e]) with phi_w = 1."""
    if not (0 <= w < params.W.shape[0]) or not (0 <= e < params.W.shape[1]):
        raise ValueError("feature or hidden index out of range")
    return float(sigmoid(params.c[e] + params.W[w, e]))


def pretrain_generative(sentences, vocab, d, epochs, seed, lr=0.01, return_history=False):
    """One-step contrastive divergence over binary presence vectors.

    Returns W, b, c suited as a train_drbm initialization (w0 untouched).
    With zero epochs the random initialization is returned unchanged.
    """
    n = len(vocab)
    rng = substream_rng(seed, "rerank.pretrain")
    W = rng.normal(scale=0.01, size=(n, d))
    b = np.zeros(n)
    c = np.zeros(d)
    visibles = []
    for sent in sentences:
        v = np.zeros(n)
        for w in sent:
            v[vocab.id_of(w)] = 1.0
        visibles.append(v)
    history = []
    for _ in range(epochs):
        xent = 0.0
        for v0 in visibles:
            h0 = sigmoid(c + W.T @ v0)
            h_sample = (rng.random(d) < h0).astype(np.float64)
            v1 = sigmoid(b + W @ h_sample)  # mean-field reconstruction
            h1 = sigmoid(c + W.T @ v1)
            W += lr * (np.outer(v0, h0) - np.outer(v1, h1))
            b += lr * (v0 - v1)
            c += lr * (h0 - h1)
            eps = 1e-12
            xent -= float(
                v0 @ np.log(v1 + eps) + (1.0 - v0) @ np.log(1.0 - v1 + eps)
            )
        history.append(xent / max(1, len(visibles)))
    if return_history:
        return W, b, c, history
    return W, b, c


def slp_score(hyp, model, vocab):
    """asr_logp plus the perceptron's unigram correction."""
    return hyp.asr_logp + phi_unigram(hyp, vocab).dot_dense(model.weights)


def train_slp(data, vocab, pairs_per_list=100, iterations=10, lr=1.0, seed=1):
    """Sampled-pair perceptron: for random hypothesis pairs, if the
    lower-WER member does not outscore the other, move the weights by the
    feature difference. Equal-WER pairs are skipped."""
    weights = np.zeros(len(vocab))
    model = SlpModel(weights=weights, pairs_per_list=pairs_per_list, iterations=iterations)
    rng = substream_rng(seed, "rerank.slp")
    wers = [
        [wer(nb.reference, h.words) for h in nb.hyps] for nb in data
    ]
    for _ in range(iterations):
        for nb, werrs in zip(data, wers):
            if len(nb.hyps) < 2:
                log.warning("%s: need >= 2 hypotheses for pair sampling", nb.utt_id)
                continue
            for _ in range(pairs_per_list):
                i, j = rng.integers(len(nb.hyps)), rng.integers(len(nb.hyps))
                if werrs[i] == werrs[j]:
                    continue
                good, bad = (i, j) if werrs[i] < werrs[j] else (j, i)
                if slp_score(nb.hyps[good], model, vocab) <= slp_score(
                    nb.hyps[bad], model, vocab
                ):
                    for k, v in phi_unigram(nb.hyps[good], vocab):
                        weights[k] += lr * v
                    for k, v in phi_unigram(nb.hyps[bad], vocab):
                        weights[k] -= lr * v
    return model


def fuse(s_rbm, s_slp, alpha=1.0):
    """Late fusion S = S_RBM + alpha * S_SLP."""
    return s_rbm + alpha * s_slp


def rerank(nbest, scorer):
    """Return the argmax-score hypothesis; ties go to the lowest index."""
    if not nbest.hyps:
        raise ValueError(f"{nbest.utt_id}: cannot rerank an empty list")
    best, best_score = 0, scorer(nbest.hyps[0])
    for i, h in enumerate(nbest.hyps[1:], start=1):
        s = scorer(h)
        if s > best_score:
            best, best_score = i, s
    return nbest.hyps[best]


def corpus_wer(data, scorer):
    """Corpus-level WER of the scorer's 1-best: total errors over total
    reference words."""
    errors = 0
    ref_words = 0
    for nb in data:
        chosen = rerank(nb, scorer)
        errors += align(nb.reference, chosen.words).errors
        ref_words += len(nb.reference)
    return errors / max(1, ref_words)


def tfidf_keywords(documents, threshold=3.0):
    """Corpus-frequency TF-IDF: tf(w) * ln(N_docs / df(w)) >= threshold.

    Returns keyword -> 1.0; anything absent from the map weighs 0.0 in
    weighted-WER evaluation.
    """
    if not documents:
        raise ValueError("need at least one document")
    tf = {}
    df = {}
    for doc in documents:
        for w in doc:
            tf[w] = tf.get(w, 0) + 1
        for w in set(doc):
            df[w] = df.get(w, 0) + 1
    n_docs = len(documents)
    out = {}
    for w, count in tf.items():
        score = count * math.log(n_docs / df[w])
        if score >= threshold:
            out[w] = 1.0
    return out


# ---------------------------------------------------------------------------
# Persistence


def load_nbest(path):
    """JSON lines: {"utt_id", "ref": [...], "hyps": [{"words", "logp"}]}"""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw)
                hyps = [Hypothesis(words=h["words"], asr_logp=h["logp"]) for h in rec["hyps"]]
                out.append(NBestList(utt_id=rec["utt_id"], reference=rec["ref"], hyps=hyps))
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return out


def save_nbest(data, path):
    with open(path, "w", encoding="utf-8") as f:
        for nb in data:
            f.write(
                json.dumps(
                    {
                        "utt_id": nb.utt_id,
                        "ref": nb.reference,
                        "hyps": [
                            {"words": h.words, "logp": h.asr_logp} for h in nb.hyps
                        ],
                    }
                )
                + "\n"
            )


def load_keywords(path):
    out = {}
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'word<TAB>weight'")
            out[parts[0]] = float(parts[1])
    return out


def save_keywords(weights, path):
    with open(path, "w", encoding="utf-8") as f:
        for w in sorted(weights):
            f.write(f"{w}\t{weights[w]:.17g}\n")


def save_drbm(params, path):
    """Model artifact of kind ``drbm``: w0 in the manifest, then W, b and c."""
    save_arrays(path, "drbm", {"w0": params.w0}, {"W": params.W, "b": params.b, "c": params.c})


def load_drbm(path):
    meta, arrays = load_arrays(path, "drbm")
    return DrbmParams(W=arrays["W"], b=arrays["b"], c=arrays["c"], w0=float(meta["w0"]))
