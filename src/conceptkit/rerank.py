"""N-best hypothesis reranking with a discriminatively trained RBM.

Scoring is per N-best list: a scorer maps a list's hypotheses, featurized
as one unigram count matrix, to one score each. The reranker's score is the
negative free energy of an RBM whose energy includes the ASR log posterior
as an extra visible term. Training is a hinge objective against the oracle
(minimum-WER) hypothesis of each list; an optional entity-prior regularizer
encourages dedicated hidden units to activate on gazetteer words. A
sampled-pair perceptron over the same features serves as the baseline, and
the two scores fuse linearly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .artifact import iter_records, load_arrays, read_records, save_arrays, write_records
from .corpus import GAZETTEER_CLASSES, Vocabulary
from .metrics import edit_distance, weighted_wer
from .numerics import NumericFailure, sigmoid, softplus, substream_rng

log = logging.getLogger(__name__)

__all__ = [
    "Hypothesis",
    "NBestList",
    "DrbmParams",
    "DrbmConfig",
    "EntityPrior",
    "build_nbest_vocab",
    "phi_unigram",
    "asr_scores",
    "free_energy",
    "score_rbm",
    "train_drbm",
    "prior_activation",
    "pretrain_generative",
    "train_slp",
    "slp_score",
    "fused_scorer",
    "rerank_index",
    "picked_wer",
    "corpus_wer",
    "evaluate_wers",
    "tfidf_keywords",
    "iter_nbest",
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
        # the .vocab sidecar holds one token per line
        for words in [self.reference, *(h.words for h in self.hyps)]:
            if " ".join(words).split() != list(words):
                raise ValueError(f"{self.utt_id}: {words!r} holds an empty or spaced word")

    @cached_property
    def errors(self):
        """Edit distance of each hypothesis to the reference, computed on
        first use and kept (the list is not expected to change after)."""
        return tuple(edit_distance(self.reference, h.words) for h in self.hyps)

    def oracle_index(self):
        """Index of the minimum-WER hypothesis; ties go to the lowest index."""
        return int(np.argmin(self.errors))


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

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        for w, e in self.pairs:
            if e not in range(len(GAZETTEER_CLASSES)):
                raise ValueError(f"hidden index {e} is not a reserved prior unit")

    @classmethod
    def from_gazetteer(cls, gazetteer, vocab, lam):
        """The prior over the gazetteer's (word -> class) entries whose word is
        in ``vocab``, in word order, each class tied to its reserved unit."""
        units = {c: e for e, c in enumerate(GAZETTEER_CLASSES)}
        pairs = [
            (vocab.id_of(word), units[cls])
            for word, cls in sorted(gazetteer.items())
            if word in vocab
        ]
        if not pairs:
            raise ValueError("no gazetteer word is in the vocabulary")
        return cls(pairs=pairs, lam=lam)


@dataclass
class DrbmConfig:
    epochs: int = 3
    lr: float = 0.001
    seed: int = 1
    hidden: int = 200
    w0: float = 1.0  # weight of the ASR log posterior in the score
    lam: float = 0.01  # entity-prior strength
    pretrain_epochs: int = 5
    pretrain_lr: float = 0.01
    slp_pairs: int = 100  # perceptron pairs sampled per list
    slp_iterations: int = 10
    slp_lr: float = 1.0


def build_nbest_vocab(data):
    """Vocabulary over all training hypotheses and references."""
    counts = {}
    for nb in data:
        for w in nb.reference:
            counts[w] = counts.get(w, 0) + 1
        for h in nb.hyps:
            for w in h.words:
                counts[w] = counts.get(w, 0) + 1
    return Vocabulary.from_counts(counts, min_count=1)


def phi_unigram(hyps, vocab):
    """Unigram features of a list's hypotheses; OOV folds into <unk>.

    Returns (cols, phi): the sorted vocabulary ids the hypotheses use and the
    len(hyps) x len(cols) count matrix.
    """
    ids = [vocab.id_of(w) for h in hyps for w in h.words]
    rows = np.repeat(np.arange(len(hyps)), [len(h.words) for h in hyps])
    cols, inverse = np.unique(np.array(ids, dtype=np.int64), return_inverse=True)
    phi = np.zeros((len(hyps), len(cols)))
    np.add.at(phi, (rows, inverse), 1.0)
    return cols, phi


def asr_scores(hyps):
    """The recognizer's own score of each hypothesis: its asr_logp."""
    return np.array([h.asr_logp for h in hyps])


def _neg_free_energy(cols, phi, logp, params):
    """-F of featurized hypotheses, with the hidden inputs z it used."""
    z = params.c + phi @ params.W[cols]
    return params.w0 * logp + phi @ params.b[cols] + softplus(z).sum(1), z


def score_rbm(hyps, params, vocab, feats=None):
    """Negative free energy of every hypothesis in the list.

    ``feats`` is the list's ``phi_unigram(hyps, vocab)`` when the caller has
    it already.
    """
    cols, phi = phi_unigram(hyps, vocab) if feats is None else feats
    return _neg_free_energy(cols, phi, asr_scores(hyps), params)[0]


def free_energy(hyps, params, vocab):
    """F(t) = -w0 asr_logp - b.phi - sum_j softplus(c_j + (W^T phi)_j).

    Equal to -ln sum_h exp(-E(t, h)) with the hidden sum carried out
    analytically; the 2^d enumeration agrees to float precision.
    """
    return -score_rbm(hyps, params, vocab)


def _hinge_grads(phi, z, coef):
    """Gradient of sum_i coef_i F(t_i) with respect to b[cols], c and W[cols]
    (the asr term is w0-fixed)."""
    s = sigmoid(z)
    return -(coef @ phi), -(coef @ s), -(phi.T @ (coef[:, None] * s))


def _prior_grads(params, w, e, lam):
    """Gradient of the activation regularizer added to the minimized loss
    over gazetteer pairs (w, e): dc, and dW at the W[w, e] entries.

    The regularizer is -lam * sum ln sigma(z) over gazetteer pairs, which
    pulls each designated hidden unit toward firing on its gazetteer word.
    """
    z = params.c[e] + params.W[w, e]
    g = lam * (sigmoid(z) - 1.0)
    return np.bincount(e, weights=g, minlength=len(params.c)), g


def train_drbm(data, params, vocab, config, prior=None):
    """Hinge training toward the oracle hypothesis of every list.

    For each utterance, every competitor inside the margin (1 + S(t') >
    S(oracle)) contributes a hinge term; the utterance's summed analytic
    gradient is applied in one step. Lists whose oracle already clears the
    margin everywhere produce no update. The entity-prior regularizer, when
    present, is added to each utterance's minimized loss. w0 stays fixed.
    Lists are featurized and their oracles found once; the first list whose
    scores are not finite raises NumericFailure.
    """
    params = params.copy()
    rng = substream_rng(config.seed, "rerank.drbm")
    feats = [phi_unigram(nb.hyps, vocab) for nb in data]
    lists = [(*f, asr_scores(nb.hyps), nb.oracle_index()) for f, nb in zip(feats, data)]
    if prior is not None:
        pw, pe = np.array(prior.pairs, dtype=np.int64).reshape(-1, 2).T
    step = 0
    for epoch in range(config.epochs):
        for idx in rng.permutation(len(data)):
            cols, phi, logp, best = lists[idx]
            step += 1
            scores, z = _neg_free_energy(cols, phi, logp, params)
            if not np.all(np.isfinite(scores)):
                raise NumericFailure(
                    f"reranker training scores of {data[idx].utt_id} are not finite "
                    f"at epoch {epoch}, step {step}"
                )
            losers = 1.0 + scores > scores[best]
            losers[best] = False
            if not losers.any() and prior is None:
                continue
            # minimizing sum over losers t' of 1 + F(t_hat) - F(t'): the
            # oracle's coefficient is the number of losers, each loser's -1
            coef = np.where(losers, -1.0, 0.0)
            coef[best] = losers.sum()
            gb, gc, gW = _hinge_grads(phi, z, coef)
            if prior is not None:
                pc, pW = _prior_grads(params, pw, pe, prior.lam)
                gc += pc
                np.subtract.at(params.W, (pw, pe), config.lr * pW)
            params.b[cols] -= config.lr * gb
            params.c -= config.lr * gc
            params.W[cols] -= config.lr * gW
    return params


def prior_activation(params, w, e):
    """P(h_e = 1 | phi_w) = sigma(c_e + W[w, e]) with phi_w = 1."""
    if not (0 <= w < params.W.shape[0]) or not (0 <= e < params.W.shape[1]):
        raise ValueError("feature or hidden index out of range")
    return float(sigmoid(params.c[e] + params.W[w, e]))


def pretrain_generative(sentences, vocab, config):
    """One-step contrastive divergence over binary presence vectors, with
    ``config.hidden`` units, ``pretrain_epochs`` passes at ``pretrain_lr``.

    Returns W, b, c suited as a train_drbm initialization (w0 untouched).
    With zero epochs the random initialization is returned unchanged. Each
    epoch logs its mean reconstruction cross-entropy at INFO. An epoch
    whose summed cross-entropy or final weights are non-finite raises
    ``NumericFailure`` naming it.
    """
    n, d, lr = len(vocab), config.hidden, config.pretrain_lr
    rng = substream_rng(config.seed, "rerank.pretrain")
    W = rng.normal(scale=0.01, size=(n, d))
    b = np.zeros(n)
    c = np.zeros(d)
    visibles = []
    for sent in sentences:
        v = np.zeros(n)
        for w in sent:
            v[vocab.id_of(w)] = 1.0
        visibles.append(v)
    for epoch in range(config.pretrain_epochs):
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
        if not (math.isfinite(xent) and all(np.isfinite(a).all() for a in (W, b, c))):
            raise NumericFailure(
                f"generative pretraining went non-finite at epoch {epoch} (cross-entropy {xent})"
            )
        log.info(
            "pretraining epoch %d reconstruction cross-entropy %.4f",
            epoch,
            xent / max(1, len(visibles)),
        )
    return W, b, c


def slp_score(hyps, weights, vocab, feats=None):
    """asr_logp plus the perceptron's unigram correction, per hypothesis,
    from ``train_slp``'s weight vector.

    ``feats`` is the list's ``phi_unigram(hyps, vocab)`` when the caller has
    it already.
    """
    cols, phi = phi_unigram(hyps, vocab) if feats is None else feats
    return asr_scores(hyps) + phi @ weights[cols]


def train_slp(data, vocab, config):
    """Sampled-pair perceptron: one weight per vocabulary id, scored on top
    of asr_logp. For ``config.slp_pairs`` random hypothesis pairs per list
    and ``slp_iterations`` passes, if the lower-WER member does not outscore
    the other, move the weights by ``slp_lr`` times the feature difference.
    Equal-WER pairs are skipped.

    Draw order: each iteration visits the lists in order and makes one
    ``rng.integers(n, size=(slp_pairs, 2))`` draw per list of n hypotheses,
    row p being pair p's (i, j). It yields the same numbers, and leaves the
    stream in the same place, as drawing i then j one scalar at a time in
    pair order. A list with fewer than two hypotheses is warned about once
    and consumes no draws. The updates stay sequential, pair by pair; a
    list's scores are taken once per weight change, with ``np.vecdot``,
    whose rows have the bits of ``phi[g] @ w``.
    """
    weights = np.zeros(len(vocab))
    lr = config.slp_lr
    rng = substream_rng(config.seed, "rerank.slp")
    lists = []
    for nb in data:
        if len(nb.hyps) < 2:
            log.warning("%s: need >= 2 hypotheses for pair sampling", nb.utt_id)
            continue
        lists.append((*phi_unigram(nb.hyps, vocab), asr_scores(nb.hyps), np.array(nb.errors)))
    for _ in range(config.slp_iterations):
        for cols, phi, logp, errs in lists:
            i, j = rng.integers(len(errs), size=(config.slp_pairs, 2)).T
            i_wins = errs[i] < errs[j]
            differ = errs[i] != errs[j]
            good = np.where(i_wins, i, j)[differ].tolist()
            bad = np.where(i_wins, j, i)[differ].tolist()
            # cols holds distinct ids, so updating the gathered weights and
            # scattering them back once equals updating weights[cols] in place
            w = weights[cols]
            score = None
            for g, b in zip(good, bad):
                if score is None:  # the first pair, or w changed since
                    score = (logp + np.vecdot(phi, w)).tolist()
                if score[g] <= score[b]:
                    w += lr * phi[g]
                    w -= lr * phi[b]
                    score = None
            weights[cols] = w
    return weights


def fused_scorer(params, slp, vocab, alpha):
    """The list scorer of late fusion, ``score_rbm + alpha * slp_score``,
    with ``slp`` the perceptron's weights, or the RBM's score alone when
    ``slp`` is None; each list is featurized once for both scores."""
    def scorer(hyps):
        feats = phi_unigram(hyps, vocab)
        s_rbm = score_rbm(hyps, params, vocab, feats=feats)
        if slp is None:
            return s_rbm
        return s_rbm + alpha * slp_score(hyps, slp, vocab, feats=feats)

    return scorer


def rerank_index(nbest, scorer):
    """Index of the hypothesis whose score, from a scorer that maps the list's
    hypotheses to one score each, is highest; ties go to the lowest index."""
    return int(np.argmax(scorer(nbest.hyps)))


def _pooled_wer(errors, ref_words):
    """Total errors over total reference words (at least 1), the same float
    as ``metrics.corpus_wer`` of the pairs they were counted on."""
    return errors / max(1, ref_words)


def picked_wer(data, picks):
    """Corpus-level WER of hypothesis ``picks[k]`` of list k, from the lists'
    cached errors."""
    errors = ref_words = 0
    for nb, k in zip(data, picks):
        errors += nb.errors[k]
        ref_words += len(nb.reference)
    return _pooled_wer(errors, ref_words)


def corpus_wer(data, scorer):
    """Corpus-level WER of the scorer's 1-best: total errors over total
    reference words."""
    data = list(data)
    return picked_wer(data, [rerank_index(nb, scorer) for nb in data])


def evaluate_wers(lists, scorer, keywords=None):
    """Corpus-level WERs of one pass over ``lists``, which may be a stream
    (only the current list is held): ``wer`` of the scorer's 1-best,
    ``asr_wer`` of the ASR 1-best and ``oracle_wer`` of the minimum-error
    hypothesis, each the float ``picked_wer`` gives for those picks. With a
    keyword weight map, also ``weighted_wer``: ``metrics.weighted_wer`` of the
    scorer's picks, summed in list order."""
    errors = {"wer": 0, "asr_wer": 0, "oracle_wer": 0}
    ref_words = 0

    def picked_pairs():
        nonlocal ref_words
        for nb in lists:
            k = rerank_index(nb, scorer)
            errors["wer"] += nb.errors[k]
            errors["asr_wer"] += nb.errors[rerank_index(nb, asr_scores)]
            errors["oracle_wer"] += nb.errors[nb.oracle_index()]
            ref_words += len(nb.reference)
            yield nb.reference, nb.hyps[k].words

    pairs = picked_pairs()
    report = {}
    if keywords is not None:
        report["weighted_wer"] = weighted_wer(pairs, keywords)
    for _ in pairs:  # without keywords the lists are read here
        pass
    report.update((name, _pooled_wer(e, ref_words)) for name, e in errors.items())
    return report


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


def _parse_nbest(line):
    rec = json.loads(line)
    hyps = [Hypothesis(words=h["words"], asr_logp=h["logp"]) for h in rec["hyps"]]
    return NBestList(utt_id=rec["utt_id"], reference=rec["ref"], hyps=hyps)


def iter_nbest(path):
    """The N-best lists of ``path``, parsed one line at a time. JSON lines:
    {"utt_id", "ref": [...], "hyps": [{"words", "logp"}]}"""
    return iter_records(path, _parse_nbest)


def load_nbest(path):
    """The lists of ``iter_nbest(path)`` as a list."""
    return list(iter_nbest(path))


def save_nbest(data, path):
    write_records(path, (
        json.dumps({"utt_id": nb.utt_id, "ref": nb.reference,
                    "hyps": [{"words": h.words, "logp": h.asr_logp} for h in nb.hyps]})
        for nb in data
    ))


def load_keywords(path):
    def parse(line):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError("expected 'word<TAB>weight'")
        return parts[0], float(parts[1])

    return dict(read_records(path, parse))


def save_keywords(weights, path):
    write_records(path, (f"{w}\t{weights[w]:.17g}" for w in sorted(weights)))


def save_drbm(params, path):
    """Model artifact of kind ``drbm``: w0 in the manifest, then W, b and c."""
    save_arrays(path, "drbm", {"w0": params.w0}, {"W": params.W, "b": params.b, "c": params.c})


def load_drbm(path):
    meta, arrays = load_arrays(path, "drbm")
    return DrbmParams(W=arrays["W"], b=arrays["b"], c=arrays["c"], w0=float(meta["w0"]))
