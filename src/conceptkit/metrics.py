"""Evaluation helpers shared by all tasks: strict accuracy, macro/micro F1
over predicted label sets, and (weighted) word error rate via edit alignment.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "LabelSetPrediction",
    "strict_accuracy",
    "macro_f1",
    "micro_f1",
    "set_metrics",
    "align",
    "edit_distance",
    "wer",
    "corpus_wer",
    "weighted_wer",
]


@dataclass
class LabelSetPrediction:
    gold: frozenset
    predicted: frozenset

    def __init__(self, gold, predicted):
        self.gold = frozenset(gold)
        self.predicted = frozenset(predicted)


def _check(preds):
    if not preds:
        raise ValueError("empty prediction list")


def strict_accuracy(preds):
    """Fraction of instances whose predicted set equals the gold set."""
    _check(preds)
    hits = sum(1 for p in preds if p.gold == p.predicted)
    return hits / len(preds)


def macro_f1(preds):
    """F1 of per-instance-averaged precision and recall.

    An empty predicted set contributes a precision term of 0.
    """
    _check(preds)
    n = len(preds)
    ma_p = sum(
        len(p.gold & p.predicted) / len(p.predicted) if p.predicted else 0.0
        for p in preds
    ) / n
    ma_r = sum(
        len(p.gold & p.predicted) / len(p.gold) if p.gold else 0.0
        for p in preds
    ) / n
    if ma_p + ma_r == 0:
        return 0.0
    return 2 * ma_p * ma_r / (ma_p + ma_r)


def micro_f1(preds):
    """F1 of globally pooled precision and recall."""
    _check(preds)
    inter = sum(len(p.gold & p.predicted) for p in preds)
    n_pred = sum(len(p.predicted) for p in preds)
    n_gold = sum(len(p.gold) for p in preds)
    mi_p = inter / n_pred if n_pred else 0.0
    mi_r = inter / n_gold if n_gold else 0.0
    if mi_p + mi_r == 0:
        return 0.0
    return 2 * mi_p * mi_r / (mi_p + mi_r)


def set_metrics(preds):
    """The label-set report: ``strict_acc``, ``macro_f1`` and ``micro_f1``."""
    return {
        "strict_acc": strict_accuracy(preds),
        "macro_f1": macro_f1(preds),
        "micro_f1": micro_f1(preds),
    }


def align(ref, hyp):
    """Minimal-cost edit alignment with unit costs, as a list of
    (op, ref_index, hyp_index) with op one of 'match', 'sub', 'del', 'ins';
    absent indices are None.

    Tie-break during backtrace prefers match > substitution > deletion >
    insertion so alignments are deterministic.
    """
    n, m = len(ref), len(hyp)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = dist[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            dele = dist[i - 1][j] + 1
            ins = dist[i][j - 1] + 1
            dist[i][j] = min(sub, dele, ins)
    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = dist[i - 1][j - 1] + (0 if ref[i - 1] == hyp[j - 1] else 1)
            if step == dist[i][j]:
                op = "match" if ref[i - 1] == hyp[j - 1] else "sub"
                ops.append((op, i - 1, j - 1))
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i - 1][j] + 1 == dist[i][j]:
            ops.append(("del", i - 1, None))
            i -= 1
            continue
        ops.append(("ins", None, j - 1))
        j -= 1
    ops.reverse()
    return ops


def edit_distance(ref, hyp):
    """Unit-cost Levenshtein distance, the number of non-match ops in
    ``align(ref, hyp)``.

    Keeps two rows of the table and no backtrace; a shared prefix and suffix
    are stripped first, which leaves the distance unchanged.
    """
    lo, n, m = 0, len(ref), len(hyp)
    while lo < n and lo < m and ref[lo] == hyp[lo]:
        lo += 1
    while n > lo and m > lo and ref[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
    ref, hyp = ref[lo:n], hyp[lo:m]
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        left = i
        # cell = min(diag + (r != h), up + 1, left + 1), spelled out: a
        # min() call per cell costs more than the rest of the loop body
        for h, diag, up in zip(hyp, prev, prev[1:]):
            left = (up if up < left else left) + 1
            if r != h:
                diag += 1
            if diag < left:
                left = diag
            cur.append(left)
        prev = cur
    return prev[-1]


def wer(ref, hyp):
    """(S + I + D) / len(ref); an empty reference counts |hyp| errors over 1."""
    return edit_distance(ref, hyp) / max(1, len(ref))


def corpus_wer(pairs):
    """Corpus-level WER over (reference, hypothesis) pairs: total errors over
    total reference words (at least 1)."""
    errors = 0
    ref_words = 0
    for ref, hyp in pairs:
        errors += edit_distance(ref, hyp)
        ref_words += len(ref)
    return errors / max(1, ref_words)


def weighted_wer(pairs, weights):
    """Corpus-level WER over (reference, hypothesis) pairs where each error
    contributes the weight of the word involved.

    Substitutions and deletions carry the reference word's weight,
    insertions the inserted hypothesis word's weight, and a word absent from
    ``weights`` weighs 0; normalized by the total reference weight (at least
    1 to keep the ratio defined).
    """
    err = 0.0
    denom = 0.0
    for ref, hyp in pairs:
        for op, ri, hi in align(ref, hyp):
            if op in ("sub", "del"):
                err += weights.get(ref[ri], 0.0)
            elif op == "ins":
                err += weights.get(hyp[hi], 0.0)
        denom += sum(weights.get(w, 0.0) for w in ref)
    return err / max(1.0, denom)
