import random

import pytest

from conceptkit.metrics import (
    LabelSetPrediction,
    align,
    corpus_wer,
    edit_distance,
    macro_f1,
    micro_f1,
    strict_accuracy,
    weighted_wer,
    wer,
)


def brute_force_set_metrics(pairs):
    """Independent reimplementation straight from the displayed formulas."""
    n = len(pairs)
    acc = sum(1 for y, yh in pairs if set(y) == set(yh)) / n
    ma_p = sum(
        (len(set(y) & set(yh)) / len(set(yh))) if yh else 0.0 for y, yh in pairs
    ) / n
    ma_r = sum(len(set(y) & set(yh)) / len(set(y)) for y, yh in pairs) / n
    macro = 0.0 if ma_p + ma_r == 0 else 2 * ma_p * ma_r / (ma_p + ma_r)
    inter = sum(len(set(y) & set(yh)) for y, yh in pairs)
    tp = sum(len(set(yh)) for y, yh in pairs)
    tg = sum(len(set(y)) for y, yh in pairs)
    mi_p = inter / tp if tp else 0.0
    mi_r = inter / tg if tg else 0.0
    micro = 0.0 if mi_p + mi_r == 0 else 2 * mi_p * mi_r / (mi_p + mi_r)
    return acc, macro, micro


class TestSetMetrics:
    def test_single_item_example(self):
        preds = [LabelSetPrediction({"/A"}, {"/A", "/B"})]
        assert strict_accuracy(preds) == 0.0
        assert abs(macro_f1(preds) - 2 / 3) < 1e-12
        assert abs(micro_f1(preds) - 2 / 3) < 1e-12

    def test_perfect(self):
        preds = [
            LabelSetPrediction({"/A"}, {"/A"}),
            LabelSetPrediction({"/B", "/C"}, {"/B", "/C"}),
        ]
        assert strict_accuracy(preds) == 1.0
        assert macro_f1(preds) == 1.0
        assert micro_f1(preds) == 1.0

    def test_empty_list_raises(self):
        for fn in (strict_accuracy, macro_f1, micro_f1):
            with pytest.raises(ValueError):
                fn([])

    def test_random_against_brute_force(self):
        rnd = random.Random(0)
        universe = [f"/L{i}" for i in range(6)]
        for _ in range(200):
            pairs = []
            for _ in range(rnd.randint(1, 8)):
                gold = rnd.sample(universe, rnd.randint(1, 4))
                pred = rnd.sample(universe, rnd.randint(0, 4))
                pairs.append((gold, pred))
            preds = [LabelSetPrediction(g, p) for g, p in pairs]
            acc, macro, micro = brute_force_set_metrics(pairs)
            assert strict_accuracy(preds) == acc
            assert macro_f1(preds) == macro
            assert micro_f1(preds) == micro

    def test_micro_equals_macro_for_singletons(self):
        rnd = random.Random(4)
        preds = [
            LabelSetPrediction({rnd.choice("abc")}, {rnd.choice("abc")})
            for _ in range(30)
        ]
        assert abs(micro_f1(preds) - macro_f1(preds)) < 1e-12


def align_errors(ref, hyp):
    """The non-match ops of ``align(ref, hyp)``."""
    return sum(op != "match" for op, _, _ in align(ref, hyp))


def brute_force_wer(ref, hyp):
    """Classic DP on edit distance, independent of the alignment code."""
    n, m = len(ref), len(hyp)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
            )
    return d[n][m] / max(1, n)


class TestWer:
    def test_substitution(self):
        assert abs(wer("a b c".split(), "a x c".split()) - 1 / 3) < 1e-12

    def test_identity(self):
        assert wer(["x", "y"], ["x", "y"]) == 0.0

    def test_empty_reference(self):
        assert wer([], ["a", "b"]) == 2.0

    def test_weighted_hand_alignment(self):
        w = {"a": 1.0, "b": 0.0}
        assert weighted_wer([(["a", "b"], ["b"])], w) == 1.0

    def test_weighted_all_unit_matches_plain(self):
        ref, hyp = "the cat sat".split(), "the mat sat down".split()
        unit = {w: 1.0 for w in ref + hyp}
        assert abs(weighted_wer([(ref, hyp)], unit) - wer(ref, hyp)) < 1e-12

    def test_weighted_unlisted_words_weigh_zero(self):
        # corpus-level: one cat->mat substitution over cat+sat+cat; the
        # unlisted inserted "down" and the unlisted "the"/"a" weigh nothing
        pairs = [("the cat sat".split(), "the mat sat down".split()),
                 ("a cat".split(), "a cat".split())]
        assert abs(weighted_wer(pairs, {"cat": 1.0, "sat": 1.0}) - 1 / 3) < 1e-12

    def test_corpus_wer_pools_counts(self):
        # 2 errors over 3 + 2 reference words, not the mean of 2/3 and 0
        pairs = [("the cat sat".split(), "the mat sat down".split()),
                 ("a cat".split(), "a cat".split())]
        assert corpus_wer(pairs) == 2 / 5
        assert corpus_wer([([], ["x"])]) == 1.0

    def test_random_against_brute_force(self):
        rnd = random.Random(1)
        vocab = list("abcde")
        for _ in range(200):
            ref = [rnd.choice(vocab) for _ in range(rnd.randint(1, 10))]
            hyp = [rnd.choice(vocab) for _ in range(rnd.randint(0, 10))]
            assert abs(wer(ref, hyp) - brute_force_wer(ref, hyp)) < 1e-12

    def test_alignment_reconstructs(self):
        ref, hyp = "a b c d".split(), "a x d e".split()
        ops = align(ref, hyp)
        rec_ref = [ref[ri] for op, ri, _ in ops if ri is not None]
        rec_hyp = [hyp[hi] for op, _, hi in ops if hi is not None]
        assert rec_ref == ref
        assert rec_hyp == hyp

    @pytest.mark.parametrize("ref, hyp", [([], []), ([], ["a", "b"]), (["a", "b", "c"], [])],
                             ids=["both-empty", "empty-ref", "empty-hyp"])
    def test_edit_distance_empty_sides(self, ref, hyp):
        assert edit_distance(ref, hyp) == align_errors(ref, hyp) == max(len(ref), len(hyp))

    def test_edit_distance_equals_alignment_errors(self):
        # short words from a small alphabet, so that shared prefixes and
        # suffixes, repeats and every edit kind are common
        rnd = random.Random(2)
        for _ in range(3000):
            ref = [rnd.choice("abcd") for _ in range(rnd.randint(0, 9))]
            hyp = [rnd.choice("abcd") for _ in range(rnd.randint(0, 9))]
            assert edit_distance(ref, hyp) == align_errors(ref, hyp), (ref, hyp)

