import itertools
import logging
import math

import numpy as np
import pytest

from conceptkit.rerank import (
    DrbmConfig,
    DrbmParams,
    EntityPrior,
    Hypothesis,
    NBestList,
    asr_scores,
    build_nbest_vocab,
    corpus_wer,
    evaluate_wers,
    free_energy,
    fused_scorer,
    load_drbm,
    load_keywords,
    load_nbest,
    phi_unigram,
    picked_wer,
    pretrain_generative,
    prior_activation,
    rerank_index,
    save_drbm,
    save_keywords,
    save_nbest,
    score_rbm,
    slp_score,
    tfidf_keywords,
    train_drbm,
    train_slp,
)
from conceptkit.metrics import align
from conceptkit.metrics import corpus_wer as metrics_corpus_wer
from conceptkit.metrics import weighted_wer
from conceptkit.numerics import fd_gradcheck, make_rng, substream_rng


def align_errors(ref, hyp):
    """The non-match ops of ``align(ref, hyp)``."""
    return sum(op != "match" for op, _, _ in align(ref, hyp))


def vocab_of(words):
    data = [NBestList("v", list(words), [Hypothesis(list(words), 0.0)])]
    return build_nbest_vocab(data)


def dense_phi(hyp, vocab):
    cols, phi = phi_unigram([hyp], vocab)
    out = np.zeros(len(vocab))
    out[cols] = phi[0]
    return out


def brute_force_free_energy(hyp, params, vocab):
    """-ln sum over all 2^d hidden configurations of exp(-E(t, h))."""
    phi = dense_phi(hyp, vocab)
    d = params.c.shape[0]
    total = 0.0
    for bits in itertools.product([0.0, 1.0], repeat=d):
        h = np.array(bits)
        neg_e = (
            params.w0 * hyp.asr_logp
            + params.b @ phi
            + params.c @ h
            + phi @ params.W @ h
        )
        total += math.exp(neg_e)
    return -math.log(total)


class TestPhi:
    def test_counts(self):
        vocab = vocab_of(["a", "b"])
        dense = dense_phi(Hypothesis(["a", "b", "a"], 0.0), vocab)
        assert dense[vocab.id_of("a")] == 2
        assert dense[vocab.id_of("b")] == 1

    def test_empty(self):
        vocab = vocab_of(["a"])
        cols, phi = phi_unigram([Hypothesis([], 0.0)], vocab)
        assert len(cols) == 0

    def test_all_oov(self):
        vocab = vocab_of(["a"])
        phi = dense_phi(Hypothesis(["x", "y", "z"], 0.0), vocab)
        assert phi[0] == 3  # <unk> is id 0


class TestFreeEnergy:
    def test_zero_params(self):
        vocab = vocab_of(["a", "b"])
        d = 6
        params = DrbmParams.zeros(len(vocab), d, w0=1.0)
        hyp = Hypothesis(["a"], -2.5)
        assert abs(free_energy([hyp], params, vocab)[0] - (2.5 - d * math.log(2))) < 1e-12

    def test_single_unit_formula(self):
        # phi=[1], W=[[1]], b=[0], c=[0], w0=0 -> F = -ln(1 + e)
        vocab = vocab_of([])  # vocabulary is just <unk>
        params = DrbmParams(W=np.array([[1.0]]), b=np.zeros(1), c=np.zeros(1), w0=0.0)
        hyp = Hypothesis(["anything"], -7.0)
        assert abs(free_energy([hyp], params, vocab)[0] + math.log(1 + math.e)) < 1e-12

    @pytest.mark.parametrize("d", [1, 4, 8, 12])
    def test_matches_enumeration(self, d):
        rng = make_rng(d)
        vocab = vocab_of(["a", "b", "c"])
        n = len(vocab)
        params = DrbmParams(
            W=rng.normal(scale=0.5, size=(n, d)),
            b=rng.normal(size=n),
            c=rng.normal(size=d),
            w0=float(rng.normal()),
        )
        hyp = Hypothesis(["a", "c", "a"], float(rng.normal()))
        assert abs(
            free_energy([hyp], params, vocab)[0] - brute_force_free_energy(hyp, params, vocab)
        ) < 1e-9

    def test_score_is_negated(self):
        rng = make_rng(0)
        vocab = vocab_of(["a"])
        params = DrbmParams(
            W=rng.normal(size=(2, 3)), b=rng.normal(size=2), c=rng.normal(size=3)
        )
        hyp = Hypothesis(["a"], -1.0)
        assert score_rbm([hyp], params, vocab)[0] == -free_energy([hyp], params, vocab)[0]

    def test_zero_params_rank_by_logp(self):
        vocab = vocab_of(["a", "b"])
        params = DrbmParams.zeros(len(vocab), 4)
        nb = NBestList(
            "u", ["a"], [Hypothesis(["b"], -3.0), Hypothesis(["a"], -1.0), Hypothesis(["b", "b"], -2.0)]
        )
        by_rbm = rerank_index(nb, lambda hyps: score_rbm(hyps, params, vocab))
        assert by_rbm == rerank_index(nb, asr_scores)

    def test_bias_linearity(self):
        vocab = vocab_of(["a", "b"])
        params = DrbmParams.zeros(len(vocab), 2)
        hyp = Hypothesis(["a", "a", "b"], -1.0)
        s0 = score_rbm([hyp], params, vocab)[0]
        params.b[vocab.id_of("a")] += 0.7
        assert abs(score_rbm([hyp], params, vocab)[0] - (s0 + 2 * 0.7)) < 1e-12


def make_lists(rng, n_utts=40, n_best=6, fillers=8):
    """Oracle hypotheses keep the gazetteer word; competitors swap in a
    distractor and carry a higher ASR posterior."""
    gaz = ["london", "acme", "alice"]
    lists = []
    for u in range(n_utts):
        ref = [f"f{rng.integers(fillers)}" for _ in range(4)]
        g = gaz[int(rng.integers(len(gaz)))]
        ref.insert(int(rng.integers(len(ref) + 1)), g)
        hyps = []
        for j in range(n_best):
            if j == n_best - 1:
                hyps.append(Hypothesis(list(ref), -5.0))  # oracle, low posterior
            else:
                bad = list(ref)
                bad[bad.index(g)] = "noise"
                hyps.append(Hypothesis(bad, -1.0 - 0.1 * j))
        lists.append(NBestList(f"utt{u}", ref, hyps))
    return lists


class TestTrainDrbm:
    def test_no_update_when_margin_met(self):
        vocab = vocab_of(["a", "b"])
        params = DrbmParams.zeros(len(vocab), 2)
        # oracle's asr_logp lead exceeds the margin: T- is empty everywhere
        nb = NBestList("u", ["a"], [Hypothesis(["a"], 0.0), Hypothesis(["b"], -10.0)])
        out = train_drbm([nb], params, vocab, DrbmConfig(epochs=3, seed=1))
        np.testing.assert_array_equal(out.W, params.W)
        np.testing.assert_array_equal(out.b, params.b)
        np.testing.assert_array_equal(out.c, params.c)

    # the oracle (["a", "b"]) against one loser, or against two losers, one
    # with an OOV word and one empty, with the oracle in the middle
    # unigram count features: "c" and "zz" occur twice in a hypothesis
    @pytest.mark.parametrize("hyps", [
        [(["a", "b"], -2.0), (["c", "c"], -1.0)],
        [(["c", "zz", "zz"], -1.0), (["a", "b"], -2.0), ([], -1.5)],
    ], ids=["pair-counts", "list-counts"])
    def test_hinge_gradient_matches_fd(self, hyps):
        rng = make_rng(7)
        vocab = vocab_of(["a", "b", "c"])
        n, d = len(vocab), 4
        nb = NBestList("u", ["a", "b"], [Hypothesis(w, lp) for w, lp in hyps])
        best = nb.oracle_index()
        W0 = rng.normal(scale=0.3, size=(n, d))
        b0 = rng.normal(scale=0.3, size=n)
        c0 = rng.normal(scale=0.3, size=d)

        def loss(params_list):
            W, b, c = params_list
            p = DrbmParams(W=W, b=b, c=c, w0=1.0)
            f = free_energy(nb.hyps, p, vocab)
            # hinge 1 + F(best) - F(bad) per loser; margins active at this point
            return sum(1.0 + f[best] - f[j] for j in range(len(f)) if j != best)

        p0 = DrbmParams(W=W0.copy(), b=b0.copy(), c=c0.copy(), w0=1.0)
        s = score_rbm(nb.hyps, p0, vocab)
        assert all(1.0 + s[j] - s[best] > 0.1 for j in range(len(s)) if j != best)
        # one step of size 1 on the single list moves the parameters by
        # minus the analytic gradient
        out = train_drbm([nb], p0, vocab, DrbmConfig(epochs=1, lr=1.0))
        err = fd_gradcheck(
            loss, [W0.copy(), b0.copy(), c0.copy()], [W0 - out.W, b0 - out.b, c0 - out.c]
        )
        assert err < 1e-5

    def test_synthetic_wer_improves(self):
        rng = make_rng(11)
        lists = make_lists(rng)
        vocab = build_nbest_vocab(lists)
        params = DrbmParams.zeros(len(vocab), 8)
        trained = train_drbm(
            lists, params, vocab, DrbmConfig(epochs=5, lr=0.05, seed=3)
        )
        base = corpus_wer(lists, asr_scores)
        new = corpus_wer(lists, lambda hyps: score_rbm(hyps, trained, vocab))
        assert new < base

    def test_deterministic(self):
        rng = make_rng(12)
        lists = make_lists(rng, n_utts=10)
        vocab = build_nbest_vocab(lists)
        cfg = DrbmConfig(epochs=2, seed=5)
        a = train_drbm(lists, DrbmParams.zeros(len(vocab), 4), vocab, cfg)
        b = train_drbm(lists, DrbmParams.zeros(len(vocab), 4), vocab, cfg)
        np.testing.assert_array_equal(a.W, b.W)


class TestPrior:
    def test_zero_params_half(self):
        params = DrbmParams.zeros(3, 4)
        prior = EntityPrior(pairs=[(1, 0)])
        assert prior_activation(params, 1, 0) == 0.5

    def test_direct_value(self):
        params = DrbmParams.zeros(3, 4)
        params.c[1] = 2.0
        prior = EntityPrior(pairs=[(0, 1)])
        expect = 1.0 / (1.0 + math.exp(-2.0))
        assert abs(prior_activation(params, 0, 1) - expect) < 1e-12

    def test_reserved_index_enforced(self):
        with pytest.raises(ValueError):
            EntityPrior(pairs=[(0, 7)])

    def test_training_raises_activation(self):
        rng = make_rng(13)
        lists = make_lists(rng, n_utts=20)
        vocab = build_nbest_vocab(lists)
        gaz = {"london": "LOCATION", "acme": "ORGANIZATION", "alice": "PERSON"}
        prior = EntityPrior.from_gazetteer(gaz, vocab, lam=0.05)
        params = DrbmParams.zeros(len(vocab), 8)
        before = np.mean([prior_activation(params, w, e) for w, e in prior.pairs])
        trained = train_drbm(
            lists, params, vocab, DrbmConfig(epochs=3, lr=0.05, seed=4), prior=prior
        )
        after = np.mean([prior_activation(trained, w, e) for w, e in prior.pairs])
        assert after > before

    def test_from_gazetteer_pairs(self):
        vocab = vocab_of(["paris", "acme", "zed"])
        gaz = {"zed": "PERSON", "acme": "ORGANIZATION", "paris": "LOCATION", "oslo": "LOCATION"}
        prior = EntityPrior.from_gazetteer(gaz, vocab, lam=0.3)
        # in word order, each class on its reserved unit; oslo is not in the vocabulary
        ids = [vocab.id_of(w) for w in ("acme", "paris", "zed")]
        assert prior.pairs == list(zip(ids, [1, 0, 2])) and prior.lam == 0.3
        with pytest.raises(ValueError, match="no gazetteer word"):
            EntityPrior.from_gazetteer({"oslo": "LOCATION"}, vocab, lam=0.3)


class TestPretrain:
    def test_zero_epochs_unchanged(self):
        vocab = vocab_of(["a", "b"])
        cfg = DrbmConfig(hidden=3, pretrain_epochs=0, seed=2)
        W1, b1, c1 = pretrain_generative([["a"]], vocab, cfg)
        W2, b2, c2 = pretrain_generative([["a"]], vocab, cfg)
        np.testing.assert_array_equal(W1, W2)
        assert not b1.any() and not c1.any()

    def test_reproducible(self):
        vocab = vocab_of(["a", "b", "c"])
        sents = [["a", "b"], ["c"], ["a", "c"]]
        cfg = DrbmConfig(hidden=4, pretrain_epochs=3, seed=9)
        W1, _, _ = pretrain_generative(sents, vocab, cfg)
        W2, _, _ = pretrain_generative(sents, vocab, cfg)
        np.testing.assert_array_equal(W1, W2)

    def test_xent_non_increasing(self, caplog):
        vocab = vocab_of(["a", "b", "c", "d"])
        sents = [["a", "b"], ["c", "d"]] * 4
        caplog.set_level(logging.INFO, logger="conceptkit.rerank")
        pretrain_generative(sents, vocab, DrbmConfig(hidden=4, pretrain_epochs=3, seed=1))
        records = [r for r in caplog.records if r.name == "conceptkit.rerank"]
        assert [r.args[0] for r in records] == [0, 1, 2]
        hist = [r.args[1] for r in records]
        assert hist[1] <= hist[0] and hist[2] <= hist[1]

    def test_disjoint_sentences_separate(self):
        vocab = vocab_of(["a", "b", "x", "y"])
        sents = ([["a", "b"]] * 20 + [["x", "y"]] * 20)
        cfg = DrbmConfig(hidden=2, pretrain_epochs=30, pretrain_lr=0.1, seed=6)
        W, b, c = pretrain_generative(sents, vocab, cfg)
        from conceptkit.numerics import sigmoid

        def hidden(words):
            v = np.zeros(len(vocab))
            for w in words:
                v[vocab.id_of(w)] = 1.0
            return sigmoid(c + W.T @ v)

        gap = np.abs(hidden(["a", "b"]) - hidden(["x", "y"]))
        assert gap.max() > 0.2


def edited_lists(rng, n_utts=12, n_best=8, words=6):
    """Hypotheses are the reference under 0-3 random substitutions,
    deletions and insertions, so that WERs within a list vary and tie."""
    lists = []
    for u in range(n_utts):
        ref = [f"w{rng.integers(words)}" for _ in range(int(rng.integers(2, 7)))]
        hyps = []
        for _ in range(n_best):
            h = list(ref)
            for _ in range(int(rng.integers(4))):
                k, op = int(rng.integers(len(h) + 1)), int(rng.integers(3))
                if op == 0 and k < len(h):
                    h[k] = f"w{rng.integers(words + 2)}"
                elif op == 1 and k < len(h):
                    del h[k]
                else:
                    h.insert(k, f"w{rng.integers(words + 2)}")
            hyps.append(Hypothesis(h, float(rng.normal())))
        lists.append(NBestList(f"utt{u}", ref, hyps))
    return lists


def scalar_draw_slp(data, vocab, config):
    """The sampled-pair perceptron with two scalar draws per pair and the
    weights updated in place, pair by pair."""
    weights = np.zeros(len(vocab))
    rng = substream_rng(config.seed, "rerank.slp")
    for _ in range(config.slp_iterations):
        for nb in data:
            if len(nb.hyps) < 2:
                continue
            cols, phi = phi_unigram(nb.hyps, vocab)
            logp = asr_scores(nb.hyps)
            errs = [align_errors(nb.reference, h.words) for h in nb.hyps]
            for _ in range(config.slp_pairs):
                i, j = rng.integers(len(nb.hyps)), rng.integers(len(nb.hyps))
                if errs[i] == errs[j]:
                    continue
                good, bad = (i, j) if errs[i] < errs[j] else (j, i)
                w = weights[cols]
                if logp[good] + phi[good] @ w <= logp[bad] + phi[bad] @ w:
                    weights[cols] += config.slp_lr * phi[good]
                    weights[cols] -= config.slp_lr * phi[bad]
    return weights


class TestSlp:
    @pytest.mark.parametrize("lr", [1.0, 0.3])
    def test_matches_scalar_draw_reference(self, lr):
        lists = edited_lists(make_rng(21))
        vocab = build_nbest_vocab(lists)
        cfg = DrbmConfig(slp_pairs=40, slp_iterations=6, slp_lr=lr, seed=4)
        weights = train_slp(lists, vocab, cfg)
        assert weights.any()
        assert np.array_equal(weights, scalar_draw_slp(lists, vocab, cfg))

    def test_single_hypothesis_list_draws_nothing(self, caplog):
        # the 1-hypothesis list sits between others: had it consumed draws,
        # every later list would see different pairs
        lists = edited_lists(make_rng(22), n_utts=6)
        lone = NBestList("lone", lists[0].reference, lists[0].hyps[:1])
        lists = lists[:3] + [lone] + lists[3:]
        vocab = build_nbest_vocab(lists)
        cfg = DrbmConfig(slp_pairs=25, slp_iterations=4, slp_lr=0.3, seed=5)
        with caplog.at_level("WARNING"):
            weights = train_slp(lists, vocab, cfg)
        assert np.array_equal(weights, scalar_draw_slp(lists, vocab, cfg))
        warned = [r for r in caplog.records if "pair sampling" in r.message]
        assert len(warned) == 1 and "lone" in warned[0].getMessage()

    def test_several_updates_in_one_list_visit(self):
        # the wrong hypothesis outscores the right one by 1.0, and each update
        # narrows that by 2 * 0.1: one visit updates until the order flips,
        # which only scores taken afresh after every update can see
        vocab = vocab_of(["a", "b", "c"])
        nb = NBestList("u", ["a"], [
            Hypothesis(["b"], 0.0), Hypothesis(["a"], -1.0), Hypothesis(["c", "b"], -3.0),
        ])
        cfg = DrbmConfig(slp_pairs=60, slp_iterations=1, slp_lr=0.1, seed=6)
        weights = train_slp([nb], vocab, cfg)
        assert np.array_equal(weights, scalar_draw_slp([nb], vocab, cfg))
        assert 2 <= round(weights[vocab.id_of("a")] / 0.1) < 10

    def test_single_word_update(self):
        vocab = vocab_of(["good", "bad"])
        nb = NBestList(
            "u", ["good"], [Hypothesis(["good"], -1.0), Hypothesis(["bad"], -1.0)]
        )
        cfg = DrbmConfig(slp_pairs=50, slp_iterations=1, slp_lr=1.0, seed=1)
        weights = train_slp([nb], vocab, cfg)
        assert weights[vocab.id_of("good")] > 0
        assert weights[vocab.id_of("bad")] < 0

    def test_equal_wer_no_update(self):
        vocab = vocab_of(["a", "b"])
        nb = NBestList("u", ["a"], [Hypothesis(["b"], -1.0), Hypothesis(["b"], -2.0)])
        weights = train_slp([nb], vocab, DrbmConfig(slp_pairs=100, slp_iterations=5, seed=2))
        assert not weights.any()

    def test_separable_ordering(self):
        rng = make_rng(14)
        lists = make_lists(rng, n_utts=15)
        vocab = build_nbest_vocab(lists)
        weights = train_slp(lists, vocab, DrbmConfig(slp_pairs=30, slp_iterations=10, seed=3))
        from conceptkit.metrics import wer as wer_fn

        for nb in lists:
            wers = [wer_fn(nb.reference, h.words) for h in nb.hyps]
            scored = list(zip(slp_score(nb.hyps, weights, vocab), wers))
            best = max(scored, key=lambda t: t[0])
            assert best[1] == min(w for _, w in scored)

    def test_single_hypothesis_warns(self, caplog):
        vocab = vocab_of(["a"])
        nb = NBestList("u", ["a"], [Hypothesis(["a"], 0.0)])
        with caplog.at_level("WARNING"):
            train_slp([nb], vocab, DrbmConfig(slp_pairs=5, slp_iterations=3))
        assert sum("pair sampling" in r.message for r in caplog.records) == 1


class TestFuseAndRerank:
    def test_fused_scorer_matches_separate_scores(self):
        rng = make_rng(21)
        lists = make_lists(rng, n_utts=5)
        vocab = build_nbest_vocab(lists)
        params = DrbmParams(W=rng.normal(size=(len(vocab), 3)), b=rng.normal(size=len(vocab)),
                            c=rng.normal(size=3))
        slp = rng.normal(size=len(vocab))
        rbm_alone = fused_scorer(params, None, vocab, None)
        fused = fused_scorer(params, slp, vocab, 0.5)
        for nb in lists:
            s_rbm = score_rbm(nb.hyps, params, vocab)
            np.testing.assert_array_equal(rbm_alone(nb.hyps), s_rbm)
            s_slp = slp_score(nb.hyps, slp, vocab)
            np.testing.assert_array_equal(fused(nb.hyps), s_rbm + 0.5 * s_slp)

    def test_tie_lowest_index(self):
        nb = NBestList("u", ["a"], [Hypothesis(["x"], 0.0), Hypothesis(["y"], 0.0)])
        assert rerank_index(nb, lambda hyps: [1.0] * len(hyps)) == 0

    def test_singleton(self):
        nb = NBestList("u", ["a"], [Hypothesis(["x"], -1.0)])
        assert rerank_index(nb, asr_scores) == 0

    def test_logp_shift_invariance(self):
        nb = NBestList(
            "u", ["a"], [Hypothesis(["a"], -3.0), Hypothesis(["b"], -1.0)]
        )
        shifted = NBestList(
            "u", ["a"], [Hypothesis(["a"], -3.0 + 5.0), Hypothesis(["b"], -1.0 + 5.0)]
        )
        assert rerank_index(nb, asr_scores) == rerank_index(shifted, asr_scores)

    def test_oracle_sandwich(self):
        rng = make_rng(15)
        lists = make_lists(rng, n_utts=10)
        errs = sum(align_errors(nb.reference, nb.hyps[nb.oracle_index()].words) for nb in lists)
        refw = sum(len(nb.reference) for nb in lists)
        oracle_wer = errs / refw
        any_wer = corpus_wer(lists, asr_scores)
        assert oracle_wer <= any_wer


class TestNBestErrors:
    def test_errors_computed_once(self, monkeypatch):
        import conceptkit.rerank as rerank_mod

        calls = []
        real = rerank_mod.edit_distance
        monkeypatch.setattr(rerank_mod, "edit_distance",
                            lambda ref, hyp: calls.append(1) or real(ref, hyp))
        nb = edited_lists(make_rng(23), n_utts=1)[0]
        first = nb.oracle_index()
        assert nb.oracle_index() == first
        assert nb.errors == tuple(align_errors(nb.reference, h.words) for h in nb.hyps)
        assert len(calls) == len(nb.hyps)

    def test_oracle_ties_go_to_lowest_index(self):
        nb = NBestList("u", ["a", "b"], [
            Hypothesis(["a"], 0.0), Hypothesis(["a", "b", "c"], 0.0),
            Hypothesis(["x", "b"], 0.0), Hypothesis(["a", "b"], 0.0),
            Hypothesis(["a", "b"], 0.0),
        ])
        assert nb.errors == (1, 1, 1, 0, 0)
        assert nb.oracle_index() == 3

    def test_picked_wer_equals_metrics_corpus_wer(self):
        lists = edited_lists(make_rng(24))
        picks = [int(k) for k in make_rng(25).integers(8, size=len(lists))]
        pairs = [(nb.reference, nb.hyps[k].words) for nb, k in zip(lists, picks)]
        assert picked_wer(lists, picks) == metrics_corpus_wer(pairs)

    def test_evaluate_wers_of_a_stream_equals_whole_list_wers(self):
        lists = edited_lists(make_rng(27))
        scorer = lambda hyps: np.array([-len(h.words) for h in hyps])  # noqa: E731
        keywords = {"w0": 1.0, "w3": 0.5, "w7": 2.0}
        picks = [rerank_index(nb, scorer) for nb in lists]
        got = evaluate_wers(iter(lists), scorer, keywords)
        assert got == {
            "wer": corpus_wer(lists, scorer),
            "asr_wer": corpus_wer(lists, asr_scores),
            "oracle_wer": picked_wer(lists, [nb.oracle_index() for nb in lists]),
            "weighted_wer": weighted_wer(
                [(nb.reference, nb.hyps[k].words) for nb, k in zip(lists, picks)], keywords),
        }
        assert evaluate_wers(iter(lists), scorer) == {
            k: v for k, v in got.items() if k != "weighted_wer"}

    def test_shared_features_score_the_same(self):
        lists = edited_lists(make_rng(26), n_utts=3)
        vocab = vocab_of(["w0", "w1", "w2"])  # the other words fold into <unk>
        rng = make_rng(27)
        params = DrbmParams(W=rng.normal(size=(len(vocab), 5)), b=rng.normal(size=len(vocab)),
                            c=rng.normal(size=5))
        weights = rng.normal(size=len(vocab))
        for nb in lists:
            feats = phi_unigram(nb.hyps, vocab)
            assert np.array_equal(score_rbm(nb.hyps, params, vocab, feats=feats),
                                  score_rbm(nb.hyps, params, vocab))
            assert np.array_equal(slp_score(nb.hyps, weights, vocab, feats=feats),
                                  slp_score(nb.hyps, weights, vocab))


class TestTfidf:
    def test_everywhere_word_excluded(self):
        docs = [["the", "a"], ["the", "b"], ["the", "c"]]
        assert "the" not in tfidf_keywords(docs, threshold=0.1)

    def test_rare_heavy_word_included(self):
        docs = [["kw"] * 40] + [["x"]] * 19
        kws = tfidf_keywords(docs, threshold=3.0)
        assert kws["kw"] == 1.0
        score = 40 * math.log(20)
        assert abs(score - 119.829) < 1e-2

    def test_infinite_threshold_empty(self):
        assert tfidf_keywords([["a", "b"]], threshold=math.inf) == {}

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            tfidf_keywords([])


class TestPersistence:
    def test_nbest_round_trip(self, tmp_path):
        lists = [
            NBestList(
                "u1", ["a", "b"], [Hypothesis(["a"], -1.5), Hypothesis([], -2.0)]
            )
        ]
        p = tmp_path / "nbest.jsonl"
        save_nbest(lists, p)
        back = load_nbest(p)
        assert back[0].utt_id == "u1"
        assert back[0].hyps[0].words == ["a"]
        assert back[0].hyps[0].asr_logp == -1.5

    def test_keywords_round_trip(self, tmp_path):
        p = tmp_path / "kw.tsv"
        save_keywords({"b": 1.0, "a": 0.5}, p)
        assert load_keywords(p) == {"a": 0.5, "b": 1.0}

    def test_drbm_round_trip(self, tmp_path):
        rng = make_rng(16)
        params = DrbmParams(
            W=rng.normal(size=(3, 2)), b=rng.normal(size=3), c=rng.normal(size=2),
            w0=0.75,
        )
        p = tmp_path / "model.txt"
        save_drbm(params, p)
        back = load_drbm(p)
        np.testing.assert_array_equal(back.W, params.W)
        np.testing.assert_array_equal(back.b, params.b)
        np.testing.assert_array_equal(back.c, params.c)
        assert back.w0 == params.w0

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "model.txt"
        p.write_text("wrong 1 2\n")
        with pytest.raises(ValueError):
            load_drbm(p)
