import logging
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conceptkit import sentic as sentic_mod
from conceptkit.metrics import LabelSetPrediction, macro_f1, micro_f1, strict_accuracy
from conceptkit.numerics import NumericFailure, fd_gradcheck, make_rng, sigmoid, substream_rng
from conceptkit.sentic import (
    NONE_CLASS,
    SenticConfig,
    SenticParams,
    TsaInstance,
    encode_bilstm,
    forward,
    load_checkpoint,
    load_tsa,
    loss_and_grads,
    lstm_step,
    predict_and_evaluate,
    save_checkpoint,
    save_tsa,
    sentence_attention,
    sentic_step,
    target_attention,
    train,
)

CFG = SenticConfig(d_w=3, d_h=2, d_m=2, d_c=2, aspects=("price", "service"))


def tiny_params(seed=0, config=CFG, tokens=("a", "b", "c", "cue"), concepts=("k1", "k2")):
    rng = make_rng(seed)
    return SenticParams.init(config, list(tokens), list(concepts), rng)


def manual_sentic_step(x, h_prev, c_prev, mu, arrays, dirn):
    """Straight-line numpy transcription of the recurrence."""
    joint = np.concatenate([x, h_prev, mu])
    f = sigmoid(arrays[f"Wf:{dirn}"] @ joint + arrays[f"bf:{dirn}"])
    i = sigmoid(arrays[f"Wi:{dirn}"] @ joint + arrays[f"bi:{dirn}"])
    o = sigmoid(arrays[f"Wo:{dirn}"] @ joint + arrays[f"bo:{dirn}"])
    oc = sigmoid(arrays[f"Wco:{dirn}"] @ joint + arrays[f"bco:{dirn}"])
    c_tilde = np.tanh(arrays[f"WC:{dirn}"] @ joint + arrays[f"bC:{dirn}"])
    c = f * c_prev + i * c_tilde
    h = o * np.tanh(c) + oc * np.tanh(arrays[f"Wc:{dirn}"] @ mu)
    return h, c


class TestAverageConcepts:
    """A token's concept input as the encoder reads it: the mean of its known
    concept rows, the first ``max_concepts`` of them, and zero for none."""

    def assert_concept_input(self, concept_ids, mu):
        params = tiny_params(seed=8, concepts=("k1", "k2", "k3", "k4", "k5"))
        params.arrays["Ec"][:] = [[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [4.0, 0.0], [0.0, 8.0]]
        inst = make_instance(["a"], [0], {}, [concept_ids])
        # one token: its forward column is one step from the zero state
        fwd = encode_bilstm(inst, params)[0][: CFG.d_h]
        zero = np.zeros(CFG.d_h)
        want, _ = manual_sentic_step(
            params.arrays["E"][0], zero, zero, np.array(mu), params.arrays, "f"
        )
        np.testing.assert_allclose(fwd, want, atol=1e-12)

    def test_mean(self):
        self.assert_concept_input(["k1", "unknown", "k2"], [0.5, 0.5])

    def test_empty_is_zero(self):
        self.assert_concept_input([], [0.0, 0.0])
        self.assert_concept_input(["unknown"], [0.0, 0.0])

    def test_single(self):
        self.assert_concept_input(["k3"], [2.0, 2.0])

    def test_limit(self):
        # CFG.max_concepts is 4: k5 is past the limit and left out
        ids = ["unknown", "k1", "k2", "k3", "k4", "k5"]
        self.assert_concept_input(ids, [7 / 4, 3 / 4])


class TestSteps:
    def test_zero_everything(self):
        params = tiny_params()
        p = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        h0 = np.zeros(CFG.d_h)
        h, c = lstm_step(np.zeros(CFG.d_w), h0, h0, p, "f", CFG.d_c)
        assert not h.any() and not c.any()

    def test_memory_carry(self):
        params = tiny_params()
        arrays = {k: np.zeros_like(v) for k, v in params.arrays.items()}
        arrays["bf:f"][:] = 50.0  # forget gate saturated open
        arrays["bi:f"][:] = -50.0  # input gate saturated shut
        c_prev = np.array([0.7, -0.3])
        _, c = lstm_step(
            np.zeros(CFG.d_w), np.zeros(CFG.d_h), c_prev, arrays, "f", CFG.d_c
        )
        np.testing.assert_allclose(c, c_prev, atol=1e-12)

    def test_three_step_oracle(self):
        rng = make_rng(4)
        params = tiny_params(seed=4)
        xs = [rng.normal(size=CFG.d_w) for _ in range(3)]
        mus = [rng.normal(size=CFG.d_c) for _ in range(3)]
        h = c = hv = cv = np.zeros(CFG.d_h)
        for x, mu in zip(xs, mus):
            hv, cv = sentic_step(x, hv, cv, mu, params.arrays, "f")
            h, c = manual_sentic_step(x, h, c, mu, params.arrays, "f")
        np.testing.assert_allclose(hv, h, atol=1e-12)
        np.testing.assert_allclose(cv, c, atol=1e-12)

    def test_zero_concept_reduction(self):
        rng = make_rng(5)
        params = tiny_params(seed=5)
        p = params.arrays
        x = rng.normal(size=CFG.d_w)
        h_prev = rng.normal(size=CFG.d_h)
        c_prev = rng.normal(size=CFG.d_h)
        mu0 = np.zeros(CFG.d_c)
        h1, c1 = sentic_step(x, h_prev, c_prev, mu0, p, "f")
        h2, c2 = lstm_step(x, h_prev, c_prev, p, "f", CFG.d_c)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(c1, c2)

    def test_zero_wc_kills_knowledge(self):
        rng = make_rng(6)
        params = tiny_params(seed=6)
        params.arrays["Wc:f"][:] = 0.0
        p = params.arrays
        x = rng.normal(size=CFG.d_w)
        h_prev = rng.normal(size=CFG.d_h)
        c_prev = rng.normal(size=CFG.d_h)
        mu_a = rng.normal(size=CFG.d_c)
        mu_b = rng.normal(size=CFG.d_c)
        # same joint inputs except mu also feeds the gates, so fix mu there
        h1, _ = sentic_step(x, h_prev, c_prev, mu_a, p, "f")
        h2, _ = sentic_step(x, h_prev, c_prev, mu_a, p, "f")
        np.testing.assert_array_equal(h1, h2)
        # knowledge term itself vanishes: h equals o*tanh(C) exactly
        h3, _ = sentic_step(x, h_prev, c_prev, mu_b, p, "f")
        manual_h, _ = manual_sentic_step(
            x, h_prev, c_prev, mu_b, params.arrays, "f"
        )
        np.testing.assert_allclose(h3, manual_h, atol=1e-12)

    def test_wco_gradient_fd(self):
        rng = make_rng(7)
        params = tiny_params(seed=7)
        # one token whose word row and (single) concept row are the step's x and mu
        params.arrays["E"][0] = rng.normal(size=CFG.d_w)
        params.arrays["Ec"][0] = rng.normal(size=CFG.d_c)
        inst = make_instance(["a"], [0], {"price": "positive"}, [["k1"]])
        W0 = params.arrays["Wco:f"].copy()

        def loss(ps):
            params.arrays["Wco:f"] = ps[0]
            return loss_and_grads(inst, params)[0]

        params.arrays["Wco:f"] = W0
        _, grads = loss_and_grads(inst, params)
        g = grads["Wco:f"]
        assert fd_gradcheck(loss, [W0.copy()], [g]) < 1e-4
        params.arrays["Wco:f"] = W0


def make_instance(tokens, positions, aspects, concepts=None):
    return TsaInstance(
        tokens=list(tokens),
        target_positions=list(positions),
        aspects=dict(aspects),
        concepts=concepts or [[] for _ in tokens],
    )


class TestEncode:
    def test_single_token(self):
        params = tiny_params()
        inst = make_instance(["a"], [0], {})
        cols = encode_bilstm(inst, params)
        assert len(cols) == 1
        assert cols[0].shape == (2 * CFG.d_h,)

    def test_reversal_swaps_directions(self):
        params = tiny_params(seed=8)
        swapped = params.copy()
        for name in ("Wf", "Wi", "WC", "Wo", "Wco", "bf", "bi", "bC", "bo", "bco", "Wc"):
            swapped.arrays[f"{name}:f"], swapped.arrays[f"{name}:b"] = (
                params.arrays[f"{name}:b"].copy(),
                params.arrays[f"{name}:f"].copy(),
            )
        inst = make_instance(["a", "b", "c"], [1], {}, [["k1"], [], ["k2"]])
        rev = make_instance(["c", "b", "a"], [1], {}, [["k2"], [], ["k1"]])
        cols = encode_bilstm(inst, params)
        cols_rev = encode_bilstm(rev, swapped)
        d = CFG.d_h
        for i in range(3):
            fwd, bwd = cols[i][:d], cols[i][d:]
            fwd_r, bwd_r = cols_rev[2 - i][:d], cols_rev[2 - i][d:]
            np.testing.assert_allclose(fwd, bwd_r, atol=1e-12)
            np.testing.assert_allclose(bwd, fwd_r, atol=1e-12)


class TestAttention:
    def test_single_position(self):
        params = tiny_params()
        inst = make_instance(["a", "b"], [1], {})
        cols = encode_bilstm(inst, params)
        v_t, alpha, _ = target_attention(cols, [1], params.arrays)
        np.testing.assert_allclose(alpha, [1.0])
        np.testing.assert_allclose(v_t, cols[1])

    def test_zero_query_uniform(self):
        params = tiny_params(seed=9)
        params.arrays["Wa2"][:] = 0.0
        inst = make_instance(["a", "b", "c"], [0, 2], {})
        p = params.arrays
        cols = encode_bilstm(inst, params)
        _, alpha, _ = target_attention(cols, [0, 2], p)
        np.testing.assert_allclose(alpha, [0.5, 0.5])

    def test_identical_columns_uniform(self):
        params = tiny_params(seed=10)
        p = params.arrays
        col = make_rng(1).normal(size=2 * CFG.d_h)
        _, alpha, _ = target_attention([col, col, col], [0, 1, 2], p)
        np.testing.assert_allclose(alpha, np.full(3, 1 / 3), atol=1e-12)

    def test_uniform_flag_matches_averaging(self):
        params = tiny_params(seed=11)
        p = params.arrays
        cols = [make_rng(i).normal(size=2 * CFG.d_h) for i in range(3)]
        v_t, alpha, act = target_attention(cols, [0, 1, 2], p, uniform=True)
        np.testing.assert_allclose(alpha, np.full(3, 1 / 3))
        assert act is None
        expect = np.mean(cols, axis=0)
        np.testing.assert_allclose(v_t, expect, atol=1e-12)

    def test_sentence_attention_sums_to_one(self):
        params = tiny_params(seed=12)
        p = params.arrays
        inst = make_instance(["a", "b", "c"], [1], {})
        cols = encode_bilstm(inst, params)
        v_t, _, _ = target_attention(cols, [1], p)
        _, beta, _ = sentence_attention(cols, v_t, "price", p)
        assert abs(beta.sum() - 1.0) < 1e-9
        assert (beta >= 0).all()

    def test_sentence_attention_single_column(self):
        params = tiny_params(seed=13)
        p = params.arrays
        inst = make_instance(["a"], [0], {})
        cols = encode_bilstm(inst, params)
        v_t, _, _ = target_attention(cols, [0], p)
        _, beta, _ = sentence_attention(cols, v_t, "service", p)
        np.testing.assert_allclose(beta, [1.0])

    def test_unknown_aspect(self):
        params = tiny_params()
        col = np.zeros(2 * CFG.d_h)
        with pytest.raises(ValueError):
            sentence_attention([col], col, "nonesuch", params.arrays)

    def test_empty_target(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            target_attention([], [], params.arrays)


class TestForward:
    def test_probs_sum_to_one(self):
        params = tiny_params(seed=14)
        inst = make_instance(["a", "b", "c"], [1], {"price": "positive"}, [["k1"], [], []])
        out = forward(inst, params)
        for a in CFG.aspects:
            assert abs(out[a].sum() - 1.0) < 1e-9

    def test_zero_classifier_uniform(self):
        params = tiny_params(seed=15)
        params.arrays["Wp"][:] = 0.0
        for a in CFG.aspects:
            params.arrays[f"bp:{a}"][:] = 0.0
        inst = make_instance(["a", "b"], [0], {})
        out = forward(inst, params)
        for a in CFG.aspects:
            np.testing.assert_allclose(out[a], np.full(3, 1 / 3))

    def test_deterministic(self):
        params = tiny_params(seed=16)
        inst = make_instance(["a", "c"], [1], {"service": "negative"})
        o1 = forward(inst, params)
        o2 = forward(inst, params)
        for a in CFG.aspects:
            np.testing.assert_array_equal(o1[a], o2[a])


class TestGradients:
    @pytest.mark.parametrize(
        "case",
        ["base", "dropout", "oov", "many_concepts", "target_averaging", "four_class"],
    )
    def test_full_model_fd(self, case):
        config = replace(
            CFG,
            target_averaging=case == "target_averaging",
            four_class=case == "four_class",
        )
        params = tiny_params(seed=17, config=config)
        # evaluate at an O(1) random point: near zero the attention-query
        # gradients are suppressed by tanh linearity down to the fd noise
        # floor, which the relative-error metric then amplifies
        rng = make_rng(99)
        for k in params.arrays:
            params.arrays[k] = rng.normal(scale=0.8, size=params.arrays[k].shape)
        tokens = ["a", "cue", "b", "c"]
        aspects = {"price": "positive", "service": "negative"}
        concepts = [["k1"], ["k2"], [], ["k1", "k2"]]
        mask = None
        if case == "dropout":  # the same mask in the analytic and fd losses
            mask = (make_rng(98).random((4, CFG.d_w)) >= 0.5) / 0.5
        if case == "oov":
            tokens[2] = "unseen"
        if case == "many_concepts":  # five ids, only the first max_concepts count
            concepts[2] = ["k2", "k1", "k1", "k2", "k1"]
        if case == "four_class":
            aspects["service"] = "neutral"
        inst = make_instance(tokens, [1, 3], aspects, concepts)
        _, grads = loss_and_grads(inst, params, dropout_mask=mask)
        names = sorted(params.arrays)
        base = {k: params.arrays[k].copy() for k in names}

        def loss(ps):
            for k, arr in zip(names, ps):
                params.arrays[k] = arr
            out, _ = loss_and_grads(inst, params, dropout_mask=mask)
            return out

        err = fd_gradcheck(
            loss, [base[k].copy() for k in names], [grads[k] for k in names]
        )
        for k in names:
            params.arrays[k] = base[k]
        assert err < 1e-4

    def test_row_block_matches_full_table(self):
        # the word table read as a block of the sentence's rows, as training
        # reads it, gives the full table's loss and gradients bit for bit
        params = tiny_params(seed=21)
        inst = make_instance(["b", "cue", "unseen", "b"], [1, 3],
                             {"price": "positive"}, [["k1"], [], ["k2"], []])
        mask = (make_rng(22).random((4, CFG.d_w)) >= 0.5) / 0.5
        loss, grads = loss_and_grads(inst, params, dropout_mask=mask)
        rows = np.unique([params.token_index[t] for t in inst.tokens if t in params.token_index])
        block = params.row_block(rows, params.arrays["E"][rows])
        block_loss, block_grads = loss_and_grads(inst, block, dropout_mask=mask)
        assert block_loss == loss
        assert sorted(block_grads) == sorted(grads)
        for k in grads:
            if k != "E":
                assert np.array_equal(block_grads[k], grads[k]), k
        assert np.array_equal(block_grads["E"], grads["E"][rows])
        assert not np.any(np.delete(grads["E"], rows, axis=0))

    def test_grads_buffers_laid_out_by_flat(self):
        # the fresh gradient is laid out as train lays out its buffer, so the
        # gate blocks are written in place; a given buffer laid out the same
        # way gets the same bits, and one with the gate blocks apart is
        # refused. Parameters with the gate blocks apart (a copy, as a loaded
        # checkpoint has them) are read through a concatenated copy, with the
        # same bits.
        params = tiny_params(seed=23)
        inst = make_instance(["a", "cue", "b"], [1], {"price": "negative"},
                             [["k1"], [], ["k2", "k1"]])
        loss, grads = loss_and_grads(inst, params)
        apart_loss, apart_grads = loss_and_grads(inst, params.copy())
        assert apart_loss == loss
        for k in grads:
            assert np.array_equal(apart_grads[k], grads[k]), k
        for dirn in ("f", "b"):
            for ks in zip(*sentic_mod._GATES):
                parts = [grads[f"{k}:{dirn}"] for k in ks]
                assert np.shares_memory(sentic_mod._stacked(parts), parts[0])
        _, laid_out = sentic_mod._flat({k: a.shape for k, a in params.arrays.items()})
        assert loss_and_grads(inst, params, grads=laid_out) == (loss, laid_out)
        for k in grads:
            assert np.array_equal(laid_out[k], grads[k]), k
        separate = {k: np.zeros_like(a) for k, a in params.arrays.items()}
        with pytest.raises(ValueError):
            loss_and_grads(inst, params, grads=separate)
        parts = [separate["Wf:f"], separate["Wi:f"]]
        assert not np.shares_memory(sentic_mod._stacked(parts), parts[0])
        with pytest.raises(ValueError):
            sentic_mod._stacked(parts, copy=False)

    def test_step_makes_no_copy_of_the_gate_weights(self):
        # one loss_and_grads call made the way train makes it, at paper dims:
        # parameters and gradient laid out by _flat, E read as a row block.
        # One direction's stacked gate matrix is 5 x 50 x 300 doubles (600 KB);
        # concatenating it in _recur, or allocating its gradient in
        # _recur_back, takes the call's traced peak over that (2.1 MB measured
        # with both)
        config = SenticConfig(d_w=150, d_h=50, aspects=("price", "service"))
        tokens = [f"w{i}" for i in range(12)]
        params = SenticParams.init(config, tokens, ["k1", "k2"], make_rng(40))
        _, grads = sentic_mod._flat({k: a.shape for k, a in params.arrays.items() if k != "E"})
        rows = np.arange(len(tokens))
        block = params.row_block(rows, params.arrays["E"][rows])
        grads["E"] = np.zeros_like(block.arrays["E"])
        inst = make_instance(tokens, [3, 4], {"price": "positive"},
                             [["k1"], [], ["k2", "k1"]] + [[]] * 9)
        mask = (make_rng(41).random((len(tokens), config.d_w)) >= 0.5) / 0.5
        tracemalloc.start()
        try:
            loss, _ = loss_and_grads(inst, block, dropout_mask=mask, grads=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 50 * 300 * 8
        want_loss, want = loss_and_grads(inst, block, dropout_mask=mask)
        assert loss == want_loss
        for k in want:
            assert np.array_equal(grads[k], want[k]), k


def rule_dataset(rng, n, aspects=("price", "service")):
    """Polarity cue adjacent to the target decides sentiment; a second cue
    decides which aspect is discussed."""
    data = []
    pol_cues = {"good": "positive", "awful": "negative"}
    asp_cues = {"cost": "price", "staff": "service"}
    fillers = ["the", "was", "very", "x1", "x2"]
    for _ in range(n):
        pol_word = ["good", "awful"][int(rng.integers(2))]
        asp_word = ["cost", "staff"][int(rng.integers(2))]
        tokens = [
            fillers[int(rng.integers(len(fillers)))],
            "target",
            pol_word,
            asp_word,
            fillers[int(rng.integers(len(fillers)))],
        ]
        data.append(
            make_instance(tokens, [1], {asp_cues[asp_word]: pol_cues[pol_word]})
        )
    return data


def reference_train(train_set, dev_set, config):
    """Dense Adam over a dict of arrays, one fresh array per operation, in
    ``train``'s order of random draws; returns the best epoch's parameters,
    that epoch and each epoch's mean training loss."""
    rng = substream_rng(config.seed, "sentic.train")
    tokens = sorted({t for inst in train_set for t in inst.tokens})
    concepts = sorted({c for inst in train_set for ids in inst.concepts for c in ids})
    params = SenticParams.init(config, tokens, concepts, rng)
    m = {k: np.zeros_like(a) for k, a in params.arrays.items()}
    v = {k: np.zeros_like(a) for k, a in params.arrays.items()}
    beta1, beta2, eps, step = 0.9, 0.999, 1e-8, 0
    best, mean_losses = None, []
    for epoch in range(config.epochs):
        losses = []
        for idx in rng.permutation(len(train_set)):
            inst = train_set[idx]
            mask = None
            if config.dropout > 0.0:
                keep = rng.random((len(inst.tokens), config.d_w)) >= config.dropout
                mask = keep.astype(np.float64) / (1.0 - config.dropout)
            loss, grads = loss_and_grads(inst, params, dropout_mask=mask)
            losses.append(loss)
            step += 1
            for k, g in grads.items():
                m[k] = beta1 * m[k] + (1 - beta1) * g
                v[k] = beta2 * v[k] + (1 - beta2) * g * g
                mhat = m[k] / (1 - beta1**step)
                vhat = v[k] / (1 - beta2**step)
                params.arrays[k] = params.arrays[k] - config.lr * mhat / (np.sqrt(vhat) + eps)
        mean_losses.append(sum(losses) / len(losses))
        report = predict_and_evaluate(dev_set, params)
        key = (report["sentiment_acc"], report["strict_acc"], -epoch)
        if best is None or key > best[0]:
            best = (key, params.copy(), epoch)
    return best[1], best[2], mean_losses


def adam_dataset():
    """Rule data with concepts, plus a sentence that repeats a token (its
    word row gets two gradient rows added) and a dev sentence with a token
    the training vocabulary lacks."""
    rng = make_rng(23)
    data = rule_dataset(rng, 12)
    for inst in data[::3]:
        inst.concepts = [["k1"], [], ["k2", "k1"], [], []]
    data.append(make_instance(["good", "target", "good", "cost", "x1"], [1],
                              {"price": "positive"}, [["k2"], [], [], [], ["k1"]]))
    dev = rule_dataset(rng, 6)
    dev.append(make_instance(["unseen", "target", "awful", "staff"], [1],
                             {"service": "negative"}))
    return data, dev


def shared_token_dataset():
    """Rule data where every sentence repeats its polarity cue and all share
    the target word, so consecutive steps always have word rows in common."""
    rng = make_rng(24)
    data = rule_dataset(rng, 8)
    for inst in data:
        inst.tokens[4] = inst.tokens[2]
    return data, rule_dataset(rng, 4)


ADAM_CFG = SenticConfig(d_w=4, d_h=3, d_m=2, d_c=2, aspects=("price", "service"),
                        lr=0.05, epochs=4, dropout=0.5, seed=3)


class TestTrain:
    def test_init_and_train_keep_array_names_shapes_and_order(self):
        # criterion 1 and test_full_model_fd draw their random point by
        # iterating this dict, so train's buffer layout may not reorder it
        config = SenticConfig(d_w=3, d_h=2, d_m=4, d_c=5, aspects=("price", "service"),
                              epochs=1)
        params = SenticParams.init(config, ["a", "b", "c"], ["k1", "k2"], make_rng(0))
        want = [("E", (3, 3)), ("Ec", (2, 5)), ("Wa1", (4, 4)), ("Wa2", (4,)),
                ("Wm", (4, 8)), ("Wp", (3, 4)), ("va:price", (4,)), ("bp:price", (3,)),
                ("va:service", (4,)), ("bp:service", (3,))]
        for dirn in ("f", "b"):
            want += [(f"{k}:{dirn}", (2, 10)) for k in ("Wf", "Wi", "WC", "Wo", "Wco")]
            want += [(f"{k}:{dirn}", (2,)) for k in ("bf", "bi", "bC", "bo", "bco")]
            want.append((f"Wc:{dirn}", (2, 5)))
        assert [(k, a.shape) for k, a in params.arrays.items()] == want
        data, dev = adam_dataset()
        trained = train(data, dev, replace(config, d_c=2))
        assert list(trained.arrays) == [k for k, _ in want]

    def test_init_draws_are_uniform_draws(self):
        # init fills each array in place in one vector with rng.random(out=)
        # scaled to (-b, b): the bits that rng.uniform(-b, b) gives in dict
        # order, which the checkpoints of earlier versions were drawn with
        config = SenticConfig(d_w=6, d_h=3, d_m=4, d_c=5, aspects=("price", "service"))
        params = SenticParams.init(config, ["a", "b"], ["k1"], make_rng(3))
        ref = make_rng(3)
        for k, a in params.arrays.items():
            if k.startswith("b"):  # biases, bp:<aspect> included
                assert not np.any(a), k
                continue
            bound = 0.1 if k in ("E", "Ec", "Wa2") or k.startswith("va:") else (
                math.sqrt(6.0 / sum(a.shape)))
            assert np.array_equal(a, ref.uniform(-bound, bound, size=a.shape)), k
        flat = params.arrays["E"].base
        assert flat.size == sum(a.size for a in params.arrays.values())
        assert all(a.base is flat for a in params.arrays.values())

    def test_lr_zero_unchanged(self):
        rng = make_rng(18)
        data = rule_dataset(rng, 6)
        cfg = SenticConfig(
            d_w=3, d_h=2, d_m=2, d_c=2, aspects=("price", "service"),
            lr=0.0, epochs=1, dropout=0.0, seed=1,
        )
        params = train(data, data, cfg)
        fresh = SenticParams.init(
            cfg,
            sorted({t for i in data for t in i.tokens}),
            [],
            substream_rng(1, "sentic.train"),
        )
        for k in fresh.arrays:
            np.testing.assert_array_equal(params.arrays[k], fresh.arrays[k])

    def test_learns_rule(self):
        rng = make_rng(19)
        data = rule_dataset(rng, 60)
        dev = rule_dataset(rng, 20)
        cfg = SenticConfig(
            d_w=8, d_h=6, d_m=4, d_c=2, aspects=("price", "service"),
            lr=0.01, epochs=6, dropout=0.0, seed=2,
        )
        params = train(data, dev, cfg)
        report = predict_and_evaluate(dev, params)
        assert report["sentiment_acc"] >= 0.8

    def test_bit_identical_to_dense_adam(self):
        data, dev = adam_dataset()
        self.assert_dense_adam(data, dev, ADAM_CFG)

    @pytest.mark.parametrize(
        "case", ["one_sentence", "shared_tokens", "no_dropout", "short_switch_interval"]
    )
    def test_bit_identical_to_dense_adam_edge_cases(self, case):
        # one sentence: every step is its epoch's last; shared tokens: the
        # next step's rows overlap this step's gradient rows; a short switch
        # interval interleaves the training and worker threads finely
        data, dev = shared_token_dataset() if case == "shared_tokens" else adam_dataset()
        if case == "one_sentence":
            data = data[-1:]
        config = replace(ADAM_CFG, dropout=0.0) if case == "no_dropout" else ADAM_CFG
        interval = sys.getswitchinterval()
        if case == "short_switch_interval":
            sys.setswitchinterval(1e-6)
        try:
            self.assert_dense_adam(data, dev, config)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("case", ["plain", "shared_tokens"])
    def test_bit_identical_across_adam_blocks(self, case, monkeypatch):
        # a block of 7 elements: the dense sweep over the non-E arrays, the
        # worker's sweep over E and every look-ahead block cross many block
        # boundaries and end in a ragged block
        monkeypatch.setattr(sentic_mod, "_ADAM_BLOCK", 7)
        data, dev = shared_token_dataset() if case == "shared_tokens" else adam_dataset()
        tokens = {t for inst in data for t in inst.tokens}
        fresh = tiny_params(config=ADAM_CFG, tokens=sorted(tokens))
        n_E = fresh.arrays["E"].size
        n_rest = sum(a.size for k, a in fresh.arrays.items() if k != "E")
        assert n_E % 7 and n_rest % 7
        assert max(len(set(inst.tokens)) for inst in data) * ADAM_CFG.d_w > 2 * 7
        self.assert_dense_adam(data, dev, ADAM_CFG)

    @staticmethod
    def assert_dense_adam(data, dev, config):
        expect, expect_epoch, _ = reference_train(data, dev, config)
        params = train(data, dev, config)
        assert params.best_epoch == expect_epoch
        assert sorted(params.arrays) == sorted(expect.arrays)
        for k in expect.arrays:
            assert np.array_equal(params.arrays[k], expect.arrays[k]), k

    def test_no_thread_outlives_train(self):
        data, dev = adam_dataset()
        before = threading.enumerate()
        train(data, dev, ADAM_CFG)
        assert threading.enumerate() == before
        with pytest.raises(NumericFailure, match="step 2"):
            train(data, dev, replace(ADAM_CFG, lr=1e300))
        assert threading.enumerate() == before

    def test_epoch_log_reports_loss_and_throughput(self, caplog):
        data, dev = adam_dataset()
        _, _, mean_losses = reference_train(data, dev, ADAM_CFG)
        caplog.set_level(logging.INFO, logger="conceptkit.sentic")
        train(data, dev, ADAM_CFG)
        lines = [r.getMessage() for r in caplog.records if r.name == "conceptkit.sentic"]
        assert len(lines) == ADAM_CFG.epochs
        for epoch, (line, loss) in enumerate(zip(lines, mean_losses)):
            found = re.fullmatch(
                r"epoch (\d+) train loss (\S+) \((\S+) instances/s\) "
                r"dev sentiment \S+ strict \S+",
                line,
            )
            assert found, line
            assert int(found[1]) == epoch
            assert found[2] == f"{loss:.4f}"
            assert float(found[3]) > 0

    def test_empty_aspects_error(self):
        with pytest.raises(ValueError):
            train([], [], SenticConfig(aspects=()))

    def test_optimizer_state_is_two_full_size_vectors(self):
        # a word table (1,000 words, d_w=800, 6.4 MB) that dwarfs every other
        # array. theta, m and v are three vectors of theta's size; the
        # worker's block scratch (2 x 65,536 doubles, 0.16 x theta here),
        # one step's arrays and the import of lazily loaded modules bring the
        # peak to 3.98-4.06 x theta (measured, by what was imported before);
        # the bound leaves 0.14 x theta (0.9 MB) of margin. Per-element
        # scratch of theta's size would be two
        # more vectors: five during training and six, with the best-epoch
        # copy, while the final evaluation runs (6.4 x theta measured).
        def sentences(n, tag):
            return [make_instance([f"{tag}{i}_{j}" for j in range(50)], [0],
                                  {"price": ("positive", "negative")[i % 2]})
                    for i in range(n)]

        config = SenticConfig(d_w=800, d_h=2, d_m=2, d_c=2, aspects=("price", "service"),
                              epochs=1, dropout=0.0, seed=1)
        tracemalloc.start()
        try:
            params = train(sentences(20, "w"), sentences(4, "w"), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        theta = sum(a.nbytes for a in params.arrays.values())
        assert peak < 4.2 * theta


class TestAdamRows:
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "rows"])
    def test_blocked_step_equals_one_shot(self, dense):
        # 10 x 5 elements swept in blocks of the scratch's 7 against the
        # whole-array formula; off the rows the gradient is zero, and the
        # moments start nonzero so that +0.0 added there changes no bit. The
        # dense step takes one scratch row and uses its gradient as the other
        rng = make_rng(31)
        p = rng.normal(size=(10, 5))
        m = rng.normal(size=(10, 5))
        v = rng.random((10, 5))
        rows = None if dense else np.array([1, 4, 5, 9])
        g_rows = rng.normal(size=(10, 5) if dense else (4, 5))
        g = g_rows if dense else np.zeros((10, 5))
        if not dense:
            g[rows] = g_rows
        step, lr, b1, b2 = 3, 0.01, 0.9, 0.999
        m_want = b1 * m + (1 - b1) * g
        v_want = b2 * v + ((1 - b2) * g) * g
        p_want = p - (m_want / (1 - b1**step) * lr) / (np.sqrt(v_want / (1 - b2**step)) + 1e-8)
        scratch = np.empty((1 if dense else 2, 7))
        sentic_mod._adam_rows(p, m, v, scratch, rows, g_rows, step, lr)
        for got, want in ((m, m_want), (v, v_want), (p, p_want)):
            assert np.array_equal(got, want)


class TestEvaluate:
    def test_all_none_predictor(self):
        params = tiny_params(seed=20)
        params.arrays["Wp"][:] = 0.0
        for a in CFG.aspects:
            params.arrays[f"bp:{a}"][:] = np.array([10.0, 0.0, 0.0])  # none wins
        data = [make_instance(["a", "b"], [0], {"price": "positive"})]
        report = predict_and_evaluate(data, params)
        assert report["strict_acc"] == 0.0

    def test_single_aspect_perfect_macro_equals_micro(self):
        cfg = SenticConfig(d_w=3, d_h=2, d_m=2, d_c=2, aspects=("general",))
        params = SenticParams.init(cfg, ["a", "b"], [], make_rng(21))
        # force a predictor that always detects the aspect as positive
        params.arrays["Wp"][:] = 0.0
        params.arrays["bp:general"][:] = np.array([-10.0, 0.0, 10.0])
        data = [
            make_instance(["a", "b"], [0], {"general": "positive"}),
            make_instance(["b", "a"], [1], {"general": "positive"}),
        ]
        report = predict_and_evaluate(data, params)
        assert report["macro_f1"] == report["micro_f1"] == 1.0
        assert report["sentiment_acc"] == 1.0


GATE_ORDER = ("Wf", "Wi", "Wo", "Wco", "WC")  # the row order of _recur's gate matrix


class TestStackedProducts:
    """The encoder's premise: a product over a stack of sentences has, slice
    for slice, the bits of the same product on one sentence."""

    @pytest.mark.parametrize("d_w, d_h, d_c", [(3, 6, 2), (150, 50, 100)])
    def test_stack_equals_per_sentence(self, d_w, d_h, d_c):
        cfg = SenticConfig(d_w=d_w, d_h=d_h, d_c=d_c, d_m=4)
        p = SenticParams.init(cfg, ["a"], ["k"], make_rng(30)).arrays
        W = np.concatenate([p[f"{g}:f"] for g in GATE_ORDER])
        Wh = W[:, d_w : d_w + d_h]  # the non-contiguous column view _recur takes
        assert not Wh.flags.c_contiguous
        rng = make_rng(31)
        n, L = 5, 7
        H = rng.normal(size=(n, L + 1, d_h))
        X = rng.normal(size=(n, L, d_w))
        MU = rng.normal(size=(n, L, d_c))
        stacked = np.empty((n, 5 * d_h))
        for t in range(L):  # as _recur writes it: into a buffer, through views
            np.matmul(Wh, H[..., None][:, t], out=stacked[..., None])
            for i in range(n):
                assert np.array_equal(stacked[i], Wh @ H[i, t])
            assert np.array_equal(stacked, np.matmul(Wh, H[:, t, :, None])[..., 0])
        for A, B in [(X, W[:, :d_w].T), (MU, W[:, d_w + d_h :].T), (MU, p["Wc:f"].T)]:
            for stack in (A, A[:, ::-1]):  # the backward direction reads reversed views
                stacked = np.matmul(stack, B)
                for i in range(n):
                    assert np.array_equal(stacked[i], stack[i] @ B)


    @pytest.mark.parametrize("d_w, d_h, d_c", [(3, 6, 2), (150, 50, 100)])
    def test_products_through_the_flat_layout(self, d_w, d_h, d_c):
        # _recur reads its stacked gate weights as a view of theta and
        # _recur_back writes their gradient into a view of the gradient
        # buffer with out=: each gives the bits of the concatenated copy and
        # of the allocating form
        cfg = SenticConfig(d_w=d_w, d_h=d_h, d_c=d_c, d_m=4)
        p = SenticParams.init(cfg, ["a"], ["k"], make_rng(34)).arrays
        _, g = sentic_mod._flat({k: a.shape for k, a in p.items() if k != "E"})
        W = sentic_mod._stacked([p[f"{k}:f"] for k in GATE_ORDER])
        W_copy = np.concatenate([p[f"{k}:f"] for k in GATE_ORDER])
        assert np.shares_memory(W, p["Wf:f"]) and np.array_equal(W, W_copy)
        rng = make_rng(35)
        L = 12
        X, MU = rng.normal(size=(1, L, d_w)), rng.normal(size=(1, L, d_c))
        h = rng.normal(size=(1, d_h, 1))
        for M in (W, W_copy):
            assert np.array_equal(np.matmul(X, M[:, :d_w].T), np.matmul(X, W_copy[:, :d_w].T))
            assert np.array_equal(np.matmul(MU, M[:, d_w + d_h :].T),
                                  np.matmul(MU, W_copy[:, d_w + d_h :].T))
            assert np.array_equal(np.matmul(M[:, d_w : d_w + d_h], h),
                                  np.matmul(W_copy[:, d_w : d_w + d_h], h))
        DZ = rng.normal(size=(L, 5 * d_h))
        J = rng.normal(size=(L, d_w + d_h + d_c))
        dW = sentic_mod._stacked([g[f"{k}:f"] for k in GATE_ORDER])
        db = sentic_mod._stacked([g[f"{b}:f"] for b in ("bf", "bi", "bo", "bco", "bC")])
        assert np.shares_memory(dW, g["Wf:f"]) and np.shares_memory(db, g["bf:f"])
        np.matmul(DZ.T, J, out=dW)
        np.sum(DZ, axis=0, out=db)
        assert np.array_equal(dW, DZ.T @ J)
        assert np.array_equal(db, DZ.sum(axis=0))
        assert np.array_equal(g["WC:f"], (DZ.T @ J)[4 * d_h :])


def mixed_length_dataset(rng):
    """Sentences of lengths 1, 3, 4 and 6 in interleaved order, 130 of them of
    length 4 (more than one stack), with unknown tokens, unknown concept ids
    and tokens without concepts."""
    words = ["a", "b", "c", "cue", "unseen"]
    concepts = [[], ["k1"], ["k2", "k1"], ["nope"], ["k2", "nope"]]
    polarities = ["positive", "negative", "none"]
    lengths = [4, 1, 4, 3, 4, 6, 4, 4] * 26
    data = []
    for L in lengths:
        tokens = [words[int(rng.integers(len(words)))] for _ in range(L)]
        ids = [concepts[int(rng.integers(len(concepts)))] for _ in range(L)]
        positions = sorted({int(rng.integers(L)) for _ in range(2)})
        aspects = {a: polarities[int(rng.integers(3))] for a in CFG.aspects if rng.random() < 0.7}
        data.append(make_instance(tokens, positions, aspects, ids))
    assert sum(len(i.tokens) == 4 for i in data) == 130
    return data


def reference_evaluate(dataset, params):
    """``predict_and_evaluate`` written per sentence over ``forward``."""
    classes = list(params.config.classes)
    non_none = [i for i, c in enumerate(classes) if c != NONE_CLASS]
    preds, correct, total = [], 0, 0
    for inst in dataset:
        probs = forward(inst, params)
        gold = frozenset(a for a, pol in inst.aspects.items() if pol != NONE_CLASS)
        found = frozenset(a for a, pv in probs.items() if classes[np.argmax(pv)] != NONE_CLASS)
        preds.append(LabelSetPrediction(gold=gold, predicted=found))
        for a, pol in inst.aspects.items():
            if pol != NONE_CLASS:
                total += 1
                correct += classes[non_none[np.argmax(probs[a][non_none])]] == pol
    return {
        "strict_acc": strict_accuracy(preds),
        "macro_f1": macro_f1(preds),
        "micro_f1": micro_f1(preds),
        "sentiment_acc": correct / total if total else 0.0,
    }


class TestStackedEvaluate:
    @pytest.mark.parametrize("averaging", [False, True])
    def test_equals_per_sentence_forward(self, averaging, monkeypatch):
        cfg = SenticConfig(d_w=5, d_h=6, d_m=4, d_c=3, aspects=CFG.aspects,
                           target_averaging=averaging)
        params = SenticParams.init(cfg, ["a", "b", "c", "cue"], ["k1", "k2"], make_rng(32))
        params.arrays["Wp"] *= 20.0  # spread the argmax over all classes
        data = mixed_length_dataset(make_rng(33))
        blocks, probs_of = [], sentic_mod._probs

        def spy(group, params):
            blocks.append((group, probs_of(group, params)))
            return blocks[-1][1]

        monkeypatch.setattr(sentic_mod, "_probs", spy)
        report = predict_and_evaluate(data, params)
        monkeypatch.undo()
        for group, out in blocks:
            columns = sentic_mod._encode(group, params, None)[0]
            for inst, probs, cols in zip(group, out, columns):
                assert np.array_equal(cols, encode_bilstm(inst, params))
                expect = forward(inst, params)
                for a in cfg.aspects:
                    assert np.array_equal(probs[a], expect[a])
        assert report == reference_evaluate(data, params)
        lengths = [{len(inst.tokens) for inst in group} for group, _ in blocks]
        assert all(len(ls) == 1 for ls in lengths)
        assert sorted(len(g) for (g, _), ls in zip(blocks, lengths) if ls == {4}) == [2, 64, 64]
        assert sorted(id(inst) for g, _ in blocks for inst in g) == sorted(map(id, data))
        assert 0.0 < report["sentiment_acc"] < 1.0


class TestPersistence:
    def test_dataset_round_trip(self, tmp_path):
        data = [
            make_instance(
                ["a", "b"], [1], {"price": "negative"}, [["k1", "k2"], []]
            )
        ]
        p = tmp_path / "tsa.jsonl"
        save_tsa(data, p)
        back = load_tsa(p)
        assert back[0].tokens == ["a", "b"]
        assert back[0].aspects == {"price": "negative"}
        assert back[0].concepts == [["k1", "k2"], []]

    def test_checkpoint_round_trip(self, tmp_path):
        params = tiny_params(seed=22)
        p = tmp_path / "model.ckpt"
        save_checkpoint(params, p)
        back = load_checkpoint(p)
        assert back.tokens == params.tokens
        assert back.config.aspects == CFG.aspects
        for k in params.arrays:
            np.testing.assert_array_equal(back.arrays[k], params.arrays[k])

    def test_bad_positions(self):
        with pytest.raises(ValueError):
            make_instance(["a"], [3], {})
        with pytest.raises(ValueError):
            make_instance(["a"], [], {})
