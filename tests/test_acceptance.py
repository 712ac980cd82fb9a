"""Acceptance suite: one test per published criterion.

Each test emits a ``[PASS]``/``[FAIL]`` verdict line — printed live to
the real stdout and replayed in the terminal summary via ``conftest`` so
it survives pytest's output capture — and then asserts.  Tolerances,
seeds, dataset sizes, and runtime budgets are pinned here and must not
be loosened without revisiting the criteria.
"""

import math
import sys
import time

import conftest
import numpy as np

from conceptkit import corpus as corpus_mod
from conceptkit import embed as embed_mod
from conceptkit import fnet as fnet_mod
from conceptkit import metrics as metrics_mod
from conceptkit import rerank as rerank_mod
from conceptkit import sentic as sentic_mod
from conceptkit.cli import main as cli_main
from conceptkit.numerics import fd_gradcheck, make_rng, sigmoid, substream_rng
from conceptkit.synth import TSA_ASPECTS, synth_fnet, synth_nbest, synth_tsa


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.VERDICTS.append(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: analytic vs central finite-difference gradients


def _grad_sgns(seed):
    rng = make_rng(seed)
    wv = rng.normal(scale=0.5, size=(4, 3))
    g1 = rng.normal(scale=0.5, size=(3, 3))
    negs = [int(rng.integers(3)) for _ in range(3)]
    wid, fid, key = int(rng.integers(4)), int(rng.integers(3)), "g"

    def make(params):
        return embed_mod.EmbeddingSet(
            tokens=[f"w{i}" for i in range(4)],
            word_vectors=params[0],
            feature_vectors={"g": params[1]},
        )

    def loss(params):
        return embed_mod.ns_loss(make(params), wid, fid, key, negs)

    emb = make([wv.copy(), g1.copy()])
    embed_mod._apply_ns_gradient(emb, wid, fid, key, negs, lr=1.0)
    grads = [wv - emb.word_vectors, g1 - emb.feature_vectors["g"]]
    return fd_gradcheck(loss, [wv.copy(), g1.copy()], grads, eps=1e-5)


def _grad_warp(seed):
    rng = make_rng(seed)
    ids = np.array([0, 2])
    counts = np.array([float(rng.normal()), float(rng.normal())])
    y, y_neg = 0, 1
    w = fnet_mod.warp_loss_weight(int(rng.integers(1, 6)))
    while True:
        A0 = rng.normal(size=(3, 4))
        B0 = rng.normal(size=(3, 2))
        ax = A0[:, ids] @ counts
        margin = 1.0 - ax @ B0[:, y] + ax @ B0[:, y_neg]
        if margin > 0.1:  # stay away from the hinge kink
            break

    def loss(params):
        A, B = params
        ax = A[:, ids] @ counts
        return w * max(0.0, 1.0 - ax @ B[:, y] + ax @ B[:, y_neg])

    ax = A0[:, ids] @ counts
    gA = np.zeros_like(A0)
    gA[:, ids] = np.outer(w * (B0[:, y_neg] - B0[:, y]), counts)
    gB = np.zeros_like(B0)
    gB[:, y] = -w * ax
    gB[:, y_neg] = w * ax
    return fd_gradcheck(loss, [A0, B0], [gA, gB], eps=1e-5)


def _grad_drbm(seed):
    rng = make_rng(seed)
    words = ["a", "b", "c"]
    data = [rerank_mod.NBestList("u", ["a"], [rerank_mod.Hypothesis(["a"], -1.0)])]
    vocab = rerank_mod.build_nbest_vocab(
        [rerank_mod.NBestList("u", words, [rerank_mod.Hypothesis(words, -1.0)])]
    )
    n, d = len(vocab), 4
    best = rerank_mod.Hypothesis(["a", "b"], -2.0)
    bad = rerank_mod.Hypothesis(["c", "c"], -1.0)
    W0 = rng.normal(scale=0.5, size=(n, d))
    b0 = rng.normal(scale=0.5, size=n)
    c0 = rng.normal(scale=0.5, size=d)

    def loss(params):
        W, b, c = params
        p = rerank_mod.DrbmParams(W=W, b=b, c=c, w0=1.0)
        return (
            1.0
            + rerank_mod.free_energy([best], p, vocab)[0]
            - rerank_mod.free_energy([bad], p, vocab)[0]
        )

    p0 = rerank_mod.DrbmParams(W=W0.copy(), b=b0.copy(), c=c0.copy(), w0=1.0)
    cols, phi = rerank_mod.phi_unigram([best, bad], vocab)
    _, z = rerank_mod._neg_free_energy(cols, phi, np.array([-2.0, -1.0]), p0)
    gb, gc, gW = rerank_mod._hinge_grads(phi, z, np.array([1.0, -1.0]))
    grad_b, grad_W = np.zeros(n), np.zeros((n, d))
    grad_b[cols], grad_W[cols] = gb, gW
    return fd_gradcheck(loss, [W0.copy(), b0.copy(), c0.copy()], [grad_W, grad_b, gc])


def _grad_sentic(seed):
    cfg = sentic_mod.SenticConfig(
        d_w=2, d_h=2, d_m=2, d_c=2, max_concepts=2, aspects=("x",), seed=seed
    )
    params = sentic_mod.SenticParams.init(
        cfg, ["a", "b", "cue"], ["k"], substream_rng(seed, "sentic.train")
    )
    # evaluate at an O(1) random point: near zero-init the attention-query
    # gradients sink below the fd noise floor and the relative error
    # denominator floor (1e-8) amplifies pure roundoff
    rng = make_rng(seed + 1000)
    for k in params.arrays:
        params.arrays[k] = rng.normal(scale=0.8, size=params.arrays[k].shape)
    inst = sentic_mod.TsaInstance(
        tokens=["a", "cue", "b"],
        target_positions=[0, 1],
        aspects={"x": "positive"},
        concepts=[[], ["k"], []],
    )
    _, grads = sentic_mod.loss_and_grads(inst, params)
    names = sorted(params.arrays)
    base = {k: params.arrays[k].copy() for k in names}
    classes = list(cfg.classes)

    def loss(ps):
        for k, arr in zip(names, ps):
            params.arrays[k] = arr
        out = sentic_mod.forward(inst, params)
        total = 0.0
        for a in cfg.aspects:
            gold = inst.aspects.get(a, sentic_mod.NONE_CLASS)
            total -= math.log(out[a][classes.index(gold)])
        return total

    # eps 1e-4 keeps the fd roundoff noise on near-zero entries below the
    # 1e-8 relative-error denominator floor
    err = fd_gradcheck(
        loss, [base[k].copy() for k in names], [grads[k] for k in names], eps=1e-4
    )
    for k in names:
        params.arrays[k] = base[k]
    return err


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    seeds = range(20)
    errs = {
        "sgns": max(_grad_sgns(s) for s in seeds),
        "warp": max(_grad_warp(s) for s in seeds),
        "drbm": max(_grad_drbm(s) for s in seeds),
        "sentic": max(_grad_sentic(s) for s in seeds),
    }
    elapsed = time.monotonic() - t0
    worst = max(errs.values())
    ok = worst < 1e-4 and elapsed < 60.0
    _verdict(
        1,
        "gradient suite",
        ok,
        "max rel err "
        + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
        + f" (< 1e-4 on 20 seeds each), runtime {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: exactness suite


def _brute_free_energy(hyp, params, vocab, d):
    cols, rows = rerank_mod.phi_unigram([hyp], vocab)
    phi = np.zeros(len(vocab))
    phi[cols] = rows[0]
    z = params.c + params.W.T @ phi
    total = 0.0
    for mask in range(2 ** d):
        h = np.array([(mask >> j) & 1 for j in range(d)], dtype=float)
        total += math.exp(float(h @ z))
    return -params.w0 * hyp.asr_logp - float(params.b @ phi) - math.log(total)


def test_criterion_2_exactness_suite():
    checks = {}

    # (a) free energy vs 2^d enumeration
    worst_fe = 0.0
    for d in (1, 4, 8, 12):
        rng = make_rng(d)
        words = [f"w{i}" for i in range(5)]
        vocab = rerank_mod.build_nbest_vocab(
            [rerank_mod.NBestList("u", words, [rerank_mod.Hypothesis(words, -1.0)])]
        )
        params = rerank_mod.DrbmParams(
            W=rng.normal(scale=0.4, size=(len(vocab), d)),
            b=rng.normal(scale=0.4, size=len(vocab)),
            c=rng.normal(scale=0.4, size=d),
            w0=float(rng.normal()),
        )
        hyp = rerank_mod.Hypothesis(["w0", "w3", "w3"], float(rng.normal()))
        worst_fe = max(
            worst_fe,
            abs(
                rerank_mod.free_energy([hyp], params, vocab)[0]
                - _brute_free_energy(hyp, params, vocab, d)
            ),
        )
    checks["free_energy"] = worst_fe < 1e-9

    # (b) combined label embedding: every column equals the sum of the
    # prototype columns along the label's ancestor path, exactly
    _, hierarchy, emb = synth_fnet(n_mentions=5, seed=1)
    rng = make_rng(2)
    bp = rng.normal(size=(6, len(hierarchy)))
    combined = fnet_mod.proto_hle(bp, fnet_mod.hle(hierarchy))
    col_ok = True
    for lab in hierarchy.labels:
        j = hierarchy.index[lab]
        expect = np.zeros(6)
        for anc in hierarchy.path(lab):
            expect += bp[:, hierarchy.index[anc]]
        col_ok = col_ok and np.array_equal(combined[:, j], expect)
    checks["column_identity"] = col_ok

    # (c) grouped softmax sums to one
    rng = make_rng(3)
    emb_set = embed_mod.EmbeddingSet(
        tokens=["a", "b"],
        word_vectors=rng.normal(size=(2, 4)),
        feature_vectors={"g": rng.normal(size=(7, 4))},
    )
    total = sum(embed_mod.group_prob(emb_set, "g", 0, f) for f in range(7))
    checks["grouped_softmax"] = abs(total - 1.0) < 1e-9

    # (d) zero-concept recurrence reduces to the plain LSTM step exactly
    cfg = sentic_mod.SenticConfig(d_w=3, d_h=2, d_m=2, d_c=2, aspects=("x",))
    params = sentic_mod.SenticParams.init(
        cfg, ["a"], [], substream_rng(5, "sentic.train")
    )
    rng = make_rng(5)
    for k in params.arrays:
        params.arrays[k] = rng.normal(size=params.arrays[k].shape)
    p = params.arrays
    x = rng.normal(size=3)
    h0 = rng.normal(size=2)
    c0 = rng.normal(size=2)
    mu0 = np.zeros(2)
    h1, c1 = sentic_mod.sentic_step(x, h0, c0, mu0, p, "f")
    h2, c2 = sentic_mod.lstm_step(x, h0, c0, p, "f", 2)
    checks["zero_concept"] = np.array_equal(h1, h2) and np.array_equal(c1, c2)

    # (e) word-group-only trainer is bit-identical to a plain skip-gram
    # trainer written out longhand here
    sents = [["a", "b", "c", "d", "e"], ["b", "d", "a", "c", "e"]] * 6
    text = "".join("".join(f"{w}\tX\tO\n" for w in s) + "\n" for s in sents)
    corpus = corpus_mod.parse_corpus(text.splitlines(keepends=True))
    vocab = corpus_mod.build_vocab(corpus)
    cfg_w = embed_mod.SkipNerConfig(dims=5, epochs=2, seed=3, groups=("word",))
    got, _ = embed_mod.train_skipner(corpus, vocab, cfg_w)
    want = _reference_skipgram(corpus, vocab, cfg_w)
    checks["skipgram_bits"] = np.array_equal(got.word_vectors, want)

    ok = all(checks.values())
    _verdict(
        2,
        "exactness suite",
        ok,
        f"free-energy max dev {worst_fe:.1e} (< 1e-9, d up to 12); "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
    )


def _reference_skipgram(corpus, vocab, config):
    """Plain skip-gram with negative sampling, written independently of the
    multi-group trainer's update code (it shares only event extraction,
    the sampler, and the seed substream layout)."""
    from conceptkit.numerics import DiscreteSampler

    table = corpus_mod.FeatureGroupTable()
    events = list(
        corpus_mod.extract_feature_events(
            corpus, vocab, table, window=config.window, groups=("word",)
        )
    )
    counts = {}
    for ev in events:
        per = counts.setdefault(ev.group_key, {})
        per[ev.feature_id] = per.get(ev.feature_id, 0) + 1
    samplers = {}
    for key, per in counts.items():
        w = np.zeros(table.group_size(key))
        for fid, c in per.items():
            w[fid] = c
        samplers[key] = DiscreteSampler(np.power(w, config.unigram_exponent))
    rng = substream_rng(config.seed, "embed.train")
    wv = (rng.random((len(vocab), config.dims)) - 0.5) / config.dims
    feats = {k: np.zeros((table.group_size(k), config.dims)) for k in table.group_keys()}
    total = config.epochs * len(events)
    step = 0
    for _ in range(config.epochs):
        for idx in rng.permutation(len(events)):
            ev = events[idx]
            frac = step / max(1, total)
            lr = config.lr_initial + (config.lr_final - config.lr_initial) * frac
            sampler = samplers[ev.group_key]
            support = np.count_nonzero(sampler.weights)
            negs = []
            if support > 1 or sampler.weights[ev.feature_id] == 0:
                while len(negs) < config.negatives:
                    draw = sampler.sample(rng)
                    if draw != ev.feature_id:
                        negs.append(draw)
            f = feats[ev.group_key]
            w = wv[ev.center_word_id]
            gw = np.zeros_like(w)
            gf = {}
            g = sigmoid(f[ev.feature_id] @ w) - 1.0
            gw += g * f[ev.feature_id]
            gf[ev.feature_id] = g * w
            for nid in negs:
                g = sigmoid(f[nid] @ w)
                gw += g * f[nid]
                gf[nid] = gf.get(nid, 0.0) + g * w
            for i, grad in gf.items():
                f[i] -= lr * grad
            wv[ev.center_word_id] -= lr * gw
            step += 1
    return wv


# ---------------------------------------------------------------------------
# criterion 3: synthetic fine-grained typing


def _strict_on(test_set, model, hierarchy, threshold=1.0, top_k=3):
    preds = [
        metrics_mod.LabelSetPrediction(
            gold=inst.labels,
            predicted=fnet_mod.type_infer(
                fnet_mod.rank_labels(inst.features, model), hierarchy, threshold, top_k
            ),
        )
        for inst in test_set
    ]
    return metrics_mod.strict_accuracy(preds)


def test_criterion_3_synthetic_fnet():
    t0 = time.monotonic()
    mentions, hierarchy, emb = synth_fnet(n_mentions=2000, seed=7)
    train, test = mentions[:200], mentions[1000:]

    # features interned on the training subset, frozen for evaluation
    feats = fnet_mod.extract_mention_features(train)
    fnet_mod.extract_mention_features(test, feats)

    # prototypes are picked from the whole corpus (an unlabeled-selection
    # step), while the discriminative map A is trained on the 200-mention
    # few-shot subset
    protos = fnet_mod.select_prototypes(mentions, hierarchy, k=3)
    bp = fnet_mod.proto_le(protos, hierarchy, emb)
    cfg = fnet_mod.WarpConfig(epochs=2, seed=7)
    model = fnet_mod.warp_train(train, hierarchy, "fixed", cfg, b_init=bp)
    acc_proto = _strict_on(test, model, hierarchy)

    rng = substream_rng(7, "baseline")
    scale = np.linalg.norm(bp) / math.sqrt(bp.size)
    b_rand = rng.normal(scale=scale, size=bp.shape)
    model_rand = fnet_mod.warp_train(train, hierarchy, "fixed", cfg, b_init=b_rand)
    acc_rand = _strict_on(test, model_rand, hierarchy)

    # zero-shot: train on coarse labels only, score fine labels through the
    # hierarchy-combined label embedding
    zs_train = fnet_mod.coarse_only(mentions[:400], hierarchy)
    # the same test mentions, featurized on the zero-shot training vocabulary
    fnet_mod.extract_mention_features(test, fnet_mod.extract_mention_features(zs_train))
    b_combined = fnet_mod.proto_hle(bp, fnet_mod.hle(hierarchy))
    zs_model = fnet_mod.warp_train(zs_train, hierarchy, "fixed", cfg, b_init=b_combined)
    fine = hierarchy.at_level(2)
    hits = 0
    for inst in test:
        scores = fnet_mod.score_all(inst.features, zs_model)
        best = max(fine, key=lambda l: scores[hierarchy.index[l]])
        hits += best in inst.labels
    precision = hits / len(test)
    uniform = 1.0 / len(fine)

    elapsed = time.monotonic() - t0
    ok = (
        acc_proto >= 0.85
        and acc_rand <= 0.40
        and precision >= 2.0 * uniform
        and elapsed < 120.0
    )
    _verdict(
        3,
        "synthetic typing",
        ok,
        f"prototype strict {acc_proto:.3f} (>= 0.85) vs random {acc_rand:.3f} "
        f"(<= 0.40); zero-shot level-2 precision {precision:.3f} "
        f"(>= 2x uniform {uniform:.3f}); runtime {elapsed:.1f}s (< 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 4: synthetic reranking


def test_criterion_4_synthetic_reranking():
    t0 = time.monotonic()
    lists, gaz = synth_nbest(n_utts=500, n_best=20, seed=7)
    vocab = rerank_mod.build_nbest_vocab(lists)
    train, test = lists[:400], lists[400:]
    asr_wer = rerank_mod.corpus_wer(test, rerank_mod.asr_scores)

    cfg = rerank_mod.DrbmConfig(epochs=3, lr=0.05, seed=7)
    trained = rerank_mod.train_drbm(
        train, rerank_mod.DrbmParams.zeros(len(vocab), 20), vocab, cfg
    )
    rbm_wer = rerank_mod.corpus_wer(
        test, lambda hyps: rerank_mod.score_rbm(hyps, trained, vocab)
    )

    prior = rerank_mod.EntityPrior.from_gazetteer(gaz, vocab, lam=0.05)
    init = rerank_mod.DrbmParams.zeros(len(vocab), 20)
    act_before = float(
        np.mean([rerank_mod.prior_activation(init, w, e) for w, e in prior.pairs])
    )
    with_prior = rerank_mod.train_drbm(train, init, vocab, cfg, prior=prior)
    act_after = float(
        np.mean([rerank_mod.prior_activation(with_prior, w, e) for w, e in prior.pairs])
    )

    slp = rerank_mod.train_slp(
        train, vocab, rerank_mod.DrbmConfig(seed=7, slp_pairs=50, slp_iterations=5)
    )
    slp_wer = rerank_mod.corpus_wer(
        test, lambda hyps: rerank_mod.slp_score(hyps, slp, vocab)
    )
    fuse_wer = rerank_mod.corpus_wer(
        test, rerank_mod.fused_scorer(trained, slp, vocab, alpha=1.0)
    )

    elapsed = time.monotonic() - t0
    ok = (
        asr_wer - rbm_wer >= 0.02
        and act_after > act_before
        and fuse_wer <= min(rbm_wer, slp_wer)
        and elapsed < 180.0
    )
    _verdict(
        4,
        "synthetic reranking",
        ok,
        f"WER {asr_wer:.3f} -> {rbm_wer:.3f} (gain {100 * (asr_wer - rbm_wer):.1f} "
        f">= 2 points); prior activation {act_before:.3f} -> {act_after:.3f} "
        f"(increases); fusion {fuse_wer:.3f} <= min(rbm {rbm_wer:.3f}, "
        f"slp {slp_wer:.3f}); runtime {elapsed:.1f}s (< 180s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: synthetic targeted sentiment


def test_criterion_5_synthetic_tsa():
    t0 = time.monotonic()
    data = synth_tsa(3000, seed=7)
    train, dev, test = data[:2000], data[2000:2500], data[2500:]
    reports = {}
    for averaging in (False, True):
        cfg = sentic_mod.SenticConfig(
            d_w=8,
            d_h=6,
            d_m=4,
            d_c=4,
            max_concepts=4,
            aspects=TSA_ASPECTS,
            epochs=2,
            lr=1e-2,
            dropout=0.5,
            seed=7,
            target_averaging=averaging,
        )
        params = sentic_mod.train(train, dev, cfg)
        reports[averaging] = sentic_mod.predict_and_evaluate(test, params)
    att, avg = reports[False], reports[True]
    att_key = (att["sentiment_acc"], att["strict_acc"])
    avg_key = (avg["sentiment_acc"], avg["strict_acc"])
    elapsed = time.monotonic() - t0
    ok = (
        att["sentiment_acc"] >= 0.90
        and att["strict_acc"] >= 0.80
        and att_key > avg_key
        and elapsed < 180.0
    )
    _verdict(
        5,
        "synthetic targeted sentiment",
        ok,
        f"attention sentiment {att['sentiment_acc']:.3f} (>= 0.90), "
        f"strict {att['strict_acc']:.3f} (>= 0.80); averaging ablation "
        f"sentiment {avg['sentiment_acc']:.3f}, strict "
        f"{avg['strict_acc']:.3f} (strictly below); "
        f"runtime {elapsed:.1f}s (< 180s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: metrics vs brute-force oracles


def _oracle_set_metrics(cases):
    strict = sum(1 for g, p in cases if g == p) / len(cases)
    ps, rs = [], []
    for g, p in cases:
        ps.append(len(g & p) / len(p) if p else 0.0)
        rs.append(len(g & p) / len(g) if g else 0.0)
    mp, mr = sum(ps) / len(ps), sum(rs) / len(rs)
    macro = 0.0 if mp + mr == 0 else 2 * mp * mr / (mp + mr)
    inter = sum(len(g & p) for g, p in cases)
    npred = sum(len(p) for _, p in cases)
    ngold = sum(len(g) for g, _ in cases)
    pp = inter / npred if npred else 0.0
    rr = inter / ngold if ngold else 0.0
    micro = 0.0 if pp + rr == 0 else 2 * pp * rr / (pp + rr)
    return strict, macro, micro


def _oracle_edit_distance(ref, hyp):
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i]
        for j, h in enumerate(hyp, start=1):
            cur.append(min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def test_criterion_6_metrics_oracle():
    rng = make_rng(6)
    alphabet = list("abcdefg")

    set_ok = True
    for _ in range(200):
        cases = []
        for _ in range(int(rng.integers(1, 8))):
            g = frozenset(rng.choice(alphabet, size=int(rng.integers(0, 5))))
            p = frozenset(rng.choice(alphabet, size=int(rng.integers(0, 5))))
            cases.append((g, p))
        preds = [
            metrics_mod.LabelSetPrediction(gold=g, predicted=p) for g, p in cases
        ]
        want = _oracle_set_metrics(cases)
        got = (
            metrics_mod.strict_accuracy(preds),
            metrics_mod.macro_f1(preds),
            metrics_mod.micro_f1(preds),
        )
        set_ok = set_ok and got == want

    wer_ok = True
    worst = 0.0
    for _ in range(200):
        ref = [str(rng.integers(4)) for _ in range(int(rng.integers(0, 10)))]
        hyp = [str(rng.integers(4)) for _ in range(int(rng.integers(0, 10)))]
        want = _oracle_edit_distance(ref, hyp) / max(1, len(ref))
        got = metrics_mod.wer(ref, hyp)
        worst = max(worst, abs(got - want))
        wer_ok = wer_ok and abs(got - want) < 1e-12

    ok = set_ok and wer_ok
    _verdict(
        6,
        "metrics oracle",
        ok,
        f"set metrics exact on 200 random case batches ({'ok' if set_ok else 'FAIL'}); "
        f"WER max dev {worst:.1e} (< 1e-12 on 200 random pairs)",
    )


# ---------------------------------------------------------------------------
# criterion 7: byte-identical CLI pipelines under a fixed seed


def _run_twice(argv_of, outputs):
    blobs = []
    for tag in ("run1", "run2"):
        assert cli_main(argv_of(tag)) == 0
        row = []
        for out in outputs(tag):
            with open(out, "rb") as f:
                row.append(f.read())
        blobs.append(row)
    return blobs[0] == blobs[1]


def test_criterion_7_cli_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "embed.dims = 8\nembed.epochs = 1\nembed.groups = word,pos,self\n"
        "embed.clusters = 2\n"
        "fnet.dims = 16\nfnet.epochs = 1\nfnet.prototypes = 3\n"
        "rerank.hidden = 8\nrerank.epochs = 1\nrerank.lr = 0.05\n"
        "rerank.pretrain_epochs = 1\nrerank.slp_pairs = 20\nrerank.slp_iterations = 2\n"
        "tsa.d_w = 6\ntsa.d_h = 4\ntsa.d_m = 3\ntsa.d_c = 3\ntsa.epochs = 1\n"
        "tsa.lr = 0.01\ntsa.dropout = 0.5\ntsa.aspects = price,service\n"
    )
    common = ["--config", str(cfg_path), "--seed", "7"]

    corpus_path = tmp_path / "corpus.tsv"
    sents = [
        [("the", "DT", "O"), ("acme", "NNP", "B-ORG"), ("board", "NN", "O")],
        [("alice", "NNP", "B-PER"), ("saw", "VBD", "O"), ("paris", "NNP", "B-LOC")],
    ] * 5
    lines = []
    for sent in sents:
        lines.extend(f"{s}\t{p}\t{n}" for s, p, n in sent)
        lines.append("")
    corpus_path.write_text("\n".join(lines) + "\n")

    mentions, hierarchy, emb = synth_fnet(n_mentions=120, seed=3)
    mpath = tmp_path / "mentions.jsonl"
    fnet_mod.save_mentions(mentions, mpath)
    hpath = tmp_path / "hier.txt"
    hpath.write_text("\n".join(hierarchy.labels) + "\n")
    epath = tmp_path / "embeddings.txt"
    embed_mod.save_embeddings(emb, epath)

    nlists, gaz = synth_nbest(n_utts=30, n_best=5, seed=5)
    npath = tmp_path / "nbest.jsonl"
    rerank_mod.save_nbest(nlists, npath)
    gpath = tmp_path / "gaz.tsv"
    gpath.write_text("".join(f"{w}\t{c}\n" for w, c in sorted(gaz.items())))

    tsa = synth_tsa(60, seed=4, length=7, fillers=10, span_junk=1)
    tr_path = tmp_path / "tsa_train.jsonl"
    dv_path = tmp_path / "tsa_dev.jsonl"
    sentic_mod.save_tsa(tsa[:40], tr_path)
    sentic_mod.save_tsa(tsa[40:], dv_path)

    results = {}

    def path(tag, name):
        return str(tmp_path / f"{tag}.{name}")

    results["embed-train"] = _run_twice(
        lambda t: ["embed-train", str(corpus_path), "--output", path(t, "emb")] + common,
        lambda t: [path(t, "emb")],
    )
    results["embed-crf-feats"] = _run_twice(
        lambda t: ["embed-crf-feats", str(corpus_path), path(t, "emb"),
                   "--output", path(t, "crf")] + common,
        lambda t: [path(t, "crf")],
    )
    results["fnet-proto"] = _run_twice(
        lambda t: ["fnet-proto", str(mpath), str(hpath), "--output", path(t, "proto")]
        + common,
        lambda t: [path(t, "proto")],
    )
    results["fnet-train"] = _run_twice(
        lambda t: ["fnet-train", str(mpath), str(hpath), "--mode", "fixed",
                   "--label-emb", "proto", "--prototypes", path(t, "proto"),
                   "--embeddings", str(epath), "--output", path(t, "fnet")] + common,
        lambda t: [path(t, "fnet"), path(t, "fnet") + ".feats"],
    )
    results["fnet-eval"] = _run_twice(
        lambda t: ["fnet-eval", str(mpath), str(hpath), "--model", path(t, "fnet"),
                   "--report", path(t, "fnet.json")] + common,
        lambda t: [path(t, "fnet.json")],
    )
    results["rerank-pretrain"] = _run_twice(
        lambda t: ["rerank-pretrain", str(npath), "--output", path(t, "init")] + common,
        lambda t: [path(t, "init"), path(t, "init") + ".vocab"],
    )
    results["rerank-train"] = _run_twice(
        lambda t: ["rerank-train", str(npath), "--init", path(t, "init"),
                   "--gazetteer", str(gpath), "--output", path(t, "drbm")] + common,
        lambda t: [path(t, "drbm"), path(t, "drbm") + ".vocab"],
    )
    results["rerank-eval"] = _run_twice(
        lambda t: ["rerank-eval", str(npath), "--model", path(t, "drbm"),
                   "--fuse-slp", "1.0", "--slp-train", str(npath),
                   "--report", path(t, "rerank.json")] + common,
        lambda t: [path(t, "rerank.json")],
    )
    results["tsa-train"] = _run_twice(
        lambda t: ["tsa-train", str(tr_path), str(dv_path),
                   "--output", path(t, "ckpt")] + common,
        lambda t: [path(t, "ckpt")],
    )
    results["tsa-eval"] = _run_twice(
        lambda t: ["tsa-eval", path(t, "ckpt"), str(dv_path),
                   "--report", path(t, "tsa.json")] + common,
        lambda t: [path(t, "tsa.json")],
    )

    ok = all(results.values())
    _verdict(
        7,
        "pipeline determinism",
        ok,
        "byte-identical artifacts under --seed 7 for "
        + ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(results.items())),
    )
