import math

import numpy as np
import pytest

from conceptkit import embed as embed_mod
from conceptkit.corpus import (
    ConceptLexicon,
    FeatureEvent,
    FeatureGroupTable,
    build_vocab,
    extract_feature_events,
    parse_corpus,
)
from conceptkit.embed import (
    EmbeddingSet,
    SkipNerConfig,
    _apply_ns_gradient,
    binarize,
    cluster_words,
    group_prob,
    load_embeddings,
    nearest_neighbors,
    ns_loss,
    save_embeddings,
    train_skipner,
)
from conceptkit.numerics import (
    DiscreteSampler,
    NumericFailure,
    fd_gradcheck,
    make_rng,
    softplus,
    substream_rng,
)


def make_emb(word_vectors, group_vectors=None):
    wv = np.asarray(word_vectors, dtype=np.float64)
    tokens = [f"w{i}" for i in range(wv.shape[0])]
    feats = {}
    if group_vectors is not None:
        feats = {k: np.asarray(v, dtype=np.float64) for k, v in group_vectors.items()}
    return EmbeddingSet(tokens=tokens, word_vectors=wv, feature_vectors=feats)


class TestGroupProb:
    def test_identical_vectors_symmetric(self):
        emb = make_emb([[1.0, 0.0]], {"g": [[0.3, 0.4], [0.3, 0.4]]})
        assert abs(group_prob(emb, "g", 0, 0) - 0.5) < 1e-12

    def test_direct_softmax(self):
        emb = make_emb([[1.0, 0.0]], {"g": [[1.0, 0.0], [0.0, 1.0]]})
        expect = math.e / (math.e + 1.0)
        assert abs(group_prob(emb, "g", 0, 0) - expect) < 1e-9

    def test_singleton_group(self):
        emb = make_emb([[0.2, 0.1]], {"g": [[5.0, -1.0]]})
        assert group_prob(emb, "g", 0, 0) == 1.0

    def test_unknown_ids(self):
        emb = make_emb([[1.0, 0.0]], {"g": [[1.0, 0.0]]})
        with pytest.raises(KeyError):
            group_prob(emb, "g", 0, 3)
        with pytest.raises(KeyError):
            group_prob(emb, "h", 0, 0)

    def test_sums_to_one(self):
        rng = make_rng(0)
        emb = make_emb(rng.normal(size=(3, 4)), {"g": rng.normal(size=(7, 4))})
        total = sum(group_prob(emb, "g", 1, f) for f in range(7))
        assert abs(total - 1.0) < 1e-9


class TestSgdStep:
    """One negative-sampling SGD step, ``_apply_ns_gradient``, with fixed
    negatives."""

    def test_zero_vector_loss(self):
        negatives = [0, 2, 2, 0, 2]
        emb = make_emb(np.zeros((2, 4)), {"g": np.zeros((3, 4))})
        loss = _apply_ns_gradient(emb, 0, 1, "g", negatives, lr=0.1)
        assert abs(loss - (-(len(negatives) + 1) * math.log(0.5))) < 1e-12

    def test_positive_pair_score_increases(self):
        rng = make_rng(1)
        emb = make_emb(rng.normal(size=(2, 4)) * 0.1, {"g": rng.normal(size=(3, 4)) * 0.1})
        scores = []
        for i in range(100):
            scores.append(float(emb.feature_vectors["g"][1] @ emb.word_vectors[0]))
            _apply_ns_gradient(emb, 0, 1, "g", [[0, 2], [2, 2], [0, 0]][i % 3], lr=0.05)
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(2)
        wv = rng.normal(size=(4, 3)) * 0.5
        g1 = rng.normal(size=(3, 3)) * 0.5
        g2 = rng.normal(size=(2, 3)) * 0.5
        negs = [0, 2, 2]
        wid, fid, key = 1, 1, "g1"

        def loss_fn(params):
            e = make_emb(params[0], {"g1": params[1], "g2": params[2]})
            return ns_loss(e, wid, fid, key, negs)

        # analytic gradient by a tiny lr step probe: recompute directly
        emb = make_emb(wv.copy(), {"g1": g1.copy(), "g2": g2.copy()})
        lr = 1.0
        before = [wv.copy(), g1.copy(), g2.copy()]
        _apply_ns_gradient(emb, wid, fid, key, negs, lr)
        grads = [
            (before[0] - emb.word_vectors) / lr,
            (before[1] - emb.feature_vectors["g1"]) / lr,
            (before[2] - emb.feature_vectors["g2"]) / lr,
        ]
        # the update uses pre-update vectors for every pair, so the implied
        # gradient is exact except for the word-vector cross terms; check
        # against central differences at the original point
        err = fd_gradcheck(loss_fn, [wv.copy(), g1.copy(), g2.copy()], grads, eps=1e-5)
        assert err < 1e-5


def corpus_from_sentences(sentences):
    text = "".join(
        "".join(f"{w}\tX\tO\n" for w in sent) + "\n" for sent in sentences
    )
    return parse_corpus(text.splitlines(keepends=True))


class TestTrainSkipner:
    def test_distributional_similarity(self):
        # a and b share contexts; c appears in disjoint contexts
        rng = make_rng(3)
        sents = []
        for _ in range(150):
            ctx = ["k1", "k2"]
            sents.append([ctx[0], "a", ctx[1]])
            sents.append([ctx[0], "b", ctx[1]])
            sents.append(["q1", "c", "q2"])
        corpus = corpus_from_sentences(sents)
        vocab = build_vocab(corpus)
        cfg = SkipNerConfig(dims=10, epochs=3, seed=5, negatives=3)
        emb, _ = train_skipner(corpus, vocab, cfg)

        def cos(x, y):
            a, b = emb.word_vectors[emb.id_of(x)], emb.word_vectors[emb.id_of(y)]
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        assert cos("a", "b") > cos("a", "c")

    def test_disabled_group_absent(self):
        corpus = corpus_from_sentences([["a", "b", "c"]] * 5)
        vocab = build_vocab(corpus)
        cfg = SkipNerConfig(dims=4, epochs=1, groups=("word",))
        emb, table = train_skipner(corpus, vocab, cfg)
        assert all(k.startswith("word:") for k in emb.feature_vectors)

    def test_empty_events_raise(self):
        corpus = corpus_from_sentences([["solo"]])
        vocab = build_vocab(corpus)
        with pytest.raises(ValueError):
            train_skipner(corpus, vocab, SkipNerConfig(dims=4, groups=("word",)))

    def test_deterministic_under_seed(self):
        corpus = corpus_from_sentences([["a", "b", "c", "d"]] * 10)
        vocab = build_vocab(corpus)
        cfg = SkipNerConfig(dims=6, epochs=2, seed=11)
        e1, _ = train_skipner(corpus, vocab, cfg)
        e2, _ = train_skipner(corpus, vocab, cfg)
        np.testing.assert_array_equal(e1.word_vectors, e2.word_vectors)

    def test_word_only_equals_skipgram_config(self):
        # Skip_NER restricted to the word group IS the skip-gram trainer;
        # two configs that agree on the word group produce identical bits.
        corpus = corpus_from_sentences([["a", "b", "c", "d", "e"]] * 8)
        vocab = build_vocab(corpus)
        multi = SkipNerConfig(dims=5, epochs=2, seed=3, groups=("word",))
        skipgram = SkipNerConfig(dims=5, epochs=2, seed=3, groups=("word",))
        e1, _ = train_skipner(corpus, vocab, multi)
        e2, _ = train_skipner(corpus, vocab, skipgram)
        np.testing.assert_array_equal(e1.word_vectors, e2.word_vectors)

    def test_full_softmax_objective_improves(self):
        # exact objective via enumeration on a tiny vocabulary
        corpus = corpus_from_sentences(
            [["a", "b"], ["a", "b"], ["c", "d"], ["c", "d"], ["a", "b"]] * 4
        )
        vocab = build_vocab(corpus)

        def exact_objective(emb, events):
            total = 0.0
            for ev in events:
                total += math.log(
                    group_prob(emb, ev.group_key, ev.center_word_id, ev.feature_id)
                )
            return total

        e1, t1 = train_skipner(corpus, vocab, SkipNerConfig(dims=6, epochs=1, seed=9))
        e6, t6 = train_skipner(corpus, vocab, SkipNerConfig(dims=6, epochs=6, seed=9))
        events1 = list(extract_feature_events(corpus, vocab, t1, groups=("word",)))
        events6 = list(extract_feature_events(corpus, vocab, t6, groups=("word",)))
        assert exact_objective(e6, events6) > exact_objective(e1, events1)


# A frozen longhand copy of the first SGNS update: per-negative scalar
# sigmoids, a dict of row gradients, np.searchsorted on a numpy CDF.
# train_skipner must reproduce its bits, its RNG stream and the step at
# which its loss first stops being finite.


def _frozen_sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out)


class _FrozenSampler:
    def __init__(self, w):
        self.weights = w
        self.n = w.size
        self.cdf = np.cumsum(w / w.sum())
        self.cdf[-1] = 1.0

    def sample(self, rng):
        return int(np.searchsorted(self.cdf, rng.random(), side="right"))


def _frozen_sgd_step(emb, event, sampler, lr, n, rng):
    """Returns the pre-update loss."""
    negatives = []
    support = np.count_nonzero(sampler.weights)
    if support > 1 or sampler.weights[event.feature_id] == 0:
        while len(negatives) < n:
            draw = sampler.sample(rng)
            if draw != event.feature_id:
                negatives.append(draw)
    fid = event.feature_id
    vw = emb.word_vectors[event.center_word_id]
    feats = emb.feature_vectors[event.group_key]
    grad_w = np.zeros_like(vw)
    grad_f = {}
    g = _frozen_sigmoid(feats[fid] @ vw) - 1.0
    loss = softplus(-(feats[fid] @ vw))
    grad_w += g * feats[fid]
    grad_f[fid] = g * vw
    for nid in negatives:
        g = _frozen_sigmoid(feats[nid] @ vw)
        loss += softplus(feats[nid] @ vw)
        grad_w += g * feats[nid]
        grad_f[nid] = grad_f.get(nid, 0.0) + g * vw
    for i, gf in grad_f.items():
        feats[i] -= lr * gf
    emb.word_vectors[event.center_word_id] -= lr * grad_w
    return loss


def _frozen_train(corpus, vocab, config, taxonomy):
    table = FeatureGroupTable()
    events = list(extract_feature_events(
        corpus, vocab, table, window=config.window, groups=config.groups, taxonomy=taxonomy
    ))
    counts = {}
    for ev in events:
        per = counts.setdefault(ev.group_key, {})
        per[ev.feature_id] = per.get(ev.feature_id, 0) + 1
    samplers = {}
    for key, per in counts.items():
        w = np.zeros(table.group_size(key))
        for fid, c in per.items():
            w[fid] = c
        samplers[key] = _FrozenSampler(np.power(w, config.unigram_exponent))
    rng = substream_rng(config.seed, "embed.train")
    wv = (rng.random((len(vocab), config.dims)) - 0.5) / config.dims
    feats = {k: np.zeros((table.group_size(k), config.dims)) for k in table.group_keys()}
    emb = EmbeddingSet(tokens=list(vocab.id_to_token), word_vectors=wv, feature_vectors=feats)
    total = config.epochs * len(events)
    step = 0
    for epoch in range(config.epochs):
        for idx in rng.permutation(len(events)):
            ev = events[idx]
            frac = step / max(1, total)
            lr = config.lr_initial + (config.lr_final - config.lr_initial) * frac
            loss = _frozen_sgd_step(emb, ev, samplers[ev.group_key], lr, config.negatives, rng)
            step += 1
            if not math.isfinite(loss):
                raise NumericFailure(f"epoch {epoch}, step {step}")
    return emb, samplers


def _assert_same_bits(emb, want):
    assert np.array_equal(emb.word_vectors, want.word_vectors)
    assert set(emb.feature_vectors) == set(want.feature_vectors)
    for key, rows in emb.feature_vectors.items():
        assert np.array_equal(rows, want.feature_vectors[key]), key


def test_train_matches_frozen_update_bits():
    # pos and self groups are small (many rejected and repeated negatives);
    # one concept makes every taxo group single-support, so those events
    # skip rejection sampling and have no negatives
    rng = make_rng(21)
    words = ["acme", "board", "paris", "alice", "met", "the", "in", "rome"]
    tags = ["NN", "VB", "JJ", "DT"]
    lines = []
    for _ in range(40):
        for _ in range(int(rng.integers(3, 7))):
            ne = "B-LOC" if rng.random() < 0.2 else "O"
            lines.append(f"{words[int(rng.integers(8))]}\t{tags[int(rng.integers(4))]}\t{ne}\n")
        lines.append("\n")
    corpus = parse_corpus(lines)
    vocab = build_vocab(corpus)
    taxonomy = ConceptLexicon({"city": {"paris", "rome"}})
    cfg = SkipNerConfig(dims=6, epochs=2, seed=4, groups=("word", "pos", "taxo", "self"))
    emb, _ = train_skipner(corpus, vocab, cfg, taxonomy=taxonomy)
    want, samplers = _frozen_train(corpus, vocab, cfg, taxonomy)
    assert {samplers[k].n for k in samplers if k.startswith("taxo:")} == {1}
    _assert_same_bits(emb, want)


def test_train_matches_frozen_update_bits_alias_group():
    # two-token sentences whose second words are all distinct: the word:1
    # group has more than 1,024 features
    n_sent = 1064
    text = "".join(f"a{i % 97}\tNN\tO\nb{i}\tNN\tO\n\n" for i in range(n_sent))
    corpus = parse_corpus(text.splitlines(keepends=True))
    vocab = build_vocab(corpus)
    cfg = SkipNerConfig(dims=6, epochs=1, seed=4, groups=("word",))
    emb, _ = train_skipner(corpus, vocab, cfg)
    want, samplers = _frozen_train(corpus, vocab, cfg, None)
    assert samplers["word:1"].n > 1024
    _assert_same_bits(emb, want)


@pytest.mark.parametrize("window", [1, 7])
def test_frozen_update_bits_across_windows(monkeypatch, window):
    # levels never span a window, so small windows cut the level schedule
    # at many more places: every cut must leave the bits alone
    monkeypatch.setattr(embed_mod, "_WINDOW", window)
    test_train_matches_frozen_update_bits()
    test_train_matches_frozen_update_bits_alias_group()


@pytest.mark.parametrize("window", [1, 7, embed_mod._WINDOW])
def test_nonfinite_loss_names_sequential_step(monkeypatch, window):
    # a window is checked after it is applied; the error names the first
    # event in event order whose loss is not finite, as the one-at-a-time
    # longhand does. Here a later event of a lower level is not finite too.
    rng = make_rng(11)
    words = ["acme", "board", "paris", "alice", "met", "the", "in", "rome"]
    lines = []
    for _ in range(30):
        for _ in range(int(rng.integers(3, 7))):
            ne = "B-LOC" if rng.random() < 0.2 else "O"
            lines.append(f"{words[int(rng.integers(8))]}\tNN\t{ne}\n")
        lines.append("\n")
    corpus = parse_corpus(lines)
    vocab = build_vocab(corpus)
    taxonomy = ConceptLexicon({"city": {"paris", "rome"}})
    cfg = SkipNerConfig(dims=6, epochs=2, seed=4, lr_initial=1e30,
                        groups=("word", "pos", "taxo", "self"))
    with pytest.raises(NumericFailure) as want:
        _frozen_train(corpus, vocab, cfg, taxonomy)
    step = int(str(want.value).rsplit(" ", 1)[1])
    assert step > 7 and step % 7  # inside a window of 7, after the first
    monkeypatch.setattr(embed_mod, "_WINDOW", window)
    with pytest.raises(NumericFailure, match=f"{want.value}$"):
        train_skipner(corpus, vocab, cfg, taxonomy=taxonomy)


def _sequential_draw_state(corpus, vocab, config, taxonomy):
    """The generator's state after the one-draw-at-a-time schedule: the
    initial word vectors, then per epoch one permutation and each event's
    rejection loop of ``DiscreteSampler.sample`` calls."""
    table = FeatureGroupTable()
    events = list(extract_feature_events(
        corpus, vocab, table, window=config.window, groups=config.groups, taxonomy=taxonomy
    ))
    samplers = embed_mod.build_group_samplers(events, table, config.unigram_exponent)
    rng = substream_rng(config.seed, "embed.train")
    rng.random((len(vocab), config.dims))
    for _ in range(config.epochs):
        for idx in rng.permutation(len(events)):
            ev = events[idx]
            sampler = samplers[ev.group_key]
            taken = 0
            if sampler.can_reject(ev.feature_id):
                while taken < config.negatives:
                    taken += sampler.sample(rng) != ev.feature_id
    return rng.bit_generator.state


@pytest.mark.parametrize("window", [1, 7, embed_mod._WINDOW])
def test_generator_state_after_training(monkeypatch, window):
    # draws are read ahead in blocks; the generator must end where one
    # rng.random() per draw leaves it, down to the buffered 32-bit half
    # (has_uint32, uinteger) that each epoch's permutation leaves behind
    rng = make_rng(21)
    words = ["acme", "board", "paris", "alice", "met", "the", "in", "rome"]
    lines = []
    for _ in range(40):
        for _ in range(int(rng.integers(3, 7))):
            ne = "B-LOC" if rng.random() < 0.2 else "O"
            lines.append(f"{words[int(rng.integers(8))]}\tNN\t{ne}\n")
        lines.append("\n")
    corpus = parse_corpus(lines)
    vocab = build_vocab(corpus)
    taxonomy = ConceptLexicon({"city": {"paris", "rome"}})
    cfg = SkipNerConfig(dims=6, epochs=2, seed=4, groups=("word", "pos", "taxo", "self"))
    made = []

    def recording(seed, name):
        made.append(substream_rng(seed, name))
        return made[-1]

    monkeypatch.setattr(embed_mod, "substream_rng", recording)
    monkeypatch.setattr(embed_mod, "_WINDOW", window)
    train_skipner(corpus, vocab, cfg, taxonomy=taxonomy)
    want = _sequential_draw_state(corpus, vocab, cfg, taxonomy)
    assert want["has_uint32"] == 1
    assert made[0].bit_generator.state == want


@pytest.mark.parametrize("size", [1, 3, 7, 48])
def test_window_draws_match_sample_loop(size):
    # _train_window against _frozen_sgd_step, one event at a time with one
    # DiscreteSampler.sample per draw, over windows of ``size`` events:
    # group "a" never draws its observed feature (weight 0), so its
    # negatives repeat; "b" has one outcome, so its events draw nothing; "c"
    # rejects about 15 of 16 draws of its feature 0, so small windows refill
    # the look-ahead in the middle of an event
    n, d = 2, 4
    weights = {"a": [0.0, 2.0, 1.0], "b": [5.0, 0.0], "c": [30.0, 1.0, 1.0]}
    samplers = {k: DiscreteSampler(w) for k, w in weights.items()}
    offsets = {"a": 0, "b": 3, "c": 5}
    rng = make_rng(30)
    F = np.zeros((8 + 1, d))  # one more row: the zero row that padding reads
    F[:8] = rng.normal(size=(8, d))
    wv = rng.normal(size=(5, d))
    events = [FeatureEvent(int(rng.integers(5)), fid, key)
              for key, fid in [("a", 0), ("b", 0), ("c", 0), ("c", 1), ("a", 2)] * 10]
    events = [events[i] for i in rng.permutation(len(events))]
    lr = 0.05 + 0.01 * np.arange(len(events))
    want_wv, want_F = wv.copy(), F.copy()
    want = EmbeddingSet(
        tokens=[f"w{i}" for i in range(5)], word_vectors=want_wv,
        feature_vectors={k: want_F[o:o + len(weights[k])] for k, o in offsets.items()},
    )
    got_rng, want_rng = make_rng(31), make_rng(31)
    got_rng.permutation(47), want_rng.permutation(47)
    assert want_rng.bit_generator.state["has_uint32"] == 1
    for i, ev in enumerate(events):
        _frozen_sgd_step(want, ev, samplers[ev.group_key], lr[i], n, want_rng)
    groups = {k: (offsets[k], samplers[k]) for k in weights}
    for lo in range(0, len(events), size):
        window = list(range(lo, min(lo + size, len(events))))
        bad = embed_mod._train_window(wv, F, events, window, lr[window], got_rng, n, groups)
        assert bad is None
    assert np.array_equal(wv, want_wv)
    assert F.tobytes() == want_F.tobytes()  # padding writes the zero row back as +0.0
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBatchedProducts:
    """The level kernel's premise: ``np.vecdot`` over gathered (k, B, d) rows
    against (B, d) word rows has, entry for entry, the bits of the 1-D
    ``ndarray.dot`` of one feature row and one word row."""

    @pytest.mark.parametrize("d", [5, 6, 50])
    @pytest.mark.parametrize("k", [1, 6])
    def test_vecdot_equals_row_dot(self, k, d):
        rng = make_rng(40 + d)
        F = rng.normal(size=(40, d))
        W = rng.normal(size=(30, d))
        for b in (1, 3, 17):
            reads = rng.integers(0, 40, size=(k, b))
            wids = rng.choice(30, size=b, replace=False)
            out = np.empty((k, 2 * b))
            got = np.vecdot(F.take(reads, axis=0), W.take(wids, axis=0), out=out[:, ::2])
            for j in range(k):
                for i in range(b):
                    assert got[j, i] == F[reads[j, i]].dot(W[wids[i]])


class TestQueriesAndFeatures:
    def test_nearest_duplicate_and_orthogonal(self):
        emb = make_emb([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        ranked = nearest_neighbors(emb, "w0", 2)
        assert ranked[0][0] == "w1"
        assert abs(ranked[0][1] - 1.0) < 1e-12
        assert abs(ranked[1][1]) < 1e-12

    def test_k_clamped(self):
        emb = make_emb(np.eye(3))
        assert len(nearest_neighbors(emb, "w0", 10)) == 2

    def test_oov_query(self):
        emb = make_emb(np.eye(2))
        with pytest.raises(KeyError):
            nearest_neighbors(emb, "zzz", 1)

    def test_binarize_rule(self):
        emb = make_emb(np.array([[0.5], [-0.2], [0.1], [-0.4]]).T.T)
        # one dimension whose values across the vocab are the example row
        emb = make_emb(np.array([[0.5, -0.2, 0.1, -0.4]]).T)
        out = binarize(emb)
        np.testing.assert_array_equal(out[0], [1, 0, 0, -1])

    def test_binarize_all_positive(self):
        emb = make_emb(np.array([[0.5, 0.1, 0.3]]).T)
        out = binarize(emb)
        assert set(out[0].tolist()) <= {0, 1}

    def test_binarize_all_zero(self):
        emb = make_emb(np.zeros((4, 2)))
        assert not binarize(emb).any()

    def test_binarize_scale_covariant(self):
        rng = make_rng(12)
        wv = rng.normal(size=(10, 6))
        a = binarize(make_emb(wv))
        b = binarize(make_emb(wv * 3.7))
        np.testing.assert_array_equal(a, b)

    def test_cluster_recovery_and_determinism(self):
        rng = make_rng(13)
        wv = np.vstack([rng.normal(size=(5, 3)) + 10, rng.normal(size=(5, 3)) - 10])
        emb = make_emb(wv)
        out = cluster_words(emb, [2], seed=4)
        a = out[2]
        assert len(set(a[:5].tolist())) == 1 and len(set(a[5:].tolist())) == 1
        assert a[0] != a[5]
        out2 = cluster_words(emb, [2], seed=4)
        np.testing.assert_array_equal(a, out2[2])

    def test_cluster_k_equals_v(self):
        emb = make_emb(make_rng(14).normal(size=(6, 2)))
        out = cluster_words(emb, [6], seed=1)
        assert len(set(out[6].tolist())) == 6

    def test_cluster_k_too_large(self):
        emb = make_emb(np.eye(3))
        with pytest.raises(ValueError):
            cluster_words(emb, [4], seed=1)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        emb = make_emb(make_rng(15).normal(size=(4, 3)))
        p = tmp_path / "emb.txt"
        save_embeddings(emb, p)
        back = load_embeddings(p)
        assert back.tokens == emb.tokens
        np.testing.assert_array_equal(back.word_vectors, emb.word_vectors)

    def test_row_text_is_the_fstring_form(self, tmp_path):
        # signed zeros, the smallest subnormal, the largest double and values
        # where "%.17g" switches to an exponent all format as f"{x:.17g}" does
        values = [-0.0, 0.0, 5e-324, 1e-300, 1e16, 0.1, 1.2345678901234568e17,
                  1.7976931348623157e308]
        p = tmp_path / "emb.txt"
        save_embeddings(make_emb([values]), p)
        row = p.read_text().splitlines()[1]
        assert row == "w0 " + " ".join(f"{x:.17g}" for x in np.array(values))
        np.testing.assert_array_equal(load_embeddings(p).word_vectors, [values])

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\nw0 1 2 3\n")
        with pytest.raises(ValueError):
            load_embeddings(p)

    def test_dim_mismatch(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\nw0 1 2 3\nw1 1 2\n")
        with pytest.raises(ValueError, match="emb.txt:3: line has 2 values, expected 3"):
            load_embeddings(p)

    @pytest.mark.parametrize(
        "row, count",
        [("w1 1 2 3 4", 4), ("w1 1  2 3", 4), ("w1  1 2 3", 4), ("w1", 0)],
        ids=["long", "doubled-space", "doubled-space-after-token", "token-only"],
    )
    def test_value_count_mismatch(self, tmp_path, row, count):
        # an empty field between two spaces counts as a value
        p = tmp_path / "emb.txt"
        p.write_text(f"2 3\nw0 1 2 3\n{row}\n")
        with pytest.raises(ValueError, match=f"emb.txt:3: line has {count} values, expected 3"):
            load_embeddings(p)

    @pytest.mark.parametrize(
        "row, value",
        [("w1 1 x 3", "'x'"), ("w1 1  2", "''"), ("w1 1 2 1_0", "'1_0'")],
        ids=["non-numeric", "empty-field", "underscore"],
    )
    def test_bad_value_names_line(self, tmp_path, row, value):
        # lines count from 1 as in the file; numpy's parser, unlike float(),
        # rejects digit separators
        p = tmp_path / "emb.txt"
        p.write_text(f"3 3\nw0 1 2 3\n{row}\nw2 4 5 6\n")
        with pytest.raises(ValueError, match=f"emb.txt:3: value {value} is not a number"):
            load_embeddings(p)

    @pytest.mark.parametrize("header", ["0 3", "1 0", "1"])
    def test_malformed_header(self, tmp_path, header):
        p = tmp_path / "emb.txt"
        p.write_text(f"{header}\n")
        with pytest.raises(ValueError, match="emb.txt: malformed header"):
            load_embeddings(p)

    def test_values_parse_like_float(self, tmp_path):
        # numpy's parser gives the bits of float() on signed zeros,
        # subnormals, exponents, bare signs and points, and the non-finite
        # spellings
        rows = [["-0", "1e-310", "1E+5"], ["+3", ".5", "5."], ["inf", "-inf", "nan"],
                ["0.1", "-2.5e-3", "123456789.123456789"]]
        p = tmp_path / "emb.txt"
        p.write_text("4 3\n" + "".join(f"w{i} {' '.join(r)}\n" for i, r in enumerate(rows)))
        got = load_embeddings(p).word_vectors
        want = np.array([[float(x) for x in r] for r in rows])
        assert got.dtype == np.float64 and got.shape == (4, 3)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_word2vec_trailing_space(self, tmp_path):
        # the original word2vec tool ends every row with a space
        p = tmp_path / "w2v.txt"
        p.write_text("2 3\n</s> 0.5 -1 2 \nw1 1e-3 0 4 \n")
        back = load_embeddings(p)
        assert back.tokens == ["</s>", "w1"]
        np.testing.assert_array_equal(back.word_vectors, [[0.5, -1, 2], [1e-3, 0, 4]])
