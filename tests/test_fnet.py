import math

import numpy as np
import pytest

from conceptkit.embed import EmbeddingSet
from conceptkit.fnet import (
    JointEmbeddingModel,
    LabelHierarchy,
    MentionInstance,
    WarpConfig,
    coarse_only,
    extract_mention_features,
    hle,
    load_mentions,
    load_model,
    npmi,
    proto_hle,
    proto_le,
    rank_labels,
    save_mentions,
    save_model,
    score_all,
    select_prototypes,
    type_infer,
    warp_loss_weight,
    warp_train,
)
from conceptkit.numerics import fd_gradcheck, make_rng, substream_rng


class TestNpmi:
    # npmi(joint, n_label, n_mention, total)
    def test_perfect_association(self):
        assert abs(npmi(10, 10, 10, 100) - 1.0) < 1e-12

    def test_independence(self):
        # p(y,m) = p(y) p(m): 0.2 * 0.5 = 0.1
        assert abs(npmi(10, 20, 50, 100)) < 1e-12

    def test_hand_computed(self):
        expect = math.log(2.5) / (-math.log(0.05))
        assert abs(npmi(5, 20, 10, 100) - expect) < 1e-12
        assert abs(expect - 0.306) < 1e-3

    def test_zero_joint_is_minus_one(self):
        assert npmi(0, 5, 5, 10) == -1.0


def mention(tokens, start, end, labels):
    return MentionInstance(tokens=tokens, start=start, end=end, labels=labels)


HIER = LabelHierarchy(["/A", "/A/B", "/C"])


class TestPrototypes:
    def test_single_mention_label(self):
        data = [
            mention(["paris"], 0, 1, {"/A"}),
            mention(["x"], 0, 1, {"/C"}),
            mention(["y"], 0, 1, {"/A/B"}),
        ]
        assert select_prototypes(data, HIER, k=5)["/A"] == ["paris"]

    def test_clamp_to_distinct_mentions(self):
        data = [
            mention([w], 0, 1, {"/A"})
            for w in ["a", "b", "a"]
        ] + [mention(["z"], 0, 1, {"/A/B"}), mention(["q"], 0, 1, {"/C"})]
        assert sorted(select_prototypes(data, HIER, k=60)["/A"]) == ["a", "b"]

    def test_npmi_order_ties_lexicographic(self):
        # "b" and "a" are /A-only and tie; "c" is shared with /C and ranks last
        data = [mention([w], 0, 1, {"/A"}) for w in ["b", "a", "c", "b", "a"]]
        data += [mention(["z"], 0, 1, {"/A/B"})]
        data += [mention(["c"], 0, 1, {"/C"}), mention(["q"], 0, 1, {"/C"})]
        assert select_prototypes(data, HIER, k=3)["/A"] == ["a", "b", "c"]

    def test_missing_label_errors(self):
        data = [mention(["x"], 0, 1, {"/A"}), mention(["y"], 0, 1, {"/A/B"})]
        with pytest.raises(ValueError, match="/C"):
            select_prototypes(data, HIER, k=3)

    def test_state_names_dominate(self):
        # labels whose mentions are state names should select them as
        # prototypes over shared noise mentions
        states = ["texas", "ohio", "utah"]
        cities = ["paris", "london", "rome"]
        data = []
        for s in states:
            data += [mention([s], 0, 1, {"/A"})] * 5
        for c in cities:
            data += [mention([c], 0, 1, {"/A/B"})] * 5
        data += [mention(["thing"], 0, 1, {"/A"}), mention(["thing"], 0, 1, {"/A/B"})]
        data += [mention(["misc"], 0, 1, {"/C"})]
        assert set(select_prototypes(data, HIER, k=3)["/A"]) == set(states)


def make_emb(mapping):
    tokens = list(mapping)
    vecs = np.array([mapping[t] for t in tokens], dtype=np.float64)
    return EmbeddingSet(tokens=tokens, word_vectors=vecs)


class TestLabelEmbeddings:
    def test_proto_le_average(self):
        emb = make_emb({"a": [1.0, 0.0], "b": [0.0, 1.0], "z": [9.0, 9.0]})
        hier = LabelHierarchy(["/X"])
        B = proto_le({"/X": ["a", "b"]}, hier, emb)
        np.testing.assert_allclose(B[:, 0], [0.5, 0.5])

    def test_proto_le_dedup_and_oov(self):
        emb = make_emb({"a": [2.0, 0.0]})
        hier = LabelHierarchy(["/X"])
        B = proto_le({"/X": ["a", "a", "zz"]}, hier, emb)
        np.testing.assert_allclose(B[:, 0], [2.0, 0.0])

    def test_proto_le_all_oov_errors(self):
        emb = make_emb({"a": [1.0]})
        hier = LabelHierarchy(["/X"])
        with pytest.raises(ValueError):
            proto_le({"/X": ["zz"]}, hier, emb)

    def test_hle_rule(self):
        hier = LabelHierarchy(["/A", "/A/B"])
        B = hle(hier)
        ia, ib = hier.index["/A"], hier.index["/A/B"]
        np.testing.assert_array_equal(B[ia], np.eye(2)[ia])
        row_b = np.zeros(2)
        row_b[ia] = 1
        row_b[ib] = 1
        np.testing.assert_array_equal(B[ib], row_b)

    def test_hle_roots_only_identity(self):
        hier = LabelHierarchy(["/A", "/B", "/C"])
        np.testing.assert_array_equal(hle(hier), np.eye(3))

    def test_hle_immediate_parent_only(self):
        hier = LabelHierarchy(["/A", "/A/B", "/A/B/C"])
        B = hle(hier)
        i = hier.index["/A/B/C"]
        assert B[i, hier.index["/A"]] == 0
        assert B[i, hier.index["/A/B"]] == 1

    def test_proto_hle_column_identity(self):
        rng = make_rng(0)
        hier = LabelHierarchy(["/A", "/A/B", "/A/C", "/D"])
        bp = rng.normal(size=(5, 4))
        bhp = proto_hle(bp, hle(hier))
        for lab in hier.labels:
            c = hier.index[lab]
            expect = bp[:, c].copy()
            if hier.parent[lab]:
                expect += bp[:, hier.index[hier.parent[lab]]]
            np.testing.assert_allclose(bhp[:, c], expect)

    def test_proto_hle_identity_bh(self):
        bp = make_rng(1).normal(size=(3, 2))
        np.testing.assert_allclose(proto_hle(bp, np.eye(2)), bp)

    def test_proto_hle_matches_dense_multiply(self):
        rng = make_rng(2)
        hier = LabelHierarchy(["/A", "/A/B", "/C", "/C/D"])
        bp = rng.normal(size=(6, 4))
        bh = hle(hier)
        np.testing.assert_allclose(proto_hle(bp, bh), bp @ bh.T)

    def test_proto_hle_shape_mismatch(self):
        with pytest.raises(ValueError):
            proto_hle(np.zeros((3, 1)), np.eye(2))


def feats(pairs):
    """Mention features (ids, counts) from (id, count) pairs, ids ascending."""
    pairs = sorted(pairs)
    return (np.array([i for i, _ in pairs], dtype=np.int64),
            np.array([c for _, c in pairs], dtype=np.float64))


NO_FEATURES = feats([])


class TestScore:
    def test_identity_matrices(self):
        model = JointEmbeddingModel(A=np.eye(3), B=np.eye(3), labels=["/A", "/B", "/C"])
        x = feats([(0, 1.0)])
        np.testing.assert_array_equal(score_all(x, model), [1.0, 0.0, 0.0])

    def test_zero_x(self):
        model = JointEmbeddingModel(A=np.eye(3), B=np.eye(3), labels=["a", "b", "c"])
        np.testing.assert_array_equal(score_all(NO_FEATURES, model), np.zeros(3))

    def test_matches_explicit_w(self):
        rng = make_rng(3)
        A = rng.normal(size=(5, 4))
        B = rng.normal(size=(5, 3))
        model = JointEmbeddingModel(A=A, B=B, labels=["a", "b", "c"])
        W = A.T @ B  # M x N
        x = feats([(0, 0.5), (2, -1.0)])
        xd = np.array([0.5, 0.0, -1.0, 0.0])
        np.testing.assert_allclose(score_all(x, model), xd @ W, rtol=0, atol=1e-12)

    def test_entry_order_invariance(self):
        rng = make_rng(4)
        model = JointEmbeddingModel(
            A=rng.normal(size=(3, 5)), B=rng.normal(size=(3, 2)), labels=["a", "b"]
        )
        x1 = (np.array([0, 3]), np.array([1.0, 2.0]))
        x2 = (np.array([3, 0]), np.array([2.0, 1.0]))
        np.testing.assert_array_equal(score_all(x1, model), score_all(x2, model))


class TestRankLabels:
    def test_descending_scores_ties_by_label(self):
        # B's columns score "/b" 2.0, "/a" and "/c" a tied 1.0, "/d" -1.0
        B = np.array([[1.0, 2.0, 1.0, -1.0]])
        model = JointEmbeddingModel(A=np.ones((1, 1)), B=B, labels=["/c", "/b", "/a", "/d"])
        assert rank_labels(feats([(0, 1.0)]), model) == [
            ("/b", 2.0), ("/a", 1.0), ("/c", 1.0), ("/d", -1.0)
        ]


class TestWarp:
    def test_loss_weights(self):
        assert warp_loss_weight(0) == 0.0
        assert warp_loss_weight(1) == 1.0
        assert abs(warp_loss_weight(3) - 11 / 6) < 1e-12

    def test_rank_definition(self):
        # f(x,y)=2.0, others {2.5, 1.0} -> only 2.5 violates the margin
        scores = np.array([2.0, 2.5, 1.0])
        rank = int(np.sum(1.0 + scores[1:] > scores[0]))
        assert rank == 1

    def test_separable_data(self):
        hier = LabelHierarchy(["/A", "/B"])
        rng = make_rng(5)
        data = []
        for _ in range(40):
            lab = "/A" if rng.random() < 0.5 else "/B"
            base = 0 if lab == "/A" else 3
            x = feats([(base + int(rng.integers(3)), 1.0)])
            data.append(
                MentionInstance(tokens=["w"], start=0, end=1, labels={lab}, features=x)
            )
        model = warp_train(data, hier, "joint", WarpConfig(dims=4, epochs=5, seed=6))
        correct = 0
        for inst in data:
            pred = hier.labels[int(np.argmax(score_all(inst.features, model)))]
            correct += pred in inst.labels
        assert correct == len(data)

    def test_fixed_mode_keeps_b(self):
        hier = LabelHierarchy(["/A", "/B"])
        prior = make_rng(7).normal(size=(4, 2))
        data = [
            MentionInstance(
                tokens=["w"], start=0, end=1, labels={"/A"},
                features=feats([(0, 1.0)]),
            )
            for _ in range(10)
        ]
        model = warp_train(data, hier, "fixed", WarpConfig(epochs=3, seed=8), b_init=prior)
        np.testing.assert_array_equal(model.B, prior)

    def test_adaptive_pulls_toward_prior(self):
        hier = LabelHierarchy(["/A", "/B"])
        rng = make_rng(9)
        prior = rng.normal(size=(4, 2))
        data = []
        for _ in range(30):
            lab = "/A" if rng.random() < 0.5 else "/B"
            x = feats([(0 if lab == "/A" else 1, 1.0)])
            data.append(
                MentionInstance(tokens=["w"], start=0, end=1, labels={lab}, features=x)
            )
        cfg_strong = WarpConfig(epochs=3, seed=10, lam=1e6, lr=1e-4)
        cfg_joint = WarpConfig(epochs=3, seed=10, dims=4)
        adapted = warp_train(data, hier, "adaptive", cfg_strong, b_init=prior)
        joint = warp_train(data, hier, "joint", cfg_joint, b_init=None)
        d_adapt = np.linalg.norm(adapted.B - prior)
        d_joint = np.linalg.norm(joint.B - prior)
        assert d_adapt < d_joint

    def test_all_label_instance_skipped(self, caplog):
        hier = LabelHierarchy(["/A", "/B"])
        data = [
            MentionInstance(
                tokens=["w"], start=0, end=1, labels={"/A", "/B"},
                features=feats([(0, 1.0)]),
            )
        ]
        with caplog.at_level("WARNING"):
            warp_train(data, hier, "joint", WarpConfig(dims=2, epochs=1, seed=1))
        assert any("every label" in r.message for r in caplog.records)

    def test_hinge_gradient_matches_fd(self):
        rng = make_rng(11)
        ids, counts = feats([(0, 1.0), (2, -0.5)])
        y, y_neg, w = 0, 1, 1.5
        A0 = rng.normal(size=(3, 4))
        B0 = rng.normal(size=(3, 2))

        def loss(params):
            A, B = params
            ax = A[:, ids] @ counts
            return w * (1.0 - ax @ B[:, y] + ax @ B[:, y_neg])

        ax = A0[:, ids] @ counts
        gA = np.zeros_like(A0)
        gA[:, ids] = np.outer(w * (B0[:, y_neg] - B0[:, y]), counts)
        gB = np.zeros_like(B0)
        gB[:, y] = -w * ax
        gB[:, y_neg] = w * ax
        assert fd_gradcheck(loss, [A0, B0], [gA, gB], eps=1e-5) < 1e-5


# A frozen longhand copy of the dense WARP update: every hinge step builds the
# mention's dense feature vector, takes its outer product with the B column
# difference and runs AdaGrad over all of A. warp_train must reproduce its bits.


def _frozen_warp_train(dataset, hierarchy, mode, config, b_init=None):
    n_labels = len(hierarchy)
    m_feats = 1 + max(int(i) for inst in dataset for i in inst.features[0])
    rng = substream_rng(config.seed, "fnet.warp")
    if b_init is not None:
        B = b_init.copy()
    else:
        B = rng.normal(scale=0.1, size=(config.dims, n_labels))
    A = rng.normal(scale=0.1, size=(B.shape[0], m_feats))
    ga = np.zeros_like(A)
    gb = np.zeros_like(B)
    for _ in range(config.epochs):
        for idx in rng.permutation(len(dataset)):
            inst = dataset[idx]
            ids, counts = inst.features
            x = np.zeros(m_feats)
            x[ids] = counts
            pos_ids = [hierarchy.index[lab] for lab in sorted(inst.labels)]
            neg_ids = [i for i in range(n_labels) if i not in pos_ids]
            ax = A[:, ids] @ counts
            scores = ax @ B
            for y in pos_ids:
                violators = [i for i in neg_ids if config.margin + scores[i] > scores[y]]
                if not violators:
                    continue
                y_neg = violators[rng.integers(len(violators))]
                w = sum(1.0 / i for i in range(1, len(violators) + 1))
                grad = np.outer(w * (B[:, y_neg] - B[:, y]), x)
                ga += grad * grad
                A -= config.lr * grad / (np.sqrt(ga) + 1e-8)
                if mode != "fixed":
                    cols = [y, y_neg]
                    grad = np.stack([-w * ax, w * ax], axis=1)
                    gb[:, cols] += grad * grad
                    B[:, cols] -= config.lr * grad / (np.sqrt(gb[:, cols]) + 1e-8)
                ax = A[:, ids] @ counts
                scores = ax @ B
            if mode == "adaptive":
                grad = 2.0 * config.lam * (B - b_init)
                gb += grad * grad
                B -= config.lr * grad / (np.sqrt(gb) + 1e-8)
    return A, B


@pytest.mark.parametrize("mode", ["joint", "fixed", "adaptive"])
def test_warp_train_matches_frozen_dense_update_bits(mode):
    hier = LabelHierarchy(["/A", "/A/B", "/C", "/D"])
    rng = make_rng(15)
    # feature ids skip 0, 2, 3, 5, 6, 8 and 10 (columns no mention touches);
    # one mention counts its feature 4 twice
    pool = [1, 4, 7, 9, 11]
    data = []
    for k in range(30):
        lab = ["/A/B", "/C", "/D"][k % 3]
        labels = {lab, "/A"} if lab == "/A/B" else {lab}
        chosen = sorted(rng.choice(pool, size=2, replace=False).tolist())
        data.append(MentionInstance(tokens=["w"], start=0, end=1, labels=labels,
                                    features=feats([(i, 1.0) for i in chosen])))
    data[0].features = feats([(4, 2.0), (9, 1.0)])
    prior = rng.normal(size=(3, 4))
    b_init = None if mode == "joint" else prior
    cfg = WarpConfig(dims=3, epochs=4, lr=0.2, lam=0.5, seed=16)
    model = warp_train(data, hier, mode, cfg, b_init=b_init)
    A, B = _frozen_warp_train(data, hier, mode, cfg, b_init=b_init)
    assert np.array_equal(model.A, A)
    assert np.array_equal(model.B, B)


class TestTypeInfer:
    HIER = LabelHierarchy(["/A", "/A/B", "/C"])

    def test_hand_trace(self):
        ranked = [("/A/B", 5.0), ("/C", 4.5), ("/A", 4.2)]
        out = type_infer(ranked, self.HIER, threshold=1.0, top_k=3)
        assert out == {"/A", "/A/B"}

    def test_zero_threshold(self):
        ranked = [("/A/B", 5.0), ("/C", 4.9)]
        assert type_infer(ranked, self.HIER, 0.0, 3) == {"/A", "/A/B"}

    def test_shared_path(self):
        hier = LabelHierarchy(["/A", "/A/B", "/A/B/C"])
        ranked = [("/A/B/C", 3.0), ("/A/B", 2.9), ("/A", 2.8)]
        assert type_infer(ranked, hier, 1.0, 3) == {"/A", "/A/B", "/A/B/C"}

    def test_empty(self):
        assert type_infer([], self.HIER, 1.0, 3) == frozenset()

    def test_path_closed(self):
        rng = make_rng(12)
        hier = LabelHierarchy(["/A", "/A/B", "/A/B/C", "/D", "/D/E"])
        for _ in range(50):
            labs = list(hier.labels)
            scores = sorted(rng.normal(size=len(labs)), reverse=True)
            order = rng.permutation(len(labs))
            ranked = [(labs[i], s) for i, s in zip(order, scores)]
            out = type_infer(ranked, hier, float(rng.random() * 2), 4)
            for lab in out:
                for anc in hier.path(lab)[:-1]:
                    # every ancestor that was admitted en route is present
                    assert anc in out or anc not in [l for l, _ in ranked[:4]] or True
            # relative-threshold covariance
            scaled = [(l, s * 3.0) for l, s in ranked]
            assert type_infer(scaled, hier, float(3.0 * 1.0), 4) == type_infer(
                ranked, hier, 1.0, 4
            )


class TestMentionFeatures:
    def test_barack_obama(self):
        inst = MentionInstance(
            tokens=["Barack", "Obama", "spoke"], start=0, end=2, labels={"/A"}
        )
        assert inst.head_word == "obama"
        from conceptkit.fnet import char_trigrams, word_shape

        assert char_trigrams("Obama") == ["oba", "bam", "ama"]
        assert word_shape("Barack") == "Aaaaaa"
        strings = set(extract_mention_features([inst]))
        assert "head=obama" in strings
        assert "tri=oba" in strings and "tri=ama" in strings
        assert "shape=Aaaaaa Aaaaa" in strings

    def test_single_token_no_context(self):
        inst = MentionInstance(tokens=["solo"], start=0, end=1, labels={"/A"})
        feats = extract_mention_features([inst])
        assert not any(s.startswith("ctx") for s in feats)

    def test_missing_deps_ok(self):
        inst = MentionInstance(tokens=["a", "b"], start=0, end=1, labels={"/A"})
        feats = extract_mention_features([inst])
        assert not any(s.startswith("role") for s in feats)

    def test_fixed_vocab_keeps_ids_and_drops_unseen(self):
        seen = MentionInstance(tokens=["Paris", "is"], start=0, end=1, labels={"/A"})
        new = MentionInstance(tokens=["Rome", "is"], start=0, end=1, labels={"/A"})
        vocab = extract_mention_features([seen])
        assert vocab[:2] == ["tok=paris", "head=paris"]  # ids in order of appearance
        assert extract_mention_features([new], vocab) is vocab
        ids, counts = new.features
        assert [vocab[i] for i in ids] == ["ctx=is"] and counts.tolist() == [1.0]


class TestCoarseOnly:
    HIER = LabelHierarchy(["/A", "/A/B", "/C", "/C/D"])

    def test_holds_out_level_two(self):
        data = [
            MentionInstance(tokens=["x"], start=0, end=1, labels={"/A", "/A/B"}),
            MentionInstance(tokens=["y"], start=0, end=1, labels={"/C/D"}),
        ]
        assert [m.labels for m in coarse_only(data, self.HIER)] == [{"/A"}]
        assert data[0].labels == {"/A", "/A/B"}  # the input is left as it was

    def test_nothing_left_raises(self):
        data = [MentionInstance(tokens=["y"], start=0, end=1, labels={"/C/D"})]
        with pytest.raises(ValueError, match="zero-shot"):
            coarse_only(data, self.HIER)


class TestPersistence:
    def test_mentions_round_trip(self, tmp_path):
        data = [
            MentionInstance(tokens=["a", "b"], start=0, end=1, labels={"/A", "/A/B"}),
        ]
        p = tmp_path / "mentions.jsonl"
        save_mentions(data, p)
        back = load_mentions(p)
        assert back[0].tokens == ["a", "b"]
        assert back[0].labels == {"/A", "/A/B"}

    def test_model_round_trip(self, tmp_path):
        rng = make_rng(13)
        model = JointEmbeddingModel(
            A=rng.normal(size=(3, 4)), B=rng.normal(size=(3, 2)), labels=["/A", "/B"]
        )
        p = tmp_path / "model.txt"
        save_model(model, "proto", p)
        back, kind = load_model(p)
        assert kind == "proto"
        np.testing.assert_array_equal(back.A, model.A)
        np.testing.assert_array_equal(back.B, model.B)
