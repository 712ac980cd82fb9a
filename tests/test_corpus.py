import numpy as np
import pytest

from conceptkit.corpus import (
    ConceptLexicon,
    FeatureGroupTable,
    Vocabulary,
    build_vocab,
    emit_crf_features,
    extract_feature_events,
    load_gazetteer,
    load_taxonomy,
    parse_corpus,
    serialize_corpus,
)

SIMPLE = "london\tNNP\tB-LOC\nis\tVBZ\tO\nbig\tJJ\tO\n\n"


def make_corpus(text=SIMPLE):
    return parse_corpus(text.splitlines(keepends=True))


class TestParsing:
    def test_round_trip(self):
        text = (
            "london\tNNP\tB-LOC\n"
            "calling\tVBG\tO\n\n"
            "a\tDT\tO\nb\tNN\tO\n\n"
        )
        c = make_corpus(text)
        assert serialize_corpus(c) == text
        c2 = parse_corpus(serialize_corpus(c).splitlines(keepends=True))
        assert serialize_corpus(c2) == text

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            make_corpus("\n\n")

    def test_bad_bio_raises(self):
        with pytest.raises(ValueError, match="BIO"):
            make_corpus("a\tDT\tO\nb\tNN\tI-LOC\n\n")

    def test_bio_class_switch_raises(self):
        with pytest.raises(ValueError, match="BIO"):
            make_corpus("a\tDT\tB-PER\nb\tNN\tI-LOC\n\n")


class TestVocabulary:
    def test_min_count_filter(self):
        c = make_corpus("a\tX\tO\na\tX\tO\na\tX\tO\nb\tX\tO\n\n")
        v = build_vocab(c, min_count=2)
        assert "a" in v and "b" not in v
        assert v.id_of("b") == v.token_to_id["<unk>"] == 0

    def test_min_count_one_keeps_all(self):
        c = make_corpus()
        v = build_vocab(c, min_count=1)
        assert len(v) == 4  # 3 tokens + <unk>

    def test_tie_break_lexicographic(self):
        c = make_corpus("b\tX\tO\na\tX\tO\nc\tX\tO\n\n")
        v = build_vocab(c)
        assert v.id_to_token == ["<unk>", "a", "b", "c"]

    def test_literal_unk_token_keeps_id_zero(self):
        c = make_corpus("a\tX\tO\na\tX\tO\n<unk>\tX\tO\n\n")
        v = build_vocab(c)
        assert v.id_to_token == ["<unk>", "a"]
        assert v.token_to_id == {"<unk>": 0, "a": 1}
        assert len(v) == 2


class TestLexicons:
    def test_taxonomy(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("city\tLondon,paris\n")
        lex = load_taxonomy(p)
        assert lex.concepts_of("LONDON") == ["city"]
        assert lex.concepts_of("rome") == []

    def test_taxonomy_malformed(self, tmp_path):
        p = tmp_path / "tax.tsv"
        p.write_text("city london,paris\n")
        with pytest.raises(ValueError, match=":1"):
            load_taxonomy(p)

    def test_empty_taxonomy_warns(self, tmp_path, caplog):
        p = tmp_path / "tax.tsv"
        p.write_text("")
        with caplog.at_level("WARNING"):
            lex = load_taxonomy(p)
        assert lex.concept_words == {}
        assert caplog.records

    def test_gazetteer_ambiguity_dropped(self, tmp_path):
        p = tmp_path / "gaz.tsv"
        p.write_text(
            "washington\tPERSON\nwashington\tLOCATION\nlondon\tLOCATION\n"
        )
        gaz = load_gazetteer(p)
        assert "washington" not in gaz
        assert gaz["london"] == "LOCATION"

    def test_gazetteer_bad_class(self, tmp_path):
        p = tmp_path / "gaz.tsv"
        p.write_text("london\tCITY\n")
        with pytest.raises(ValueError, match=":1"):
            load_gazetteer(p)


class TestEvents:
    def test_window_enumeration(self):
        c = make_corpus()
        v = build_vocab(c)
        table = FeatureGroupTable()
        events = list(
            extract_feature_events(c, v, table, window=2, groups=("word",))
        )
        got = {
            (v.id_to_token[e.center_word_id], e.group_key, e.feature_id)
            for e in events
        }
        expect_pairs = {
            ("london", "word:1", "is"),
            ("london", "word:2", "big"),
            ("is", "word:-1", "london"),
            ("is", "word:1", "big"),
            ("big", "word:-1", "is"),
            ("big", "word:-2", "london"),
        }
        decoded = set()
        for center, key, fid in got:
            inv = {i: f for f, i in table.groups[key].items()}
            decoded.add((center, key, inv[fid]))
        assert decoded == expect_pairs

    def test_taxonomic_hit_and_miss(self):
        c = make_corpus()
        v = build_vocab(c)
        lex = ConceptLexicon({"city": {"london"}})
        table = FeatureGroupTable()
        events = list(
            extract_feature_events(
                c, v, table, window=2, groups=("taxo",), taxonomy=lex
            )
        )
        at_zero = [
            e
            for e in events
            if e.group_key == "taxo:0"
            and v.id_to_token[e.center_word_id] == "london"
        ]
        assert len(at_zero) == 1
        # "is" and "big" are in no concept: no taxo:0 events centered there
        others = [
            e
            for e in events
            if e.group_key == "taxo:0"
            and v.id_to_token[e.center_word_id] != "london"
        ]
        assert others == []

    def test_missing_pos_column(self):
        c = make_corpus("a\t\tO\n\n")
        v = build_vocab(c)
        with pytest.raises(ValueError, match="sentence 0"):
            list(
                extract_feature_events(
                    c, v, FeatureGroupTable(), groups=("pos",)
                )
            )

    def test_group_membership_single_valued(self):
        c = make_corpus()
        v = build_vocab(c)
        table = FeatureGroupTable()
        list(
            extract_feature_events(c, v, table, groups=("word", "pos"))
        )
        # a (group, id) pair resolves to exactly one feature string
        for key, mapping in table.groups.items():
            ids = list(mapping.values())
            assert sorted(ids) == list(range(len(ids)))

    def test_position_locality(self):
        base = "a\tX\tO\nb\tX\tO\nc\tX\tO\nd\tX\tO\ne\tX\tO\nf\tX\tO\n\n"
        edited = base.replace("f\tX\tO", "z\tX\tO")
        c1, c2 = make_corpus(base), make_corpus(edited)
        v = build_vocab(make_corpus(base.replace("\n\n", "\nz\tX\tO\n\n")))
        t1, t2 = FeatureGroupTable(), FeatureGroupTable()
        ev1 = list(extract_feature_events(c1, v, t1, groups=("word",)))
        ev2 = list(extract_feature_events(c2, v, t2, groups=("word",)))

        def decode(events, table):
            out = []
            for e in events:
                inv = {i: f for f, i in table.groups[e.group_key].items()}
                out.append((e.center_word_id, e.group_key, inv[e.feature_id]))
            return out

        d1, d2 = decode(ev1, t1), decode(ev2, t2)
        # events centered >2 positions away from the edited token agree
        far1 = [x for x in d1 if x[0] in {v.id_of(w) for w in "abc"}]
        far2 = [x for x in d2 if x[0] in {v.id_of(w) for w in "abc"}]
        assert far1 == far2
        assert d1 != d2


def emit_text(tmp_path, corpus, vocab, binarized, clusterings, **kw):
    """The text ``emit_crf_features`` writes, read back byte for byte."""
    path = tmp_path / "crf.txt"
    emit_crf_features(corpus, vocab, binarized, clusterings, path, **kw)
    return path.read_bytes().decode("utf-8")


class TestCrfEmission:
    @pytest.fixture(autouse=True)
    def setup(self, tmp_path):
        self.c = make_corpus()
        self.v = build_vocab(self.c)
        self.tmp = tmp_path

    def test_zero_binarized_emits_nothing(self):
        binz = np.zeros((4, len(self.v)), dtype=np.int8)
        out = emit_text(self.tmp, self.c, self.v, binz, {})
        assert "vd[" not in out

    def test_single_token_no_bigrams(self):
        c = make_corpus("solo\tNN\tO\n\n")
        v = build_vocab(c)
        binz = np.zeros((2, len(v)), dtype=np.int8)
        out = emit_text(self.tmp, c, v, binz, {5: np.zeros(len(v), dtype=int)})
        line = out.splitlines()[0]
        assert "w[0,1]" not in line and "c5[0,1]" not in line
        assert "c5[-1^+1]" not in line

    def test_disjunction_needs_both_neighbors(self):
        binz = np.zeros((2, len(self.v)), dtype=np.int8)
        out = emit_text(
            self.tmp, self.c, self.v, binz, {2: np.zeros(len(self.v), dtype=int)}
        )
        lines = [l for l in out.splitlines() if l]
        # only the middle token of the 3-token sentence has both neighbors
        assert "c2[-1^+1]" not in lines[0]
        assert "c2[-1^+1]" in lines[1]
        assert "c2[-1^+1]" not in lines[2]

    def test_unknown_k_raises(self):
        binz = np.zeros((2, len(self.v)), dtype=np.int8)
        cl = {3: np.zeros(2, dtype=int)}  # wrong length -> index error later
        with pytest.raises(Exception):
            emit_text(self.tmp, self.c, self.v, binz, cl)
        # the failed write leaves neither the file nor its temporary
        assert list(self.tmp.iterdir()) == []

    def test_tag_is_last_column(self):
        binz = np.zeros((2, len(self.v)), dtype=np.int8)
        out = emit_text(self.tmp, self.c, self.v, binz, {})
        first = out.splitlines()[0].split("\t")
        assert first[-1] == "B-LOC"


def _baseline_longhand(sent, i, window):
    n = len(sent)
    feats = []
    for k in range(-window, window + 1):
        j = i + k
        if 0 <= j < n:
            w = sent[j].surface
            feats.append(f"w[{k}]={w}")
            feats.append(f"pos[{k}]={sent[j].pos}")
            for l in range(1, 5):
                if l <= len(w):
                    feats.append(f"pre{l}[{k}]={w[:l]}")
                    feats.append(f"suf{l}[{k}]={w[-l:]}")
    for k in range(-window, window):
        j, j2 = i + k, i + k + 1
        if 0 <= j < n and 0 <= j2 < n:
            feats.append(f"w[{k},{k+1}]={sent[j].surface}_{sent[j2].surface}")
            feats.append(f"pos[{k},{k+1}]={sent[j].pos}_{sent[j2].pos}")
    return feats


def _emit_longhand(corpus, vocab, binarized, clusterings, window):
    """Every feature string formatted at every occurrence."""
    lines = []
    for sent in corpus.sentences:
        n = len(sent)
        wid = [vocab.id_of(t.surface) for t in sent]
        for i, tok in enumerate(sent):
            feats = _baseline_longhand(sent, i, window)
            for k in range(-window, window + 1):
                j = i + k
                if not (0 <= j < n):
                    continue
                col = binarized[:, wid[j]]
                for dim in col.nonzero()[0]:
                    feats.append(f"vd[{k}]={dim}:{int(col[dim])}")
                for K, assign in sorted(clusterings.items()):
                    feats.append(f"c{K}[{k}]={int(assign[wid[j]])}")
            for K, assign in sorted(clusterings.items()):
                for k in range(-window, window):
                    j, j2 = i + k, i + k + 1
                    if 0 <= j < n and 0 <= j2 < n:
                        feats.append(
                            f"c{K}[{k},{k+1}]={int(assign[wid[j]])}_{int(assign[wid[j2]])}"
                        )
                if 0 <= i - 1 and i + 1 < n:
                    feats.append(
                        f"c{K}[-1^+1]={int(assign[wid[i-1]])}_{int(assign[wid[i+1]])}"
                    )
            feats.append(tok.ne_tag or "O")
            lines.append("\t".join(feats))
        lines.append("")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("ks", [(), (3,), (5, 2)])
def test_crf_emission_matches_longhand(window, ks, tmp_path):
    text = (
        "the\tDT\tO\nparis\tNNP\tB-LOC\nsummit\tNN\tO\nin\tIN\tO\nthe\tDT\tO\n"
        "spring\tNN\tO\n\n"
        "solo\tNN\tO\n\n"
        "the\tDT\tO\nzanzibar\tNNP\tB-LOC\n\n"
        "in\tIN\tO\nparis\tNNP\tB-LOC\nthe\tDT\tO\nqux\tNN\tO\nsummit\tNN\tO\n"
        "paris\tNNP\tB-LOC\nin\tIN\t\n\n"
        # a surface holding an offset marker, and one-character words, next
        # to each other: an offset put in by replacing text would corrupt them
        "the\tDT\tO\na[0]=b_c\tSYM\tO\nx\tNN\tO\ny\tNN\tO\nin\tIN\tO\n\n"
    )
    corpus = make_corpus(text)
    # "solo", "zanzibar", "qux" and "y" are not in the vocabulary: they map to <unk>
    vocab = Vocabulary.from_tokens(
        ["<unk>", "the", "paris", "summit", "in", "spring", "a[0]=b_c", "x"], "emb")
    rng = np.random.default_rng(window)
    binz = rng.integers(-1, 2, size=(6, len(vocab))).astype(np.int8)
    binz[:, 3] = 0  # "summit" has no binarized features
    binz[:, 0] = 0
    clusterings = {K: rng.integers(K, size=len(vocab)) for K in ks}
    got = emit_text(tmp_path, corpus, vocab, binz, clusterings, window=window)
    assert got == _emit_longhand(corpus, vocab, binz, clusterings, window)
    assert "\t\t" not in got
