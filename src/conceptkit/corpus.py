"""Corpus ingestion and feature extraction.

File formats:
  * corpus: one token per line, TAB-separated columns TOKEN, POS, NETAG and an
    optional comma-separated CONCEPTS column; a blank line ends a sentence.
  * taxonomy: ``concept<TAB>w1,w2,...`` per line.
  * gazetteer: ``word<TAB>CLASS`` with CLASS in {LOCATION, ORGANIZATION, PERSON}.
  * CRF feature file: TAB-separated feature strings per token, gold BIO tag
    last, blank line between sentences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .artifact import read_records

log = logging.getLogger(__name__)

UNK = "<unk>"

GAZETTEER_CLASSES = ("LOCATION", "ORGANIZATION", "PERSON")


@dataclass
class Token:
    surface: str
    pos: str = ""
    ne_tag: str = ""
    concepts: tuple = ()


@dataclass
class Corpus:
    sentences: list  # list of list[Token]

    def __post_init__(self):
        for si, sent in enumerate(self.sentences):
            if not sent:
                raise ValueError(f"sentence {si} is empty")
            _check_bio(sent, si)

    def tokens(self):
        for sent in self.sentences:
            yield from sent


def _check_bio(sent, si):
    prev = "O"
    for tok in sent:
        tag = tok.ne_tag or "O"
        if tag.startswith("I-"):
            cls = tag[2:]
            if not (prev == "B-" + cls or prev == "I-" + cls):
                raise ValueError(
                    f"sentence {si}: malformed BIO transition {prev} -> {tag}"
                )
        prev = tag


def parse_corpus(lines):
    """Parse the tab-separated token-per-line format into a Corpus."""
    sentences = []
    current = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        cols = line.split("\t")
        if len(cols) < 1 or not cols[0]:
            raise ValueError(f"line {lineno}: missing token column")
        concepts = ()
        if len(cols) >= 4 and cols[3]:
            concepts = tuple(c for c in cols[3].split(",") if c)
        current.append(
            Token(
                surface=cols[0],
                pos=cols[1] if len(cols) > 1 else "",
                ne_tag=cols[2] if len(cols) > 2 else "",
                concepts=concepts,
            )
        )
    if current:
        sentences.append(current)
    if not sentences:
        raise ValueError("empty corpus")
    return Corpus(sentences)


def load_corpus(path):
    with open(path, encoding="utf-8") as f:
        return parse_corpus(f)


def serialize_corpus(corpus):
    """Inverse of parse_corpus; round-trips exactly."""
    out = []
    for sent in corpus.sentences:
        for tok in sent:
            cols = [tok.surface, tok.pos, tok.ne_tag]
            if tok.concepts:
                cols.append(",".join(tok.concepts))
            out.append("\t".join(cols))
        out.append("")
    return "\n".join(out) + "\n"


@dataclass
class Vocabulary:
    """Dense token ids ordered by (count desc, token asc); <unk> is id 0."""

    token_to_id: dict
    id_to_token: list
    counts: dict
    min_count: int

    def __len__(self):
        return len(self.id_to_token)

    def id_of(self, token):
        return self.token_to_id.get(token, self.token_to_id[UNK])

    def __contains__(self, token):
        return token in self.token_to_id

    @classmethod
    def from_tokens(cls, tokens, source):
        """Vocabulary in the id order of ``tokens`` read back from ``source``
        (a sidecar or embedding file, which stores no counts)."""
        if UNK not in tokens:
            raise ValueError(f"{source}: vocabulary lacks {UNK}")
        return cls(token_to_id={t: i for i, t in enumerate(tokens)}, id_to_token=list(tokens),
                   counts=dict.fromkeys(tokens, 0), min_count=1)

    @classmethod
    def from_counts(cls, counts, min_count):
        """<unk> first, then every token counted at least ``min_count`` times;
        a literal <unk> token keeps id 0 rather than getting a second id."""
        kept = sorted((t for t, c in counts.items() if c >= min_count and t != UNK),
                      key=lambda t: (-counts[t], t))
        id_to_token = [UNK] + kept
        return cls(token_to_id={t: i for i, t in enumerate(id_to_token)},
                   id_to_token=id_to_token,
                   counts={t: counts.get(t, 0) for t in id_to_token}, min_count=min_count)


def build_vocab(corpus, min_count=1):
    counts = {}
    for tok in corpus.tokens():
        counts[tok.surface] = counts.get(tok.surface, 0) + 1
    if not counts:
        raise ValueError("empty corpus")
    return Vocabulary.from_counts(counts, min_count)


@dataclass
class ConceptLexicon:
    """Case-insensitive concept -> word-set map."""

    concept_words: dict

    def __post_init__(self):
        self.concept_words = {
            c: {w.lower() for w in ws} for c, ws in self.concept_words.items()
        }
        self._word_concepts = {}
        for c, ws in self.concept_words.items():
            for w in ws:
                self._word_concepts.setdefault(w, []).append(c)
        for cs in self._word_concepts.values():
            cs.sort()

    def concepts_of(self, word):
        return self._word_concepts.get(word.lower(), [])


def load_taxonomy(path):
    def parse(line):
        parts = line.strip().split("\t")
        if len(parts) != 2 or not parts[1]:
            raise ValueError("expected 'concept<TAB>w1,w2,...'")
        words = {w for w in parts[1].split(",") if w}
        if not words:
            raise ValueError("empty word set")
        return parts[0], words

    concept_words = {}
    for concept, words in read_records(path, parse):
        concept_words.setdefault(concept, set()).update(words)
    if not concept_words:
        log.warning("taxonomy file %s is empty", path)
    return ConceptLexicon(concept_words)


def load_gazetteer(path):
    """word -> entity class; words listed under several classes are dropped."""
    def parse(line):
        parts = line.strip().split("\t")
        if len(parts) != 2:
            raise ValueError("expected 'word<TAB>CLASS'")
        if parts[1] not in GAZETTEER_CLASSES:
            raise ValueError(f"unknown class {parts[1]!r}")
        return parts[0].lower(), parts[1]

    seen = {}
    ambiguous = set()
    for word, cls in read_records(path, parse):
        if word in seen and seen[word] != cls:
            ambiguous.add(word)
        seen[word] = cls
    for word in ambiguous:
        del seen[word]
    if ambiguous:
        log.warning("dropped %d ambiguous gazetteer words", len(ambiguous))
    return seen


@dataclass
class FeatureGroupTable:
    """Feature-string interner keyed by (feature type, relative position).

    Every feature id is dense within its group and belongs to exactly one
    group, so the id-to-group map is a total single-valued function.
    """

    groups: dict = field(default_factory=dict)  # key -> {feature: id}

    def group_key(self, ftype, offset):
        return f"{ftype}:{offset}"

    def intern(self, key, feature):
        table = self.groups.setdefault(key, {})
        if feature not in table:
            table[feature] = len(table)
        return table[feature]

    def group_size(self, key):
        return len(self.groups.get(key, {}))

    def group_keys(self):
        return list(self.groups)


@dataclass(frozen=True)
class FeatureEvent:
    center_word_id: int
    feature_id: int
    group_key: str


# Feature type names used for group keys.
WORD, POS, TAXO, SELF = "word", "pos", "taxo", "self"


def extract_feature_events(
    corpus,
    vocab,
    table,
    window=2,
    groups=(WORD, POS, TAXO, SELF),
    taxonomy=None,
):
    """Yield one FeatureEvent per (center word, feature) pair.

    Per enabled group and position i: context words w_{i+k} and POS tags
    t_{i+k} for -window <= k <= window (k != 0 for the word group, which is
    the plain skip-gram context), taxonomic membership indicators at every
    offset including 0, and NE tags from the NETAG column. The group key
    encodes (type, k).
    """
    groups = set(groups)
    if TAXO in groups and taxonomy is None:
        raise ValueError("taxonomic group enabled but no taxonomy given")

    def emit(key, feature, wid):
        return FeatureEvent(wid, table.intern(key, feature), key)

    for si, sent in enumerate(corpus.sentences):
        n = len(sent)
        for i, tok in enumerate(sent):
            wid = vocab.id_of(tok.surface)
            for k in range(-window, window + 1):
                j = i + k
                if j < 0 or j >= n:
                    continue
                other = sent[j]
                if WORD in groups and k != 0:
                    yield emit(table.group_key(WORD, k), other.surface, wid)
                if POS in groups:
                    if not other.pos:
                        raise ValueError(
                            f"sentence {si}: POS column required for pos group"
                        )
                    yield emit(table.group_key(POS, k), other.pos, wid)
                if TAXO in groups:
                    for concept in taxonomy.concepts_of(other.surface):
                        yield emit(table.group_key(TAXO, k), concept, wid)
                if SELF in groups:
                    if not other.ne_tag:
                        raise ValueError(
                            f"sentence {si}: NETAG column required for self group"
                        )
                    yield emit(table.group_key(SELF, k), other.ne_tag, wid)


def _unigram_block(k, surface, pos):
    """The word, POS and affix (lengths 1-4) features of one token at offset
    k, TAB-joined."""
    feats = [f"w[{k}]={surface}", f"pos[{k}]={pos}"]
    for l in range(1, min(4, len(surface)) + 1):
        feats.append(f"pre{l}[{k}]={surface[:l]}")
        feats.append(f"suf{l}[{k}]={surface[-l:]}")
    return "\t".join(feats)


def emit_crf_features(corpus, vocab, binarized, clusterings, window=2):
    """Render the CRF training file: baseline templates plus embedding-derived
    binarized-dimension and cluster features, BIO tag last.

    ``binarized`` is the (dims x V) matrix in {-1,0,1}; ``clusterings`` maps
    K to a V-length assignment array. Only non-zero binarized entries emit
    features.
    """
    # the generator's caches are freed before the join builds the text
    return "\n".join(_crf_lines(corpus, vocab, binarized, clusterings, window)) + "\n"


def _crf_lines(corpus, vocab, binarized, clusterings, window):
    """One line per token, a blank line after each sentence.

    Per token, the fields are: the baseline word/POS/affix unigrams and the
    word and POS bigrams in the window, each window word's ``vd`` and ``cK``
    features, then the cluster bigrams and ``cK[-1^+1]``, then the tag. A
    token's unigram block and a word's ``vd``/``cK`` block at a given offset
    are the same at every occurrence, so each is formatted once.
    """
    ks = sorted(clusterings)
    cluster_ids = {K: [str(int(c)) for c in clusterings[K].tolist()] for K in ks}
    # each word's "dim:sign" strings, for its non-zero binarized dimensions
    signs = [[f"{dim}:{int(v)}" for dim, v in enumerate(col) if v] for col in binarized.T.tolist()]
    unigram_blocks = {}
    word_blocks = {}
    for sent in corpus.sentences:
        n = len(sent)
        wid = [vocab.id_of(t.surface) for t in sent]
        for i, tok in enumerate(sent):
            lo, hi = max(0, i - window), min(n, i + window + 1)
            feats = []
            for j in range(lo, hi):
                key = (j - i, sent[j].surface, sent[j].pos)
                block = unigram_blocks.get(key)
                if block is None:
                    block = unigram_blocks[key] = _unigram_block(*key)
                feats.append(block)
            for j in range(lo, hi - 1):
                k, a, b = j - i, sent[j], sent[j + 1]
                feats.append(f"w[{k},{k+1}]={a.surface}_{b.surface}")
                feats.append(f"pos[{k},{k+1}]={a.pos}_{b.pos}")
            for j in range(lo, hi):
                key = (j - i, wid[j])
                block = word_blocks.get(key)
                if block is None:
                    k, w = key
                    block = word_blocks[key] = "\t".join(
                        [f"vd[{k}]={s}" for s in signs[w]]
                        + [f"c{K}[{k}]={cluster_ids[K][w]}" for K in ks]
                    )
                if block:
                    feats.append(block)
            for K in ks:
                ids = cluster_ids[K]
                for j in range(lo, hi - 1):
                    k = j - i
                    feats.append(f"c{K}[{k},{k+1}]={ids[wid[j]]}_{ids[wid[j + 1]]}")
                if 0 < i < n - 1:
                    feats.append(f"c{K}[-1^+1]={ids[wid[i - 1]]}_{ids[wid[i + 1]]}")
            feats.append(tok.ne_tag or "O")
            yield "\t".join(feats)
        yield ""
