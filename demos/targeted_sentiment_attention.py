"""Targeted sentiment with concept-augmented LSTM and two-level attention.

Each sentence contains a multi-word target span; the model must decide,
per aspect category, whether the aspect is present and with what polarity.
Architecture: a bidirectional LSTM whose cell takes an extra input channel
of concept vectors attached to tokens, target-level attention that mixes
the span's hidden columns into a query vector, and aspect-conditioned
sentence-level attention producing the classification summary.

The synthetic data makes the case for *learned* target attention: the
span contains one informative cue word plus several random filler
positions.  A learned mix concentrates on the cue; the uniform-averaging
ablation dilutes it and, under dropout and a tight epoch budget, loses
aspect calibration.

Run:  python3 demos/targeted_sentiment_attention.py   (about 20 seconds)
"""

from conceptkit.sentic import (
    SenticConfig,
    encode_bilstm,
    predict_and_evaluate,
    target_attention,
    train,
)
from conceptkit.synth import TSA_ASPECTS, synth_tsa

# ---------------------------------------------------------------------------
# 1. Data: 3000 sentences, span = polarity cue + 4 junk filler positions.
# ---------------------------------------------------------------------------
data = synth_tsa(n=3000, seed=7)
train_set, dev_set, test_set = data[:2000], data[2000:2500], data[2500:]
ex = train_set[0]
print("example:", " ".join(ex.tokens))
print("  target positions:", ex.target_positions,
      " gold:", dict(ex.aspects))

# ---------------------------------------------------------------------------
# 2. Train the attention model and the uniform-averaging ablation with the
#    same seed, data, and budget.
# ---------------------------------------------------------------------------
base = dict(
    d_w=8, d_h=6, d_m=4, d_c=4, max_concepts=4,
    aspects=TSA_ASPECTS, epochs=2, lr=1e-2, dropout=0.5, seed=7,
)
att_params = train(train_set, dev_set, SenticConfig(**base))
avg_params = train(train_set, dev_set, SenticConfig(**base, target_averaging=True))

for name, params in (("attention", att_params), ("averaging", avg_params)):
    r = predict_and_evaluate(test_set, params)
    print(f"{name:9s}: sentiment {r['sentiment_acc']:.3f}  "
          f"strict {r['strict_acc']:.3f}  micro-F1 {r['micro_f1']:.3f}")

# ---------------------------------------------------------------------------
# 3. Where does the learned target attention look?  Show the weight it puts
#    on each span position for a held-out sentence: the cue word should
#    dominate the junk filler positions.
# ---------------------------------------------------------------------------
inst = next(t for t in test_set if "superb" in t.tokens)
p = att_params.arrays
columns = encode_bilstm(inst, att_params)
_, w, _ = target_attention(columns, inst.target_positions, p, uniform=False)
print("\ntarget-span attention on a held-out sentence:")
for pos, wt in zip(inst.target_positions, w):
    marker = "  <- cue" if inst.tokens[pos] in ("superb", "dreadful") else ""
    print(f"  {inst.tokens[pos]:>10s}  {wt:.3f}{marker}")
