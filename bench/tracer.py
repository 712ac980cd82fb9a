"""Outside-in tracing of conceptkit for the per-layer metrics.

The tracer wraps public functions and methods by patching module and class
attributes; nothing in ``src/`` knows about it. A function is patched in
every conceptkit module that binds it (``rerank`` imports ``align`` from
``metrics``, so both names are wrapped). A name missing at some commit is
listed as absent instead of raising, so the benchmark still runs after a
module or class is deleted.

Three kinds of wrapper:

* ``span``: records name, start, end and parent span; spans of one CLI call
  share a call id. Self time is a span's duration minus its children's.
* ``count``: counts calls per enclosing span, for hot functions where a
  span per call would cost too much.
* ``gen``: a span over the consumption of a generator, not its creation.

Spans are kept in flat arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np


def _index_table_bytes(args, kwargs, result):
    """Bytes of the table behind a 2-D ``autodiff.index``: its vector-Jacobian
    product allocates a dense gradient of that size."""
    a = args[0]
    value = getattr(a, "value", a)
    return value.nbytes if np.ndim(value) == 2 else 0


# (module, attribute path, kind, measure) -- measure(args, kwargs, result)
# returns a number summed per enclosing span.
TARGETS = [
    ("config", "load_config", "span", None),
    ("synth", "synth_tsa", "span", None),
    ("synth", "synth_nbest", "span", None),
    ("synth", "synth_fnet", "span", None),
    ("sentic", "train", "span", lambda a, k, r: len(r.tokens)),
    ("sentic", "loss_and_grads", "span", None),
    ("sentic", "predict_and_evaluate", "span", None),
    ("sentic", "forward", "span", None),
    ("sentic", "save_checkpoint", "span", None),
    ("sentic", "load_checkpoint", "span", None),
    ("sentic", "load_tsa", "span", None),
    ("autodiff", "backward", "span", None),
    ("autodiff", "index", "count", _index_table_bytes),
] + [
    ("autodiff", op, "count", None)
    for op in ("add", "sub", "mul", "matvec", "dot", "tanh", "sigmoid",
               "concat", "stack", "softmax", "log")
] + [
    ("rerank", "pretrain_generative", "span", None),
    ("rerank", "train_drbm", "span", None),
    ("rerank", "train_slp", "span", None),
    ("rerank", "score_rbm", "span", None),
    ("rerank", "slp_score", "span", None),
    ("rerank", "corpus_wer", "span", None),
    ("rerank", "save_drbm", "span", None),
    ("rerank", "load_drbm", "span", None),
    ("rerank", "load_nbest", "span", None),
    ("rerank", "phi_unigram", "count", None),
    ("rerank", "NBestList.oracle_index", "count", None),
    ("metrics", "align", "span", None),
    ("metrics", "wer", "count", None),
    ("numerics", "kmeans", "span", None),
    ("numerics", "DiscreteSampler.sample", "count", None),
    ("numerics", "SparseVector.__init__", "count", None),
    ("embed", "train_skipner", "span", None),
    ("embed", "sgd_step", "count", lambda a, k, r: a[4]),
    ("embed", "save_embeddings", "span", None),
    ("embed", "load_embeddings", "span", None),
    ("embed", "binarize", "span", None),
    ("embed", "cluster_words", "span", None),
    ("corpus", "load_corpus", "span", None),
    ("corpus", "extract_feature_events", "gen", None),
    ("corpus", "emit_crf_features", "span", None),
    ("fnet", "select_prototypes", "span", None),
    ("fnet", "warp_train", "span", None),
    ("fnet", "warp_loss_weight", "count", None),
    ("fnet", "extract_mention_features", "span", None),
    ("fnet", "score_all", "span", None),
    ("fnet", "type_infer", "span", None),
    ("fnet", "save_model", "span", None),
    ("fnet", "load_model", "span", None),
]


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.absent = []
        self._patches = []
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.call = array("q")
        self.counts = {}  # (name id, enclosing span's name id or -1) -> calls
        self.sums = {}  # same keys -> summed measure
        self._stack = []
        self.call_id = -1

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def open(self, nid):
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.call.append(self.call_id)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid):
        t = perf_counter()
        self.end[sid] = t
        self._stack.pop()
        p = self.parent[sid]
        if p >= 0:
            self.child[p] += t - self.start[sid]

    def enclosing(self):
        return self.name[self._stack[-1]] if self._stack else -1

    def _parent_name(self, sid):
        p = self.parent[sid]
        return self.name[p] if p >= 0 else -1

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a CLI call."""
        sid = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    # -- patching ----------------------------------------------------------

    def _wrapper(self, fn, name, kind, measure):
        nid = self.name_id(name)
        if kind == "gen":

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                sid = self.open(nid)
                n = 0
                try:
                    for item in fn(*args, **kwargs):
                        n += 1
                        yield item
                finally:
                    self.close(sid)
                    key = (nid, self._parent_name(sid))
                    self.sums[key] = self.sums.get(key, 0) + n

            return traced_gen
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                key = (nid, self.enclosing())
                self.counts[key] = self.counts.get(key, 0) + 1
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.sums[key] = self.sums.get(key, 0) + measure(args, kwargs, result)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if measure is not None:
                key = (nid, self._parent_name(sid))
                self.sums[key] = self.sums.get(key, 0) + measure(args, kwargs, result)
            return result

        return spanned

    def install(self):
        """Patch every target in every conceptkit namespace that binds it."""
        self.absent = []
        for module_name, path, kind, measure in TARGETS:
            name = f"{module_name}.{path}"
            try:
                module = importlib.import_module(f"conceptkit.{module_name}")
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrapper(original, name, kind, measure)
            if outer:  # a method: patch it on its class
                self._patch(owner, attr, original, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("conceptkit.") and mod is not None:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self):
        """The recorded spans as numpy arrays (durations in seconds)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        return {
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "call": np.frombuffer(self.call, dtype=np.int64).copy(),
            "start": start.copy(),
            "dur": dur,
            "self": dur - np.frombuffer(self.child, dtype=np.float64),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
