"""Per-layer tracing from outside the program.

Each traced layer is a public function of medner, replaced for the length of
a `Tracer.installed()` block by a wrapper at every name its callers look up
(for example `predict` is bound both in `medner.cli` and in
`medner.nercore.training`). A wrapper records one span (name, start, end,
parent) in memory; some wrappers also count the work they saw. A layer whose
name a refactor removed is reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

# Where an ancestor span of a marginals call is one of these, the call's
# result never reaches chunk decoding.
DISCARDING_SPANS = ("nercore.validation", "evaluation.report")


def _tokens_in(corpus_or_sentences) -> int:
    sentences = getattr(corpus_or_sentences, "sentences", corpus_or_sentences)
    return sum(len(s) for s in sentences)


def _conll_token_lines(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.startswith("-DOCSTART-"))


# (span name, module, attribute, counter hook). A hook receives the tracer,
# the call's positional arguments and its result, after the span has closed.
LAYERS = (
    ("cli.command", "medner.cli", "main", None),
    ("corpus.parse_conll", "medner.cli", "parse_conll",
     lambda t, a, r: t.count("corpus.tokens_dropped",
                             _conll_token_lines(a[0]) - _tokens_in(r))),
    ("corpus.ingest", "medner.cli", "ingest_raw_text",
     lambda t, a, r: t.count("corpus.ingest.tokens", _tokens_in(r))),
    ("embeddings.load", "medner.cli", "load_embeddings",
     lambda t, a, r: t.count("embeddings.load.floats", len(r) * r.dimension)),
    ("embeddings.lookup", "medner.embeddings", "EmbeddingTable.lookup", None),
    ("nercore.fit", "medner.cli", "fit", None),
    ("nercore.batch_grads", "medner.nercore.training", "batch_nll_and_grads", None),
    ("nercore.predict", "medner.cli", "predict", None),
    ("nercore.predict", "medner.nercore.training", "predict", None),
    ("nercore.model_forward", "medner.nercore.model", "model_forward", None),
    ("nercore.char_cnn_forward", "medner.nercore.model", "char_cnn_forward", None),
    ("nercore.lstm_forward", "medner.nercore.layers", "lstm_forward", None),
    ("nercore.emission", "medner.nercore.model", "emission_scores", None),
    ("nercore.dropout_mask", "medner.nercore.model", "dropout_mask", None),
    ("nercore.crf_viterbi", "medner.nercore.crf", "viterbi", None),
    ("nercore.marginals", "medner.nercore.crf", "marginals", None),
    ("nercore.crf_forward_backward", "medner.nercore.crf", "forward_backward", None),
    ("nercore.crf_nll_grad", "medner.nercore.crf", "nll_and_gradients", None),
    ("nercore.model_backward", "medner.nercore.model", "model_backward", None),
    ("nercore.char_cnn_backward", "medner.nercore.model", "char_cnn_backward", None),
    ("nercore.lstm_backward", "medner.nercore.layers", "lstm_backward", None),
    ("nercore.clip", "medner.nercore.training", "clip_gradients", None),
    ("nercore.adam_step", "medner.nercore.training", "adam_step", None),
    ("nercore.validation", "medner.nercore.training", "validation_micro_f1", None),
    ("nercore.save_model", "medner.cli", "save_model", None),
    ("nercore.load_model", "medner.cli", "load_model",
     lambda t, a, r: t.count("nercore.load_model.bytes", os.path.getsize(a[0]))),
    ("evaluation.report", "medner.cli", "_evaluate_model", None),
    ("chunking.decode", "medner.chunking", "decode_chunks",
     lambda t, a, r: t.count("chunking.chunks", len(r))),
    ("chunking.write_records", "medner.chunking", "write_chunk_records", None),
    ("deid.apply_policy", "medner.deid", "apply_policy",
     lambda t, a, r: t.count("deid.replacements", len(r.replacements))),
)

# Count-only wrappers: no span, so no self time is taken from their caller.
COUNTERS = (
    ("corpus.tokenized", "medner.cli", "tokenize",
     lambda t, a, r: t.count("corpus.tokenized", len(r))),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) or None when the name no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans in memory as parallel lists; span i's parent is parents[i]."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack = [-1]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def _wrap_span(self, name, fn, hook):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _wrap_counter(self, _name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer that still exists; restore the originals on exit."""
        originals = []
        missing = set()
        for entries, wrap in ((LAYERS, self._wrap_span), (COUNTERS, self._wrap_counter)):
            for name, module, attr, hook in entries:
                target = _resolve(module, attr)
                if target is None:
                    missing.add(f"{name} ({module}.{attr})")
                    continue
                owner, key = target
                # a class attribute is read raw, so a method stays a plain function
                fn = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
                originals.append((owner, key, fn))
                setattr(owner, key, wrap(name, fn, hook))
        self.absent = sorted(missing)
        try:
            yield self
        finally:
            for owner, key, fn in reversed(originals):
                setattr(owner, key, fn)

    def self_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self time, summed inclusive time, call count.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly, so children never overlap.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            self_s[self.names[i]] += dur - child[i]
            total_s[self.names[i]] += dur
            calls[self.names[i]] += 1
        return self_s, total_s, calls

    def marginals_used(self) -> tuple[int, int]:
        """(marginals calls whose result reaches chunk decoding, all calls).

        Decided from parentage: a call under validation or model evaluation
        has its marginals thrown away.
        """
        used = total = 0
        for i, name in enumerate(self.names):
            if name != "nercore.marginals":
                continue
            total += 1
            p = self.parents[i]
            while p >= 0 and self.names[p] not in DISCARDING_SPANS:
                p = self.parents[p]
            used += p < 0
        return used, total

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.parents[i]}\t{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    self_s, total_s, calls = tracer.self_times()
    c = tracer.counts
    used, marg_calls = tracer.marginals_used()

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES[1:]:
        out[f"{name}.s"] = (self_s.get(name, 0.0), "s")
    # SPAN_NAMES[0] is the CLI entry point: report its whole time and its self time
    out["cli.command.s"] = (total_s.get("cli.command", 0.0), "s")
    out["cli.self.s"] = (self_s.get("cli.command", 0.0), "s")
    for name in ("embeddings.lookup", "nercore.model_forward", "nercore.char_cnn_forward",
                 "nercore.lstm_forward", "nercore.marginals", "nercore.predict"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["nercore.steps"] = (calls.get("nercore.adam_step", 0), "count")
    out["nercore.marginals_used_ratio"] = (used / marg_calls if marg_calls else 0.0, "ratio")
    out["corpus.ingest.tokens"] = (c["corpus.ingest.tokens"], "count")
    dropped = c["corpus.tokens_dropped"] + c["corpus.tokenized"] - c["corpus.ingest.tokens"]
    out["corpus.tokens_dropped"] = (dropped, "count")
    out["embeddings.load.floats_per_s"] = (
        rate(c["embeddings.load.floats"], total_s.get("embeddings.load", 0.0)), "1/s")
    out["nercore.load_model.mb_per_s"] = (
        rate(c["nercore.load_model.bytes"] / 1e6, total_s.get("nercore.load_model", 0.0)), "MB/s")
    out["chunking.chunks"] = (c["chunking.chunks"], "count")
    out["deid.replacements"] = (c["deid.replacements"], "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (len(tracer.names), "count")
    return out
