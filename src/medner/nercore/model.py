"""The BiLSTM-CNN-CRF tagger: parameter container, forward pass, exact
reverse-mode gradients, and Viterbi prediction with posterior marginals.

Per token the forward pass concatenates a static word vector (plus an
optional trainable delta) with the char-CNN feature vector, applies inverted
dropout, encodes with a BiLSTM, applies dropout again, and projects to
bounded per-tag scores through tanh. The CRF on top is in crf.py.

Training runs model_forward and model_backward one sentence at a time.
Inference (`tag`) runs the same network without dropout in one batched
pass: word features and LSTM input projections once per distinct surface,
then the BiLSTM, emissions and CRF over buckets of length-sorted sentences.
model_forward with crf.viterbi and crf.marginals stays its per-sentence
oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..corpus import LabelSchema, Sentence, Vocabulary
from ..embeddings import OOV_POLICIES, EmbeddingTable
from ..errors import NumericError, ValidationError
from . import crf
from .layers import (
    CharCnnCache,
    LstmParams,
    bilstm_backward,
    bilstm_batch,
    bilstm_forward,
    char_cnn_backward,
    char_cnn_batch,
    char_cnn_forward,
    dropout_mask,
    emission_backward,
    emission_scores,
)

DROP_INPUT = 0
DROP_HIDDEN = 1

# `tag` runs the BiLSTM-CRF over buckets of length-sorted sentences of at most
# this many padded token positions (the char-CNN likewise over characters):
# enough rows per step to keep the matrix products busy, while a bucket's
# buffers stay a few MB at the paper's dimensions.
BATCH_TOKENS = 1024
# `tag` holds the LSTM input projections (2 x 4 x lstm_size floats each) of
# about this many distinct surfaces at once and tags a call with more in
# consecutive runs of sentences, so its memory does not grow with the
# vocabulary of a long document.
CACHE_SURFACES = 512


@dataclass
class TrainConfig:
    """Model dimensions and optimization hyperparameters.

    Defaults follow the tuned values: lr 1e-3, batch 64, 30 epochs, dropout
    0.5, Adam, kernel width 2, LSTM state 200, char embedding 128, word
    embedding 768, max sequence length 512, 3000 warmup steps. The word/char
    dimensions are independent knobs; the word dimension must match the
    loaded embedding table. max_seq_length caps the sentences of the
    training corpus only: predict, evaluate, deidentify and convert keep
    every token, since the BiLSTM-CRF has no positional limit.
    """

    word_dim: int = 768
    char_dim: int = 128
    kernel_width: int = 2
    num_filters: int = 25
    lstm_size: int = 200
    use_char_features: bool = True
    train_word_delta: bool = False
    max_seq_length: int = 512
    use_transition_mask: bool = True
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 30
    dropout: float = 0.5
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    warmup_steps: int = 3000
    early_stopping_patience: int = 5
    grad_clip_norm: float = 5.0
    seed: int = 42
    oov_policy: str = "lowercase_then_unk"
    confidence_mode: str = "min"

    def __post_init__(self):
        positive = (
            "word_dim", "char_dim", "kernel_width", "num_filters", "lstm_size",
            "max_seq_length", "learning_rate", "batch_size",
            "beta1", "beta2", "epsilon", "warmup_steps",
            "early_stopping_patience", "grad_clip_norm",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.max_epochs < 0:
            raise ValidationError("max_epochs must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        if self.oov_policy not in OOV_POLICIES:
            raise ValidationError(f"unknown oov_policy {self.oov_policy!r}")
        if self.confidence_mode not in ("min", "geomean"):
            raise ValidationError(f"unknown confidence_mode {self.confidence_mode!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


@dataclass
class ModelParams:
    """All trainable tensors plus the schema, vocab, and embedding table.

    The trainable tensors are views of one flat buffer, so the optimizer,
    gradient clipping and snapshots work on `flat` as a whole.
    """

    config: TrainConfig
    schema: LabelSchema
    vocab: Vocabulary
    embed: EmbeddingTable
    char_emb: np.ndarray
    char_filters: np.ndarray
    char_bias: np.ndarray
    lstm_fwd: LstmParams
    lstm_bwd: LstmParams
    w_c: np.ndarray
    b_c: np.ndarray
    transitions: np.ndarray
    word_delta: np.ndarray | None = None
    transition_mask: np.ndarray | None = field(default=None, repr=False)
    # every tensors() entry is a C-contiguous view of this 1-D float64
    # buffer, in tensors() order: the layout save_model writes
    flat: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """Make every tensor a view of `flat`. A `flat` that the tensors already
        tile (load_model's payload, dataclasses.replace) is kept; otherwise
        they are copied into a new buffer."""
        tensors = self.tensors()
        if self._tiled_by(tensors):
            return
        self.flat = np.empty(sum(t.size for t in tensors.values()))
        views = self.views(self.flat)
        for name, t in tensors.items():
            views[name][...] = t
        self.char_emb = views["char_emb"]
        self.char_filters = views["char_filters"]
        self.char_bias = views["char_bias"]
        self.lstm_fwd = LstmParams(views["lstm_fwd_w"], views["lstm_fwd_u"], views["lstm_fwd_b"])
        self.lstm_bwd = LstmParams(views["lstm_bwd_w"], views["lstm_bwd_u"], views["lstm_bwd_b"])
        self.w_c = views["w_c"]
        self.b_c = views["b_c"]
        self.transitions = views["transitions"]
        self.word_delta = views.get("word_delta")

    def _tiled_by(self, tensors: dict[str, np.ndarray]) -> bool:
        flat = self.flat
        if (flat is None or flat.ndim != 1 or flat.dtype != np.float64
                or not flat.flags.c_contiguous
                or flat.size != sum(t.size for t in tensors.values())):
            return False
        return all(
            t.dtype == np.float64 and t.flags.c_contiguous and t.ctypes.data == v.ctypes.data
            for t, v in zip(tensors.values(), self.views(flat).values())
        )

    @property
    def input_dim(self) -> int:
        extra = self.config.num_filters if self.config.use_char_features else 0
        return self.embed.dimension + extra

    def tensors(self) -> dict[str, np.ndarray]:
        """Trainable tensors in a fixed order (optimizer and container order)."""
        out = {
            "char_emb": self.char_emb,
            "char_filters": self.char_filters,
            "char_bias": self.char_bias,
            "lstm_fwd_w": self.lstm_fwd.w,
            "lstm_fwd_u": self.lstm_fwd.u,
            "lstm_fwd_b": self.lstm_fwd.b,
            "lstm_bwd_w": self.lstm_bwd.w,
            "lstm_bwd_u": self.lstm_bwd.u,
            "lstm_bwd_b": self.lstm_bwd.b,
            "w_c": self.w_c,
            "b_c": self.b_c,
            "transitions": self.transitions,
        }
        if self.word_delta is not None:
            out["word_delta"] = self.word_delta
        return out

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a buffer laid out as `flat`, by tensors() name and shape."""
        out, start = {}, 0
        for name, t in self.tensors().items():
            out[name] = flat[start : start + t.size].reshape(t.shape)
            start += t.size
        return out

    def zero_grads(self) -> Gradients:
        return Gradients(np.zeros_like(self.flat), self)

    def num_parameters(self) -> int:
        return self.flat.size

    def assert_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        for name, t in self.tensors().items():
            if not np.all(np.isfinite(t)):
                raise NumericError(f"tensor {name} contains non-finite values")

    def pin_masked_transitions(self) -> None:
        if self.transition_mask is not None:
            self.transitions[~self.transition_mask] = crf.MASK_SCORE

    def effective_transitions(self) -> np.ndarray:
        return crf.apply_mask(self.transitions, self.transition_mask)


class Gradients(dict):
    """d(loss)/d(tensor) by tensors() name, each a view of the 1-D buffer
    `flat`, laid out as the model's parameters."""

    def __init__(self, flat: np.ndarray, model: ModelParams):
        super().__init__(model.views(flat))
        self.flat = flat


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(
    config: TrainConfig,
    schema: LabelSchema,
    vocab: Vocabulary,
    embed: EmbeddingTable,
    seed: int | None = None,
) -> ModelParams:
    """Fresh parameters, packed into one flat buffer; deterministic for a
    fixed seed."""
    if embed.dimension != config.word_dim:
        raise ValidationError(
            f"embedding dimension {embed.dimension} does not match word_dim {config.word_dim}"
        )
    rng = np.random.default_rng(config.seed if seed is None else seed)
    d_char, k, m = config.char_dim, config.kernel_width, config.num_filters
    s = config.lstm_size
    t = schema.num_tags
    d_in = config.word_dim + (m if config.use_char_features else 0)

    char_emb = rng.uniform(-np.sqrt(3.0 / d_char), np.sqrt(3.0 / d_char), size=(vocab.num_chars, d_char))
    char_filters = _glorot(rng, k * d_char, m, (m, k, d_char))
    char_bias = np.zeros(m)

    def make_lstm() -> LstmParams:
        w = _glorot(rng, d_in, s, (4 * s, d_in))
        u = _glorot(rng, s, s, (4 * s, s))
        b = np.zeros(4 * s)
        b[s : 2 * s] = 1.0  # forget-gate bias
        return LstmParams(w, u, b)

    lstm_fwd = make_lstm()
    lstm_bwd = make_lstm()
    w_c = _glorot(rng, 2 * s, t, (t, 2 * s))
    b_c = np.zeros(t)
    transitions = rng.uniform(-0.1, 0.1, size=(t + 2, t + 2))
    word_delta = np.zeros((vocab.num_words, config.word_dim)) if config.train_word_delta else None
    mask = schema.transition_mask() if config.use_transition_mask else None

    model = ModelParams(
        config, schema, vocab, embed,
        char_emb, char_filters, char_bias,
        lstm_fwd, lstm_bwd, w_c, b_c, transitions,
        word_delta, mask,
    )
    model.pin_masked_transitions()
    return model


@dataclass
class ForwardCache:
    surfaces: list[str]
    word_rows: list[int]
    char_caches: list[CharCnnCache] | None
    x: np.ndarray
    drop_in: np.ndarray | None
    h: np.ndarray
    lstm_caches: tuple
    drop_h: np.ndarray | None
    emissions: np.ndarray


def model_forward(
    model: ModelParams,
    sentence: Sentence | list[str],
    train_mode: bool = False,
    step: int = 0,
    unit: int = 0,
) -> tuple[np.ndarray, ForwardCache]:
    """Emission scores (N, num_tags) plus everything backward needs.

    Dropout only fires in train mode; its masks come from a counter-based
    stream keyed by (seed, step, unit, layer) so batches are reproducible
    regardless of evaluation order.
    """
    surfaces = sentence.surfaces() if isinstance(sentence, Sentence) else list(sentence)
    cfg = model.config
    n = len(surfaces)
    word_rows = [model.vocab.word_index(s) for s in surfaces]
    word_vecs = np.empty((n, model.embed.dimension))
    for i, surface in enumerate(surfaces):
        word_vecs[i] = model.embed.lookup(surface)
        if model.word_delta is not None:
            word_vecs[i] += model.word_delta[word_rows[i]]

    char_caches: list[CharCnnCache] | None = None
    if cfg.use_char_features:
        char_caches = []
        feats = np.empty((n, cfg.num_filters))
        for i, surface in enumerate(surfaces):
            out, cache = char_cnn_forward(
                model.char_emb, model.char_filters, model.char_bias,
                model.vocab.char_indices(surface),
            )
            feats[i] = out
            char_caches.append(cache)
        x = np.concatenate([word_vecs, feats], axis=1)
    else:
        x = word_vecs

    drop_in = None
    if train_mode and cfg.dropout > 0.0:
        drop_in = dropout_mask(x.shape, cfg.dropout, cfg.seed, step, unit, DROP_INPUT)
        x = x * drop_in

    h, lstm_caches = bilstm_forward(model.lstm_fwd, model.lstm_bwd, x)

    drop_h = None
    if train_mode and cfg.dropout > 0.0:
        drop_h = dropout_mask(h.shape, cfg.dropout, cfg.seed, step, unit, DROP_HIDDEN)
        h = h * drop_h

    emissions = emission_scores(model.w_c, model.b_c, h)
    return emissions, ForwardCache(
        surfaces, word_rows, char_caches, x, drop_in, h, lstm_caches, drop_h, emissions
    )


def model_backward(
    model: ModelParams,
    cache: ForwardCache,
    d_emissions: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Accumulate d(loss)/d(tensor) into `grads` for one sentence."""
    cfg = model.config
    d_h = emission_backward(
        model.w_c, cache.emissions, cache.h, d_emissions, grads["w_c"], grads["b_c"]
    )
    if cache.drop_h is not None:
        d_h = d_h * cache.drop_h
    d_x = bilstm_backward(
        model.lstm_fwd,
        model.lstm_bwd,
        cache.lstm_caches,
        d_h,
        (grads["lstm_fwd_w"], grads["lstm_fwd_u"], grads["lstm_fwd_b"]),
        (grads["lstm_bwd_w"], grads["lstm_bwd_u"], grads["lstm_bwd_b"]),
    )
    if cache.drop_in is not None:
        d_x = d_x * cache.drop_in
    word_dim = model.embed.dimension
    if model.word_delta is not None:
        np.add.at(grads["word_delta"], cache.word_rows, d_x[:, :word_dim])
    if cfg.use_char_features:
        assert cache.char_caches is not None
        for i, char_cache in enumerate(cache.char_caches):
            char_cnn_backward(
                model.char_filters,
                char_cache,
                d_x[i, word_dim:],
                grads["char_emb"],
                grads["char_filters"],
                grads["char_bias"],
            )


def gold_path(model: ModelParams, sentence: Sentence) -> list[int]:
    """Tag indices of the gold sequence; rejects paths the mask forbids."""
    tags = sentence.tags()
    try:
        path = [model.schema.tag_to_index[t] for t in tags]
    except KeyError as exc:
        raise ValidationError(
            f"{sentence.doc_id}[{sentence.sent_index}]: tag {exc.args[0]!r} not in schema"
        )
    if model.transition_mask is not None:
        mask = model.transition_mask
        start, stop = model.schema.start_index, model.schema.stop_index
        pairs = [(start, path[0])] + list(zip(path, path[1:])) + [(path[-1], stop)]
        for a, b in pairs:
            if not mask[a, b]:
                raise ValidationError(
                    f"{sentence.doc_id}[{sentence.sent_index}]: gold tags use the "
                    f"forbidden transition {model.schema.tags[a] if a < len(model.schema.tags) else 'START'}"
                    f" -> {model.schema.tags[b] if b < len(model.schema.tags) else 'STOP'}"
                )
    return path


def batch_nll(model: ModelParams, batch: list[Sentence]) -> float:
    """Sum of per-sentence CRF negative log-likelihoods (evaluation mode)."""
    trans = model.effective_transitions()
    total = 0.0
    for sent in batch:
        emissions, _ = model_forward(model, sent, train_mode=False)
        total += crf.nll(emissions, trans, gold_path(model, sent))
    return total


def batch_nll_and_grads(
    model: ModelParams,
    batch: list[Sentence],
    train_mode: bool = True,
    step: int = 0,
) -> tuple[float, Gradients]:
    """Loss and exact gradients summed over the batch in sentence order."""
    grads = model.zero_grads()
    trans = model.effective_transitions()
    total = 0.0
    for unit, sent in enumerate(batch):
        emissions, cache = model_forward(model, sent, train_mode=train_mode, step=step, unit=unit)
        loss, d_em, d_tr = crf.nll_and_gradients(emissions, trans, gold_path(model, sent))
        total += loss
        grads["transitions"] += d_tr
        model_backward(model, cache, d_em, grads)
    if model.transition_mask is not None:
        grads["transitions"][~model.transition_mask] = 0.0
    return total, grads


def _buckets(lens_desc: np.ndarray):
    """Consecutive slices of descending lengths, each of at most BATCH_TOKENS
    padded positions (rows x the first, longest length); a row longer than
    the budget gets a slice of its own."""
    start = 0
    while start < len(lens_desc):
        stop = start + max(1, BATCH_TOKENS // int(lens_desc[start]))
        yield slice(start, stop)
        start = stop


def _input_projections(
    model: ModelParams, words: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The LSTM input projections `x @ w.T + b` of each word, both directions.

    x is model_forward's input vector without dropout: the word vector (plus
    its trainable delta) and the char-CNN features, which run over
    length-sorted buckets of padded characters.
    """
    cfg = model.config
    x = np.array([model.embed.lookup(w) for w in words])
    if model.word_delta is not None:
        x += model.word_delta[[model.vocab.word_index(w) for w in words]]
    if cfg.use_char_features:
        chars = [model.vocab.char_indices(w) for w in words]
        lens = np.array([max(len(c), cfg.kernel_width) for c in chars])
        order = np.argsort(-lens, kind="stable")
        feats = np.empty((len(words), cfg.num_filters))
        for bucket in _buckets(lens[order]):
            rows = order[bucket]
            feats[rows] = char_cnn_batch(
                model.char_emb, model.char_filters, model.char_bias, [chars[r] for r in rows]
            )
        x = np.concatenate([x, feats], axis=1)
    return (x @ model.lstm_fwd.w.T + model.lstm_fwd.b,
            x @ model.lstm_bwd.w.T + model.lstm_bwd.b)


def _tag_run(
    model: ModelParams, trans: np.ndarray, words: list[str], ids: list[np.ndarray],
    marginals: bool,
) -> list[tuple[list[str], np.ndarray | None]]:
    """`tag` over sentences given as indices into their distinct words."""
    t = model.schema.num_tags
    out = [([], np.zeros((0, t)) if marginals else None) for _ in ids]
    lens = np.array([len(i) for i in ids], dtype=np.intp)
    order = np.argsort(-lens, kind="stable")
    order = order[lens[order] > 0]
    if len(order) == 0:
        return out
    zx_fwd, zx_bwd = _input_projections(model, words)
    for bucket in _buckets(lens[order]):
        rows = order[bucket]
        blens = lens[rows]
        tok = np.zeros((len(rows), blens[0]), dtype=np.intp)
        for r, s in enumerate(rows):
            tok[r, : blens[r]] = ids[s]
        h = bilstm_batch(model.lstm_fwd.u, model.lstm_bwd.u, zx_fwd, zx_bwd, tok, blens)
        emissions = emission_scores(model.w_c, model.b_c, h)
        paths = crf.viterbi_batch(emissions, trans, blens)
        marg = crf.marginals_batch(emissions, trans, blens) if marginals else None
        for r, s in enumerate(rows):
            out[s] = (
                [model.schema.tags[i] for i in paths[r, : blens[r]]],
                marg[r, : blens[r]] if marg is not None else None,
            )
    return out


def tag(
    model: ModelParams, sentences: list[Sentence] | list[list[str]], marginals: bool
) -> list[tuple[list[str], np.ndarray | None]]:
    """Viterbi tags under the schema transition mask, one pair per sentence.

    The second item of each pair is the (N, num_tags) posterior marginal
    matrix when `marginals` is set, else None; chunk confidences read the
    column of each chosen tag. This is the only inference loop, and it
    computes what model_forward, crf.viterbi and crf.marginals compute for
    each sentence, in one batched pass:

    - the word features and LSTM input projections run once per distinct
      surface (inference has no dropout), for at most CACHE_SURFACES
      surfaces at a time: a call with more is tagged in consecutive runs of
      sentences;
    - non-empty sentences are sorted by length, longest first, and cut into
      buckets of at most BATCH_TOKENS padded positions, in which the BiLSTM,
      the emissions, Viterbi and (only when asked) the marginals run over
      all rows at once, each row to its own length.

    So working memory is bounded whatever the number of sentences, and a
    sentence's tags do not depend on the other sentences in the call.
    """
    # the schema mask applies at prediction even when training ran unmasked
    trans = crf.apply_mask(model.transitions, model.schema.transition_mask())
    out: list[tuple[list[str], np.ndarray | None]] = []
    index: dict[str, int] = {}
    ids: list[np.ndarray] = []
    for sentence in sentences:
        words = sentence.surfaces() if isinstance(sentence, Sentence) else sentence
        ids.append(np.array([index.setdefault(w, len(index)) for w in words], dtype=np.intp))
        if len(index) >= CACHE_SURFACES:
            out += _tag_run(model, trans, list(index), ids, marginals)
            index, ids = {}, []
    out += _tag_run(model, trans, list(index), ids, marginals)
    return out


def predict(
    model: ModelParams, sentence: Sentence | list[str]
) -> tuple[list[str], np.ndarray]:
    """Tags and marginals of one sentence: `tag` with marginals on."""
    return tag(model, [sentence], marginals=True)[0]
