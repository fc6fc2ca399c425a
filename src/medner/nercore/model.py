"""The BiLSTM-CNN-CRF tagger: parameter container, the batched network
with exact reverse-mode gradients, and Viterbi tagging with posterior
marginals.

param_shapes is the one place that names the trainable tensors and gives
their shapes and order: ModelParams views its flat buffer by it, init_model
fills those views, and load_model checks a container against it.

Per token the network concatenates a static word vector (plus an optional
trainable delta) with the char-CNN feature vector, applies inverted dropout,
encodes with a BiLSTM, applies dropout again, and projects to bounded
per-tag scores through tanh. The CRF on top is in crf.py.

Training (`batch_nll_and_grads`) and inference (`tag`) run one batched
implementation of every layer: word features once per distinct surface,
then the BiLSTM, emissions and CRF over buckets of length-sorted sentences.
Inference has no dropout, so `tag` projects the features once per surface;
training projects them per token after dropout. Training has no separate
evaluation mode: it applies model.config's dropout, and a model whose
dropout is 0 trains without. The tests compare both against a per-sentence
oracle of the network (tests/oracles.py).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ..chunking import CONFIDENCE_MODES
from ..corpus import LabelSchema, Sentence, Vocabulary
from ..embeddings import OOV_POLICIES, EmbeddingTable
from ..errors import NumericError, ValidationError
from . import crf
from .layers import (
    LstmParams,
    bilstm_batch,
    bilstm_batch_backward,
    char_cnn_batch,
    char_cnn_batch_backward,
    dropout_mask,
    emission_backward,
    emission_scores,
)

DROP_INPUT = 0
DROP_HIDDEN = 1

# Training and `tag` run the BiLSTM-CRF over buckets of length-sorted
# sentences of at most this many padded token positions (the char-CNN likewise
# over characters): enough rows per step to keep the matrix products busy,
# while a bucket's buffers stay a few MB (training: a few tens of MB) at the
# paper's dimensions.
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
            "max_seq_length", "learning_rate", "batch_size", "epsilon", "warmup_steps",
            "early_stopping_patience", "grad_clip_norm",
        )
        for name in positive:
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValidationError(f"{name} must be positive")
        for name in ("learning_rate", "epsilon", "grad_clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.max_epochs < 0:
            raise ValidationError("max_epochs must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValidationError("dropout must lie in [0, 1)")
        for name in ("beta1", "beta2"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1)")
        if self.oov_policy not in OOV_POLICIES:
            raise ValidationError(f"unknown oov_policy {self.oov_policy!r}")
        if self.confidence_mode not in CONFIDENCE_MODES:
            raise ValidationError(f"unknown confidence_mode {self.confidence_mode!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})


def param_shapes(
    config: TrainConfig, num_tags: int, num_chars: int, num_words: int
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable tensor, in the order they tile the
    flat parameter buffer, which is also the optimizer's and the container's
    order. word_delta is present only with config.train_word_delta."""
    d_char, k, m = config.char_dim, config.kernel_width, config.num_filters
    s, t = config.lstm_size, num_tags
    d_in = config.word_dim + (m if config.use_char_features else 0)
    shapes = {
        "char_emb": (num_chars, d_char),
        "char_filters": (m, k, d_char),
        "char_bias": (m,),
        "lstm_fwd_w": (4 * s, d_in),
        "lstm_fwd_u": (4 * s, s),
        "lstm_fwd_b": (4 * s,),
        "lstm_bwd_w": (4 * s, d_in),
        "lstm_bwd_u": (4 * s, s),
        "lstm_bwd_b": (4 * s,),
        "w_c": (t, 2 * s),
        "b_c": (t,),
        "transitions": (t + 2, t + 2),
    }
    if config.train_word_delta:
        shapes["word_delta"] = (num_words, config.word_dim)
    return shapes


@dataclass
class ModelParams:
    """All trainable tensors plus the schema, vocab, and embedding table.

    The trainable tensors are views of one flat buffer, laid out by
    param_shapes, so the optimizer, gradient clipping and snapshots work on
    `flat` as a whole. The views are bound as char_emb, char_filters,
    char_bias, lstm_fwd and lstm_bwd (LstmParams), w_c, b_c, transitions and
    word_delta (None without config.train_word_delta).
    """

    config: TrainConfig
    schema: LabelSchema
    vocab: Vocabulary
    embed: EmbeddingTable
    flat: np.ndarray = field(repr=False)
    transition_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        size = sum(math.prod(shape) for shape in self.shapes().values())
        if self.flat.shape != (size,):
            raise ValidationError(
                f"parameter buffer has shape {self.flat.shape}, the layout needs ({size},)"
            )
        views = self.tensors()
        self.char_emb = views["char_emb"]
        self.char_filters = views["char_filters"]
        self.char_bias = views["char_bias"]
        self.lstm_fwd = LstmParams(views["lstm_fwd_w"], views["lstm_fwd_u"], views["lstm_fwd_b"])
        self.lstm_bwd = LstmParams(views["lstm_bwd_w"], views["lstm_bwd_u"], views["lstm_bwd_b"])
        self.w_c = views["w_c"]
        self.b_c = views["b_c"]
        self.transitions = views["transitions"]
        self.word_delta = views.get("word_delta")

    @property
    def input_dim(self) -> int:
        extra = self.config.num_filters if self.config.use_char_features else 0
        return self.embed.dimension + extra

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """param_shapes of this model's config, schema and vocabulary."""
        return param_shapes(
            self.config, self.schema.num_tags, self.vocab.num_chars, self.vocab.num_words
        )

    def tensors(self) -> dict[str, np.ndarray]:
        """Trainable tensors by name, as views of `flat`, in layout order."""
        return self.views(self.flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a buffer laid out as `flat`, by tensor name and shape."""
        out, start = {}, 0
        for name, shape in self.shapes().items():
            size = math.prod(shape)
            out[name] = flat[start : start + size].reshape(shape)
            start += size
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


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, out: np.ndarray) -> None:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out[...] = rng.uniform(-limit, limit, size=out.shape)


def init_model(
    config: TrainConfig,
    schema: LabelSchema,
    vocab: Vocabulary,
    embed: EmbeddingTable,
) -> ModelParams:
    """Fresh parameters in one flat buffer, drawn from config.seed. Biases
    and word_delta start at zero, the LSTM forget-gate biases at one."""
    if embed.dimension != config.word_dim:
        raise ValidationError(
            f"embedding dimension {embed.dimension} does not match word_dim {config.word_dim}"
        )
    rng = np.random.default_rng(config.seed)
    shapes = param_shapes(config, schema.num_tags, vocab.num_chars, vocab.num_words)
    mask = schema.transition_mask() if config.use_transition_mask else None
    model = ModelParams(
        config, schema, vocab, embed,
        np.zeros(sum(math.prod(shape) for shape in shapes.values())), mask,
    )
    # the draw order fixes what a seed gives, so it does not change
    d_char, s = config.char_dim, config.lstm_size
    limit = np.sqrt(3.0 / d_char)
    model.char_emb[...] = rng.uniform(-limit, limit, size=model.char_emb.shape)
    _glorot(rng, config.kernel_width * d_char, config.num_filters, model.char_filters)
    for lstm in (model.lstm_fwd, model.lstm_bwd):
        _glorot(rng, model.input_dim, s, lstm.w)
        _glorot(rng, s, s, lstm.u)
        lstm.b[s : 2 * s] = 1.0  # forget-gate bias
    _glorot(rng, 2 * s, schema.num_tags, model.w_c)
    model.transitions[...] = rng.uniform(-0.1, 0.1, size=model.transitions.shape)
    model.pin_masked_transitions()
    return model


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


def batch_nll_and_grads(
    model: ModelParams,
    batch: list[Sentence],
    step: int = 0,
    grads: Gradients | None = None,
) -> tuple[float, Gradients]:
    """Summed CRF loss of the batch and its exact gradients, through the
    network `tag` runs, with model.config's dropout (none at 0). The
    gradients accumulate into `grads` when given (training reuses one buffer
    and zeroes it before each step), else into a fresh zeroed buffer; the
    masked transitions' entries are set to zero.

    The word features run once per distinct surface. Over buckets of
    length-sorted sentences of at most BATCH_TOKENS padded positions, each
    token's features take the input dropout and their own LSTM input
    projection; the BiLSTM, hidden dropout, emissions and CRF loss follow,
    and their backward passes accumulate into the gradients. The char-CNN's
    backward pass runs once per distinct surface at the end. A dropout mask
    has its sentence's own shape and is keyed by (seed, step, the sentence's
    position in `batch`, layer), so the loss is the sum of the sentences'
    losses whatever the bucket layout.
    """
    cfg = model.config
    if grads is None:
        grads = model.zero_grads()
    trans = model.effective_transitions()
    fwd, bwd = model.lstm_fwd, model.lstm_bwd
    gold = [gold_path(model, sent) for sent in batch]
    index: dict[str, int] = {}
    ids = [np.array([index.setdefault(w, len(index)) for w in sent.surfaces()], dtype=np.intp)
           for sent in batch]
    words = list(index)
    feats, windows = _word_features(model, words)
    d_feats = np.zeros_like(feats)
    rate = cfg.dropout
    lens = np.array([len(i) for i in ids], dtype=np.intp)
    order = np.argsort(-lens, kind="stable")
    total = 0.0
    for bucket in _buckets(lens[order]):
        rows = order[bucket]
        blens = lens[rows]
        tok = _padded(ids, rows, blens)
        x = feats[tok]
        if rate:
            drop_in = _dropout(cfg, step, rows, blens, x.shape[2], DROP_INPUT)
            x *= drop_in
        x = x.reshape(-1, x.shape[2])
        pos = np.arange(len(x)).reshape(tok.shape)  # each token reads its own projection
        zx_fwd, zx_bwd = x @ fwd.w.T + fwd.b, x @ bwd.w.T + bwd.b
        h = bilstm_batch(fwd.u, bwd.u, zx_fwd, zx_bwd, pos, blens)
        h_out = h
        if rate:
            drop_h = _dropout(cfg, step, rows, blens, h.shape[2], DROP_HIDDEN)
            h_out = h * drop_h
        emissions = emission_scores(model.w_c, model.b_c, h_out)
        loss, d_em, d_tr = crf.nll_and_gradients_batch(
            emissions, trans, blens, _padded(gold, rows, blens)
        )
        total += float(loss.sum())
        grads["transitions"] += d_tr
        d_h = emission_backward(model.w_c, emissions, h_out, d_em, grads["w_c"], grads["b_c"])
        if rate:
            d_h *= drop_h
        dz_fwd, dz_bwd = bilstm_batch_backward(
            fwd.u, bwd.u, zx_fwd, zx_bwd, pos, blens, h, d_h,
            grads["lstm_fwd_u"], grads["lstm_bwd_u"],
        )
        dz_fwd, dz_bwd = dz_fwd.reshape(len(x), -1), dz_bwd.reshape(len(x), -1)
        for name, dz in (("lstm_fwd", dz_fwd), ("lstm_bwd", dz_bwd)):
            grads[name + "_w"] += dz.T @ x
            grads[name + "_b"] += dz.sum(axis=0)
        d_x = dz_fwd @ fwd.w + dz_bwd @ bwd.w
        if rate:
            d_x *= drop_in.reshape(d_x.shape)
        np.add.at(d_feats, tok.ravel(), d_x)
    word_dim = model.embed.dimension
    if model.word_delta is not None:
        np.add.at(grads["word_delta"], [model.vocab.word_index(w) for w in words],
                  d_feats[:, :word_dim])
    if cfg.use_char_features:
        char_cnn_batch_backward(
            model.char_emb, model.char_filters, windows, feats[:, word_dim:],
            d_feats[:, word_dim:], grads["char_emb"], grads["char_filters"], grads["char_bias"],
        )
    if model.transition_mask is not None:
        grads["transitions"][~model.transition_mask] = 0.0
    return total, grads


def _dropout(
    cfg: TrainConfig, step: int, units: np.ndarray, lens: np.ndarray, width: int, layer: int
) -> np.ndarray:
    """Dropout masks of a bucket, (B, N, width): row r holds the mask of
    sentence units[r] of the batch, of its own shape (lens[r], width)."""
    out = np.zeros((len(units), lens[0], width))
    for r, (unit, n) in enumerate(zip(units.tolist(), lens.tolist())):
        out[r, :n] = dropout_mask((n, width), cfg.dropout, cfg.seed, step, unit, layer)
    return out


def _padded(seqs: list, rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """seqs[rows[r]] in row r of a zero-padded (B, lens[0]) index array."""
    out = np.zeros((len(rows), lens[0]), dtype=np.intp)
    for r, s in enumerate(rows):
        out[r, : lens[r]] = seqs[s]
    return out


def _buckets(lens_desc: np.ndarray):
    """Consecutive slices of descending lengths, each of at most BATCH_TOKENS
    padded positions (rows x the first, longest length); a row longer than
    the budget gets a slice of its own."""
    start = 0
    while start < len(lens_desc):
        stop = start + max(1, BATCH_TOKENS // int(lens_desc[start]))
        yield slice(start, stop)
        start = stop


def _word_features(
    model: ModelParams, words: list[str]
) -> tuple[np.ndarray, np.ndarray | None]:
    """The network's input vector of each word, without dropout: the word
    vector (plus its trainable delta) and the char-CNN features, which run
    over length-sorted buckets of padded characters. Also returns the
    char-CNN's winning windows (see char_cnn_batch), None without char
    features.
    """
    cfg = model.config
    x = np.array([model.embed.lookup(w) for w in words])
    if model.word_delta is not None:
        x += model.word_delta[[model.vocab.word_index(w) for w in words]]
    if not cfg.use_char_features:
        return x, None
    chars = [model.vocab.char_indices(w) for w in words]
    lens = np.array([max(len(c), cfg.kernel_width) for c in chars])
    order = np.argsort(-lens, kind="stable")
    feats = np.empty((len(words), cfg.num_filters))
    windows = np.empty((len(words), cfg.num_filters, cfg.kernel_width), dtype=np.intp)
    for bucket in _buckets(lens[order]):
        rows = order[bucket]
        feats[rows], windows[rows] = char_cnn_batch(
            model.char_emb, model.char_filters, model.char_bias, [chars[r] for r in rows]
        )
    return np.concatenate([x, feats], axis=1), windows


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
    x, _ = _word_features(model, words)
    zx_fwd = x @ model.lstm_fwd.w.T + model.lstm_fwd.b
    zx_bwd = x @ model.lstm_bwd.w.T + model.lstm_bwd.b
    for bucket in _buckets(lens[order]):
        rows = order[bucket]
        blens = lens[rows]
        h = bilstm_batch(model.lstm_fwd.u, model.lstm_bwd.u, zx_fwd, zx_bwd,
                         _padded(ids, rows, blens), blens)
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
    column of each chosen tag. This is the only inference loop, and it tags
    all sentences in one batched pass:

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
