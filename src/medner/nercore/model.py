"""The BiLSTM-CNN-CRF tagger: parameter container, the batched network
with exact reverse-mode gradients, and Viterbi tagging with posterior
marginals.

Per token the network concatenates a static word vector (plus an optional
trainable delta) with the char-CNN feature vector, applies inverted dropout,
encodes with a BiLSTM, applies dropout again, and projects to bounded
per-tag scores through tanh. The CRF on top is in crf.py.

Training (`batch_nll_and_grads`) and inference (`tag`) run one batched
implementation of every layer: word features once per distinct surface,
then the BiLSTM, emissions and CRF over buckets of length-sorted sentences.
Inference has no dropout, so `tag` projects the features once per surface;
training projects them per token after dropout. The per-sentence
model_forward (with batch_nll, crf.viterbi and crf.marginals) is the oracle
the tests compare both against.
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
    LstmParams,
    bilstm_batch,
    bilstm_batch_backward,
    bilstm_forward,
    char_cnn_batch,
    char_cnn_batch_backward,
    char_cnn_forward,
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


def model_forward(
    model: ModelParams,
    sentence: Sentence | list[str],
    train_mode: bool = False,
    step: int = 0,
    unit: int = 0,
) -> np.ndarray:
    """Emission scores (N, num_tags) of one sentence: the per-sentence oracle
    of the batched network in batch_nll_and_grads and `tag`.

    Dropout only fires in train mode; its masks come from a counter-based
    stream keyed by (seed, step, unit, layer), where unit is the sentence's
    position in its training batch.
    """
    surfaces = sentence.surfaces() if isinstance(sentence, Sentence) else list(sentence)
    cfg = model.config
    x = np.array([model.embed.lookup(w) for w in surfaces])
    if model.word_delta is not None:
        x += model.word_delta[[model.vocab.word_index(w) for w in surfaces]]
    if cfg.use_char_features:
        feats = [
            char_cnn_forward(model.char_emb, model.char_filters, model.char_bias,
                             model.vocab.char_indices(w))
            for w in surfaces
        ]
        x = np.concatenate([x, np.array(feats)], axis=1)
    dropout = train_mode and cfg.dropout > 0.0
    if dropout:
        x = x * dropout_mask(x.shape, cfg.dropout, cfg.seed, step, unit, DROP_INPUT)
    h = bilstm_forward(model.lstm_fwd, model.lstm_bwd, x)
    if dropout:
        h = h * dropout_mask(h.shape, cfg.dropout, cfg.seed, step, unit, DROP_HIDDEN)
    return emission_scores(model.w_c, model.b_c, h)


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
        total += crf.nll(model_forward(model, sent), trans, gold_path(model, sent))
    return total


def batch_nll_and_grads(
    model: ModelParams,
    batch: list[Sentence],
    train_mode: bool = True,
    step: int = 0,
) -> tuple[float, Gradients]:
    """Summed CRF loss of the batch and its exact gradients, through the
    network `tag` runs.

    The word features run once per distinct surface. Over buckets of
    length-sorted sentences of at most BATCH_TOKENS padded positions, each
    token's features take the input dropout and their own LSTM input
    projection; the BiLSTM, hidden dropout, emissions and CRF loss follow,
    and their backward passes accumulate into the gradients. The char-CNN's
    backward pass runs once per distinct surface at the end. A dropout mask
    has its sentence's own shape and is keyed by (seed, step, the sentence's
    position in `batch`, layer), so the loss is the sum of model_forward's
    under the same keys whatever the bucket layout.
    """
    cfg = model.config
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
    rate = cfg.dropout if train_mode else 0.0
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
    """model_forward's input vector of each word, without dropout: the word
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
