"""Per-sentence reference implementations of the tagger's layers and CRF,
and the inverse of de-identification.

The package runs every layer as one batched path over buckets of
length-sorted sentences. These routines compute the same quantities for one
sentence at a time, in the most direct form (the LSTM one position at a
time, the CRF lattice one step at a time), and the tests compare the batched
code against them. The CRF routines are in turn checked against brute-force
path enumeration in test_crf.py.

The arithmetic follows the package's conventions: float64 throughout,
`emissions` (N, T) per sentence, `transitions` (T+2, T+2) with START at row
T and STOP at row T+1, and the lowest-index tie-break in Viterbi.
Chronological summation order is the same in score_sequence and viterbi, so
ties on equal float scores break exactly.

Raw-text ingest has character-by-character oracles of its own:
sentence_split and tokenize scan the text one character at a time, as the
package did before it stated each rule as a regular pattern. So has CoNLL
ingest: parse_conll and iob_spans keep an open sentence and an open chunk in
closures, as the package did before it read each as one straight pass.
"""

from __future__ import annotations

import logging
import string

import numpy as np

from medner.corpus import (
    CONLL4,
    DEFAULT_ABBREVIATIONS,
    ColumnSpec,
    Corpus,
    LabelSchema,
    Sentence,
    Token,
    _check_scheme,
    spans_to_iob,
    split_tag,
    synthesize_offsets,
    validate_iob,
)
from medner.deid import DeidResult
from medner.errors import ParseError, SchemaError, ValidationError
from medner.nercore.crf import apply_mask, logsumexp
from medner.nercore.layers import LstmParams, dropout_mask, emission_scores
from medner.nercore.model import DROP_HIDDEN, DROP_INPUT, ModelParams, gold_path

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Neural layers: sigmoid, the char-CNN and the (Bi)LSTM; oracles of
# layers.char_cnn_batch, lstm_batch and bilstm_batch.

def sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form is stable at both extremes and needs no boolean masks
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def char_cnn_forward(
    char_emb: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    char_idx: list[int],
    pad_index: int = 0,
) -> np.ndarray:
    """Per-word character feature vector of length M (number of filters);
    the oracle of char_cnn_batch.

    Words shorter than the kernel width are padded with the PAD character.
    Each filter slides over all width-K windows; the max of the ReLU-activated
    responses is the filter's output.
    """
    m, k, d = filters.shape
    idx = list(char_idx) + [pad_index] * (k - len(char_idx))
    x = char_emb[np.asarray(idx, dtype=np.intp)]  # (L, d)
    p = len(idx) - k + 1
    pre = sum((x[j : j + p] @ filters[:, j, :].T for j in range(k)), bias)
    return np.maximum(pre, 0.0).max(axis=0)


def lstm_forward(params: LstmParams, xs: np.ndarray) -> np.ndarray:
    """Hidden states (N, S) of the recurrence run left to right, one
    position at a time; the oracle of lstm_batch."""
    s = params.u.shape[1]
    h, c, hs = np.zeros(s), np.zeros(s), np.empty((len(xs), s))
    for t, x in enumerate(xs):
        z = params.w @ x + params.u @ h + params.b
        i, f, g, o = sigmoid(z[:s]), sigmoid(z[s : 2 * s]), np.tanh(z[2 * s : 3 * s]), sigmoid(z[3 * s :])
        c = f * c + i * g
        h = hs[t] = o * np.tanh(c)
    return hs


def bilstm_forward(fwd: LstmParams, bwd: LstmParams, xs: np.ndarray) -> np.ndarray:
    """Forward and reversed-input hidden states per position, (N, 2S); the
    oracle of bilstm_batch."""
    return np.concatenate([lstm_forward(fwd, xs), lstm_forward(bwd, xs[::-1])[::-1]], axis=1)


# ---------------------------------------------------------------------------
# Linear-chain CRF: oracles of crf.viterbi_batch, marginals_batch and
# nll_and_gradients_batch.

def score_sequence(emissions: np.ndarray, transitions: np.ndarray, tag_path) -> float:
    """Score of one tag path: START transition, emissions, tag bigrams, STOP."""
    n, t = emissions.shape
    start, stop = t, t + 1
    score = transitions[start, tag_path[0]] + emissions[0, tag_path[0]]
    for i in range(1, n):
        score = score + transitions[tag_path[i - 1], tag_path[i]] + emissions[i, tag_path[i]]
    return float(score + transitions[tag_path[n - 1], stop])


def log_partition(emissions: np.ndarray, transitions: np.ndarray) -> float:
    """log of the sum over all tag paths of exp(score_sequence)."""
    n, t = emissions.shape
    start, stop = t, t + 1
    alpha = transitions[start, :t] + emissions[0]
    inner = transitions[:t, :t]
    for i in range(1, n):
        alpha = logsumexp(alpha[:, None] + inner, axis=0) + emissions[i]
    return float(logsumexp(alpha + transitions[:t, stop], axis=0))


def viterbi(emissions: np.ndarray, transitions: np.ndarray) -> tuple[list[int], float]:
    """Highest-scoring tag path.

    Ties are broken toward the lowest tag index at every backtracking step:
    the final tag is the lowest index attaining the maximum, and each
    backpointer is the lowest-index predecessor attaining it.
    """
    n, t = emissions.shape
    start, stop = t, t + 1
    delta = transitions[start, :t] + emissions[0]
    backptr = np.zeros((n, t), dtype=np.intp)
    inner = transitions[:t, :t]
    for i in range(1, n):
        cand = delta[:, None] + inner
        backptr[i] = np.argmax(cand, axis=0)  # first max = lowest index
        delta = cand[backptr[i], np.arange(t)] + emissions[i]
    final = delta + transitions[:t, stop]
    last = int(np.argmax(final))
    best_score = float(final[last])
    path = [last]
    for i in range(n - 1, 0, -1):
        last = int(backptr[i, last])
        path.append(last)
    path.reverse()
    return path, best_score


def forward_backward(
    emissions: np.ndarray, transitions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Log-space forward and backward lattices plus the log-partition."""
    n, t = emissions.shape
    start, stop = t, t + 1
    inner = transitions[:t, :t]
    alpha = np.empty((n, t))
    alpha[0] = transitions[start, :t] + emissions[0]
    for i in range(1, n):
        alpha[i] = logsumexp(alpha[i - 1][:, None] + inner, axis=0) + emissions[i]
    beta = np.empty((n, t))
    beta[n - 1] = transitions[:t, stop]
    for i in range(n - 2, -1, -1):
        beta[i] = logsumexp(inner + emissions[i + 1][None, :] + beta[i + 1][None, :], axis=1)
    log_z = float(logsumexp(alpha[n - 1] + beta[n - 1], axis=0))
    return alpha, beta, log_z


def marginals(emissions: np.ndarray, transitions: np.ndarray) -> np.ndarray:
    """Posterior p(y_i = t) for every position and tag; rows sum to 1."""
    alpha, beta, log_z = forward_backward(emissions, transitions)
    return np.exp(alpha + beta - log_z)


def nll(emissions: np.ndarray, transitions: np.ndarray, tag_path) -> float:
    """Negative log-likelihood of one gold path; non-negative by construction."""
    return log_partition(emissions, transitions) - score_sequence(
        emissions, transitions, tag_path
    )


# ---------------------------------------------------------------------------
# The network: oracles of model.batch_nll_and_grads and model.tag.

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


def batch_nll(model: ModelParams, batch: list[Sentence]) -> float:
    """Sum of per-sentence CRF negative log-likelihoods (evaluation mode)."""
    trans = apply_mask(model.transitions, model.transition_mask)
    total = 0.0
    for sent in batch:
        total += nll(model_forward(model, sent), trans, gold_path(model, sent))
    return total


# ---------------------------------------------------------------------------
# De-identification: the replacement log makes apply_policy exactly
# reversible; the tests check it with this inverse.

def reverse(result: DeidResult) -> str:
    """Reconstruct the original text exactly from the replacement log."""
    out = result.text
    delta = 0
    pieces: list[str] = []
    cursor = 0
    for r in result.replacements:
        start = r.begin + delta
        end = start + len(r.replacement)
        if start < cursor or end > len(out) or out[start:end] != r.replacement:
            raise ValidationError(
                f"replacement log inconsistent at [{r.begin}, {r.end}]: "
                f"expected {r.replacement!r}"
            )
        pieces.append(out[cursor:start])
        pieces.append(r.original)
        cursor = end
        delta += len(r.replacement) - (r.end - r.begin + 1)
    pieces.append(out[cursor:])
    return "".join(pieces)


# ---------------------------------------------------------------------------
# Raw-text ingest: oracles of corpus.sentence_split and corpus.tokenize.

_DETACH_PUNCT = frozenset(string.punctuation)


def sentence_split(
    raw_text: str, abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS
) -> list[tuple[str, int, int]]:
    """Split text into sentences, returning (sentence_text, begin, end) triples.

    Boundaries occur after '.', '!' or '?' followed by whitespace and an
    upper-case letter or digit, and at newlines. Words in `abbreviations`
    never close a sentence. Offsets are inclusive; slices are trimmed of
    surrounding whitespace, so concatenating them preserves every
    non-whitespace character.
    """
    sentences: list[tuple[str, int, int]] = []
    n = len(raw_text)

    def close(start: int, end: int) -> None:
        while end >= start and raw_text[end].isspace():
            end -= 1
        if end >= start:
            sentences.append((raw_text[start : end + 1], start, end))

    start: int | None = None
    for i, ch in enumerate(raw_text):
        if ch == "\n":
            if start is not None:
                close(start, i - 1)
                start = None
            continue
        if start is None:
            if ch.isspace():
                continue
            start = i
        if ch in ".!?":
            j = i + 1
            while j < n and raw_text[j] in " \t":
                j += 1
            if j == i + 1 or j >= n or raw_text[j] == "\n":
                continue
            if not (raw_text[j].isupper() or raw_text[j].isdigit()):
                continue
            if ch == "." and _is_abbreviation(raw_text, i, abbreviations):
                continue
            close(start, i)
            start = None
    if start is not None:
        close(start, n - 1)
    return sentences


def _is_abbreviation(text: str, dot: int, abbreviations) -> bool:
    k = dot
    while k > 0 and not text[k - 1].isspace():
        k -= 1
    word = text[k : dot + 1]
    return word in abbreviations or word.lstrip("([{\"'") in abbreviations


def tokenize(sentence_text: str, base_offset: int = 0) -> list[Token]:
    """Whitespace-tokenize, detaching leading/trailing punctuation.

    Internal punctuation stays inside the token, so clinical terms like
    "COVID-19" or "2021-01-14" survive intact while "fever," splits into
    two tokens. Offsets are absolute via `base_offset`.
    """
    if not sentence_text:
        raise ValidationError("cannot tokenize empty text")
    tokens: list[Token] = []

    def emit(piece: str, rel_begin: int) -> None:
        begin = base_offset + rel_begin
        tokens.append(Token(piece, begin, begin + len(piece) - 1))

    pos = 0
    n = len(sentence_text)
    while pos < n:
        if sentence_text[pos].isspace():
            pos += 1
            continue
        end = pos
        while end < n and not sentence_text[end].isspace():
            end += 1
        chunk = sentence_text[pos:end]
        left, right = 0, len(chunk)
        while left < right and chunk[left] in _DETACH_PUNCT:
            left += 1
        while right > left and chunk[right - 1] in _DETACH_PUNCT:
            right -= 1
        for k in range(left):
            emit(chunk[k], pos + k)
        if right > left:
            emit(chunk[left:right], pos + left)
        for k in range(right, len(chunk)):
            emit(chunk[k], pos + k)
        pos = end
    return tokens


# ---------------------------------------------------------------------------
# CoNLL ingest: oracles of corpus.parse_conll and corpus.iob_spans.

def parse_conll(
    text: str,
    column_spec: ColumnSpec = CONLL4,
    schema: LabelSchema | None = None,
    input_scheme: str = "IOB2",
    max_seq_length: int | None = None,
) -> Corpus:
    """Parse CoNLL-style annotated text into a Corpus (canonical IOB2).

    Blank lines separate sentences; lines starting with "-DOCSTART-", even
    after an indent, begin a new document (so no token that write_conll
    writes reads back as one). Character offsets are synthesized by joining
    tokens with single spaces, per sentence. Each sentence is validated under
    `input_scheme`, and IOB1 input is converted to IOB2. A malformed tag is
    a ParseError, a tag the schema lacks a SchemaError, and a tag sequence
    the scheme forbids a ValidationError; each names its line. With
    `max_seq_length` set, longer sentences are truncated with a warning; by
    default every token is kept.
    """
    _check_scheme(input_scheme)
    sentences: list[Sentence] = []
    pending: list[tuple[str, str, int]] = []  # surface, tag, line number
    doc_index = 0
    doc_has_content = False
    sent_index = 0
    seen_types: set[str] = set()
    known = set(schema.tags) if schema is not None else None

    def flush() -> None:
        nonlocal pending, sent_index, doc_has_content
        if not pending:
            return
        if max_seq_length is not None and len(pending) > max_seq_length:
            log.warning(
                "truncating sentence of %d tokens to max_seq_length=%d (doc%d sentence %d)",
                len(pending), max_seq_length, doc_index, sent_index,
            )
            pending = pending[:max_seq_length]
        surfaces = [p[0] for p in pending]
        tags = [p[1] for p in pending]
        _check_tags(tags, pending, known, seen_types)
        violations = validate_iob(tags, input_scheme)
        if violations:
            idx, reason = violations[0]
            raise ValidationError(f"line {pending[idx][2]}: invalid {input_scheme}: {reason}")
        if input_scheme == "IOB1":
            tags = spans_to_iob(iob_spans(tags), len(tags))
        tokens = [
            Token(s, b, e, tag)
            for s, (b, e), tag in zip(surfaces, synthesize_offsets(surfaces), tags)
        ]
        sentences.append(Sentence(tokens, f"doc{doc_index}", sent_index))
        sent_index += 1
        doc_has_content = True
        pending = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        if line.lstrip().startswith("-DOCSTART-"):
            flush()
            if doc_has_content:
                doc_index += 1
                sent_index = 0
                doc_has_content = False
            continue
        parts = line.split(column_spec.sep)
        if len(parts) != column_spec.n_cols:
            raise ParseError(
                f"expected {column_spec.n_cols} columns, found {len(parts)}", line=lineno
            )
        surface = parts[column_spec.token_col].strip()
        if not surface:
            raise ParseError("empty token column", line=lineno)
        tag = parts[column_spec.tag_col].strip()
        if not tag:
            raise ParseError("empty tag column", line=lineno)
        pending.append((surface, tag, lineno))
    flush()

    if schema is None:
        schema = LabelSchema(sorted(seen_types))
    return Corpus(sentences, schema)


def _check_tags(
    tags: list[str],
    pending: list[tuple[str, str, int]],
    known: set[str] | None,
    seen_types: set[str],
) -> None:
    """Reject a malformed tag or one the schema lacks; record the entity
    types seen."""
    for i, tag in enumerate(tags):
        try:
            _, etype = split_tag(tag)
        except ValidationError:
            raise ParseError(f"malformed tag {tag!r}", line=pending[i][2])
        if known is not None and tag not in known:
            raise SchemaError(f"line {pending[i][2]}: tag {tag!r} not in schema")
        if etype is not None:
            seen_types.add(etype)


def iob_spans(tag_sequence: list[str]) -> list[tuple[int, int, str]]:
    """Extract (start, end, type) chunk spans (end inclusive).

    One walk serves both schemes. Assumes the sequence is valid under one of
    them; callers that cannot guarantee that should run validate_iob first.
    """
    spans: list[tuple[int, int, str]] = []
    open_start: int | None = None
    open_type: str | None = None

    def close(end: int) -> None:
        nonlocal open_start, open_type
        if open_start is not None:
            spans.append((open_start, end, open_type))  # type: ignore[arg-type]
            open_start = open_type = None

    for i, tag in enumerate(tag_sequence):
        prefix, etype = split_tag(tag)
        if prefix == "O":
            close(i - 1)
        elif prefix == "B":
            close(i - 1)
            open_start, open_type = i, etype
        else:  # I continues a same-type chunk, otherwise starts one (IOB1)
            if open_start is not None and open_type == etype:
                continue
            close(i - 1)
            open_start, open_type = i, etype
    close(len(tag_sequence) - 1)
    return spans
