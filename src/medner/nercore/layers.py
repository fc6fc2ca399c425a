"""Neural building blocks: batched layers with hand-written backward passes.

Everything is 64-bit numpy. The batched layers run over sentences sorted by
length, longest first, and padded to a common length; each forward returns
what its backward needs as plain arrays, and each backward accumulates
parameter gradients into caller-supplied arrays, so gradients over several
batches are plain sums. The tests check each forward against a
per-sentence oracle (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Character CNN: embed chars, convolve width-K windows, ReLU, max-pool.

def char_cnn_batch(
    char_emb: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    char_idx: list[list[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Character feature vectors of many words at once, (W, M) for M
    filters, and the characters of each filter's winning window (W, M, K)
    for char_cnn_batch_backward. Each filter slides over all width-K windows
    of a word; the max of the ReLU-activated responses is its output.

    Words are padded with PAD (index 0) to a common length of at least the
    kernel width. Every character's response to each filter column is looked
    up from one (chars, M, K) product, and windows past a word's own last
    window are masked out of the max-pool.
    """
    m, k, d = filters.shape
    lens = np.array([max(len(c), k) for c in char_idx])
    idx = np.zeros((len(char_idx), lens.max()), dtype=np.intp)
    for r, c in enumerate(char_idx):
        idx[r, : len(c)] = c
    resp = (char_emb @ filters.reshape(m * k, d).T).reshape(-1, m, k)[idx]  # (W, L, M, K)
    p = idx.shape[1] - k + 1
    pre = np.broadcast_to(bias, (len(idx), p, m)).copy()
    for j in range(k):
        pre += resp[:, j : j + p, :, j]
    act = np.maximum(pre, 0.0)
    # ReLU outputs are >= 0, so a zeroed window never wins the max
    act[np.arange(p)[None, :] > (lens - k)[:, None]] = 0.0
    win = act.argmax(axis=1)  # (W, M), the first window on ties
    out = np.take_along_axis(act, win[:, None, :], axis=1)[:, 0]
    windows = idx[np.arange(len(idx))[:, None, None], win[:, :, None] + np.arange(k)]
    return out, windows


def char_cnn_batch_backward(
    char_emb: np.ndarray, filters: np.ndarray, windows: np.ndarray, out: np.ndarray,
    d_out: np.ndarray, d_char_emb: np.ndarray, d_filters: np.ndarray, d_bias: np.ndarray,
) -> None:
    """Route d(features) (W, M) through max-pool and ReLU to the filters and
    the character embeddings: only a filter's winning window, and only when
    its output is positive, receives gradient."""
    m, k, d = filters.shape
    g = d_out * (out > 0.0)
    d_bias += g.sum(axis=0)
    cols = np.arange(m)
    for j in range(k):
        # (chars, M): the gradient of the windows whose j-th character it is
        per_char = np.bincount(
            (windows[:, :, j] * m + cols).ravel(), weights=g.ravel(), minlength=len(char_emb) * m
        ).reshape(-1, m)
        d_filters[:, j, :] += per_char.T @ char_emb
        d_char_emb += per_char @ filters[:, j, :]


# ---------------------------------------------------------------------------
# LSTM: standard gates (input, forget, candidate, output), zero initial state.

@dataclass
class LstmParams:
    w: np.ndarray  # (4S, D) input weights, gate order i|f|g|o
    u: np.ndarray  # (4S, S) recurrent weights
    b: np.ndarray  # (4S,)


def _gate_affine(s: int) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) for _gates over gate columns i|f|g|o of state size s."""
    # per gate column, z -> scale * z before the tanh and a -> scale * a + shift
    # after it: the identity for g, the sigmoid's halvings for i, f and o
    scale = np.full(4 * s, 0.5)
    scale[2 * s : 3 * s] = 1.0
    shift = np.full(4 * s, 0.5)
    shift[2 * s : 3 * s] = -0.0  # x + -0.0 is x, signed zeros included
    return scale, shift


def _gates(z: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Activate pre-activations (..., 4S) in place: sigmoid for i, f and o,
    tanh for g, all in one tanh: sigmoid(z) = 0.5 * (1 + tanh(z / 2)), with
    exact halvings."""
    z *= scale
    np.tanh(z, out=z)
    z *= scale
    z += shift
    return z


def lstm_batch(
    u: np.ndarray, zx: np.ndarray, tok: np.ndarray, lens: np.ndarray, out: np.ndarray,
    reverse: bool = False,
) -> np.ndarray:
    """The LSTM recurrence over a batch of rows, into out (B, N, S).

    zx holds the input projections `x @ w.T + b` of distinct inputs, and tok
    (B, N) picks the input at each position of each row, of which the first
    lens[r] are real; with `reverse`, row r is read from its position
    lens[r] - 1 back to 0. Rows are sorted by length, longest first, so step
    t updates the active prefix of rows (lens > t) and padding never enters
    a state. Each hidden state is written at its token's position; out past
    a row's length is left as it is. Only the current states are kept:
    lstm_batch_backward recomputes the gates and cells from out.
    """
    s = u.shape[1]
    u_t = np.ascontiguousarray(u.T)  # BLAS would repack a transposed view per product
    affine = _gate_affine(s)
    rows = np.arange(len(lens))
    h = np.zeros((len(lens), s))
    c = np.zeros((len(lens), s))
    for t, a in enumerate(_active(lens, tok.shape[1])):
        at = (rows[:a], lens[:a] - 1 - t) if reverse else (slice(a), t)
        z = h[:a] @ u_t
        z += zx[tok[at]]
        _gates(z, *affine)
        ca, ha = c[:a], h[:a]
        ca *= z[:, s : 2 * s]
        ca += z[:, :s] * z[:, 2 * s : 3 * s]
        np.tanh(ca, out=ha)
        ha *= z[:, 3 * s :]
        out[at] = ha
    return out


def _active(lens: np.ndarray, n: int) -> list[int]:
    """Rows with a real token at each step, for rows sorted longest first."""
    return np.count_nonzero(lens[:, None] > np.arange(n), axis=0).tolist()


def lstm_batch_backward(
    u: np.ndarray, zx: np.ndarray, tok: np.ndarray, lens: np.ndarray, h: np.ndarray,
    d_hs: np.ndarray, d_u: np.ndarray, reverse: bool = False,
) -> np.ndarray:
    """Backpropagate lstm_batch through time, given its hidden states h and
    d(hidden states), both (B, N, S) by position; returns d(zx) of each
    position, (B, N, 4S), zero past each row's length, and accumulates d(u).

    The steps are laid out time-major in reading order. The gates come back
    from each step's previous hidden state in one product over all steps,
    and the cells from the gates, step by step. Each gate's pre-activation
    gradient is dc or dh times a factor that does not depend on the
    recurrence, so the factors are computed for all steps before the loop,
    which then only carries dh and dc.
    """
    b, n = tok.shape
    s = u.shape[1]
    rows = np.arange(b)[:, None]
    # the position each row reads at each step; padding stays in place
    seq = _reverse_index(lens, n) if reverse else np.broadcast_to(np.arange(n), (b, n))
    h_prev = np.zeros((n, b, s))
    h_prev[1:] = h[rows, seq[:, :-1]].transpose(1, 0, 2)
    h_prev = h_prev.reshape(n * b, s)
    z = (h_prev @ u.T).reshape(n, b, 4 * s)
    z += zx[tok[rows, seq].T]
    _gates(z, *_gate_affine(s))
    i, f, g, o = (z[..., q * s : (q + 1) * s] for q in range(4))
    c = np.zeros((n + 1, b, s))
    for t in range(n):
        np.multiply(f[t], c[t], out=c[t + 1])
        c[t + 1] += i[t] * g[t]
    tc = np.tanh(c[1:])
    # dz = [dc, dc, dc, dh] * k and dc = dh * dc_dh + dc_next
    k = np.empty((n, b, 4, s))
    k[:, :, 0] = g * i * (1.0 - i)
    k[:, :, 1] = c[:n] * f * (1.0 - f)
    k[:, :, 2] = i * (1.0 - g * g)
    k[:, :, 3] = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)
    dz, dh, dc = np.zeros((n, b, 4, s)), np.zeros((b, s)), np.zeros((b, s))
    d_hs = d_hs[rows, seq].transpose(1, 0, 2)
    active = _active(lens, n)
    for t in range(n - 1, -1, -1):
        a = active[t]
        dha, dca = dh[:a], dc[:a]
        dha += d_hs[t, :a]
        dca += dha * dc_dh[t, :a]
        np.multiply(k[t, :a, :3], dca[:, None], out=dz[t, :a, :3])
        np.multiply(k[t, :a, 3], dha, out=dz[t, :a, 3])
        dca *= f[t, :a]
        np.matmul(dz[t, :a].reshape(a, 4 * s), u, out=dha)  # u.T @ dz per row
    dz = dz.reshape(n * b, 4 * s)
    d_u += dz.T @ h_prev
    out = np.empty((b, n, 4 * s))
    out[rows, seq] = dz.reshape(n, b, 4 * s).transpose(1, 0, 2)
    return out


def _reverse_index(lens: np.ndarray, n: int) -> np.ndarray:
    """(B, N) positions that read each row's first lens[r] entries back to
    front and keep its padding in place."""
    pos = np.arange(n)
    return np.where(pos < lens[:, None], lens[:, None] - 1 - pos, pos)


def bilstm_batch(
    fwd_u: np.ndarray, bwd_u: np.ndarray, zx_fwd: np.ndarray, zx_bwd: np.ndarray,
    tok: np.ndarray, lens: np.ndarray,
) -> np.ndarray:
    """Forward and reversed-input hidden states per position of a
    length-sorted batch (see lstm_batch), (B, N, 2S); zero past each row's
    length."""
    s = fwd_u.shape[1]
    h = np.zeros(tok.shape + (2 * s,))
    lstm_batch(fwd_u, zx_fwd, tok, lens, h[:, :, :s])
    lstm_batch(bwd_u, zx_bwd, tok, lens, h[:, :, s:], reverse=True)
    return h


def bilstm_batch_backward(
    fwd_u: np.ndarray, bwd_u: np.ndarray, zx_fwd: np.ndarray, zx_bwd: np.ndarray,
    tok: np.ndarray, lens: np.ndarray, h: np.ndarray, d_h: np.ndarray,
    d_fwd_u: np.ndarray, d_bwd_u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate bilstm_batch, given its output h: d(zx_fwd) and
    d(zx_bwd) at each token position, (B, N, 4S) each; accumulates d(fwd_u)
    and d(bwd_u)."""
    s = fwd_u.shape[1]
    return (
        lstm_batch_backward(fwd_u, zx_fwd, tok, lens, h[:, :, :s], d_h[:, :, :s], d_fwd_u),
        lstm_batch_backward(bwd_u, zx_bwd, tok, lens, h[:, :, s:], d_h[:, :, s:], d_bwd_u,
                            reverse=True),
    )


# ---------------------------------------------------------------------------
# Emission projection: bounded scores tanh(W_c h + b_c) per token and tag.
# The activation is its own cache; backward takes the scores directly.

def emission_scores(w_c: np.ndarray, b_c: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.tanh(h @ w_c.T + b_c)


def emission_backward(
    w_c: np.ndarray, scores: np.ndarray, h: np.ndarray, d_scores: np.ndarray,
    d_w_c: np.ndarray, d_b_c: np.ndarray,
) -> np.ndarray:
    """d(h) of scores (..., T) over hidden states (..., 2S); a position whose
    d_scores is zero (padding) contributes nothing."""
    d_pre = d_scores * (1.0 - scores * scores)
    d_w_c += d_pre.reshape(-1, len(w_c)).T @ h.reshape(-1, h.shape[-1])
    d_b_c += d_pre.reshape(-1, len(w_c)).sum(axis=0)
    return d_pre @ w_c


# ---------------------------------------------------------------------------
# Inverted dropout on a counter-based stream, reproducible and
# order-independent across sentences within a batch.

def dropout_mask(
    shape: tuple[int, ...], rate: float, seed: int, step: int, unit: int, layer: int
) -> np.ndarray:
    """Deterministic mask keyed by (seed, step, unit, layer); mean ~= 1."""
    key = np.array(
        [
            (np.uint64(seed & 0xFFFFFFFF) << np.uint64(32)) | np.uint64(step & 0xFFFFFFFF),
            (np.uint64(unit & 0xFFFFFFFF) << np.uint64(8)) | np.uint64(layer & 0xFF),
        ],
        dtype=np.uint64,
    )
    gen = np.random.Generator(np.random.Philox(key=key))
    keep = gen.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)
