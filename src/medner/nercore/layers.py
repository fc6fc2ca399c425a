"""Neural building blocks with hand-written backward passes.

Everything is 64-bit numpy. Each forward returns (output, cache); the
matching backward consumes the cache and accumulates parameter gradients
into caller-supplied arrays, so batch gradients are plain sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    # the tanh form is stable at both extremes and needs no boolean masks
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# Character CNN: embed chars, convolve width-K windows, ReLU, max-pool.

@dataclass
class CharCnnCache:
    char_idx: np.ndarray      # (L,) padded indices
    x: np.ndarray             # (L, d_char)
    pre: np.ndarray           # (P, M) conv pre-activation
    argmax: np.ndarray        # (M,) winning window per filter


def char_cnn_forward(
    char_emb: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    char_idx: list[int],
    pad_index: int = 0,
) -> tuple[np.ndarray, CharCnnCache]:
    """Per-word character feature vector of length M (number of filters).

    Words shorter than the kernel width are padded with the PAD character.
    Each filter slides over all width-K windows; the max of the ReLU-activated
    responses is the filter's output.
    """
    m, k, d = filters.shape
    idx = list(char_idx)
    if len(idx) < k:
        idx = idx + [pad_index] * (k - len(idx))
    idx_arr = np.asarray(idx, dtype=np.intp)
    x = char_emb[idx_arr]  # (L, d)
    p = len(idx) - k + 1
    pre = np.broadcast_to(bias, (p, m)).copy()
    for j in range(k):
        pre += x[j : j + p] @ filters[:, j, :].T
    act = np.maximum(pre, 0.0)
    argmax = np.argmax(act, axis=0)
    out = act[argmax, np.arange(m)]
    return out, CharCnnCache(idx_arr, x, pre, argmax)


def char_cnn_backward(
    filters: np.ndarray,
    cache: CharCnnCache,
    d_out: np.ndarray,
    d_char_emb: np.ndarray,
    d_filters: np.ndarray,
    d_bias: np.ndarray,
) -> None:
    """Route gradient through max-pool and ReLU back to filters/embeddings."""
    m, k, d = filters.shape
    p = cache.pre.shape[0]
    d_pre = np.zeros((p, m))
    live = cache.pre[cache.argmax, np.arange(m)] > 0.0
    d_pre[cache.argmax, np.arange(m)] = d_out * live
    d_bias += d_pre.sum(axis=0)
    d_x = np.zeros_like(cache.x)
    for j in range(k):
        d_filters[:, j, :] += d_pre.T @ cache.x[j : j + p]
        d_x[j : j + p] += d_pre @ filters[:, j, :]
    np.add.at(d_char_emb, cache.char_idx, d_x)


def char_cnn_batch(
    char_emb: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    char_idx: list[list[int]],
) -> np.ndarray:
    """char_cnn_forward over many words at once, (len(char_idx), M); no cache.

    Words are padded with PAD (index 0) to a common length of at least the
    kernel width, as char_cnn_forward pads a short word. Every character's
    response to each filter column is looked up from one (chars, M, K)
    product, and windows past a word's own last window are masked out of the
    max-pool.
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
    return act.max(axis=1)


# ---------------------------------------------------------------------------
# LSTM: standard gates (input, forget, candidate, output), zero initial state.

@dataclass
class LstmParams:
    w: np.ndarray  # (4S, D) input weights, gate order i|f|g|o
    u: np.ndarray  # (4S, S) recurrent weights
    b: np.ndarray  # (4S,)

    @property
    def state_size(self) -> int:
        return self.w.shape[0] // 4


@dataclass
class LstmCache:
    x: np.ndarray
    i: np.ndarray  # (N, S) gate activations, column blocks of one (N, 4S) array
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h_prev: np.ndarray  # (N, S): h_{t-1} for each step, row 0 is zeros
    c_prev: np.ndarray


def lstm_forward(params: LstmParams, xs: np.ndarray) -> tuple[np.ndarray, LstmCache]:
    """Run the recurrence left to right; returns hidden states (N, S).

    All four gates take one tanh per step: sigmoid(z) = 0.5 * (1 + tanh(z / 2))
    with exact halvings, so i, f and o are bit for bit what sigmoid() gives.
    """
    n = xs.shape[0]
    s = params.state_size
    zx = xs @ params.w.T + params.b  # (N, 4S)
    # per gate column, z -> scale * z before the tanh and a -> scale * a + shift
    # after it: the identity for g, the sigmoid's halvings for i, f and o
    scale = np.full(4 * s, 0.5)
    scale[2 * s : 3 * s] = 1.0
    shift = np.full(4 * s, 0.5)
    shift[2 * s : 3 * s] = -0.0  # x + -0.0 is x, signed zeros included
    gates = np.empty((n, 4 * s))
    c_a = np.empty((n, s)); tc_a = np.empty((n, s))
    hs = np.empty((n, s))
    h = np.zeros(s); c = np.zeros(s)
    for t in range(n):
        a = gates[t]
        np.dot(params.u, h, out=a)
        a += zx[t]
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(a[s : 2 * s], c, out=c_a[t])
        c = c_a[t]
        c += a[:s] * a[2 * s : 3 * s]
        np.tanh(c, out=tc_a[t])
        h = np.multiply(a[3 * s :], tc_a[t], out=hs[t])
    h_prev = np.zeros((n, s)); h_prev[1:] = hs[:-1]
    c_prev = np.zeros((n, s)); c_prev[1:] = c_a[:-1]
    i, f, g, o = (gates[:, k * s : (k + 1) * s] for k in range(4))
    return hs, LstmCache(xs, i, f, g, o, c_a, tc_a, h_prev, c_prev)


def lstm_backward(
    params: LstmParams,
    cache: LstmCache,
    d_hs: np.ndarray,
    d_w: np.ndarray,
    d_u: np.ndarray,
    d_b: np.ndarray,
) -> np.ndarray:
    """Backpropagate through time; returns d(inputs) and accumulates d(params).

    Each gate's pre-activation gradient is dc or dh times a factor that does
    not depend on the recurrence, so the factors are computed for all steps
    before the loop, which then only carries dh and dc.
    """
    n, s = d_hs.shape
    i, f, g, o, tc = cache.i, cache.f, cache.g, cache.o, cache.tanh_c
    # dz = [dc, dc, dc, dh] * k and dc = dh * dc_dh + dc_next
    k = np.empty((n, 4 * s))
    k[:, :s] = g * i * (1.0 - i)
    k[:, s : 2 * s] = cache.c_prev * f * (1.0 - f)
    k[:, 2 * s : 3 * s] = i * (1.0 - g * g)
    k[:, 3 * s :] = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)
    dz_all = np.empty((n, 4 * s))
    dh = np.zeros(s)
    dc_next = np.zeros(s)
    for t in range(n - 1, -1, -1):
        dh += d_hs[t]
        dc = dh * dc_dh[t]
        dc += dc_next
        dz = dz_all[t]
        np.multiply(k[t, : 3 * s].reshape(3, s), dc, out=dz[: 3 * s].reshape(3, s))
        np.multiply(k[t, 3 * s :], dh, out=dz[3 * s :])
        dc_next = np.multiply(dc, f[t], out=dc)
        dh = dz @ params.u  # u.T @ dz, without BLAS's transposed gemv
    d_w += dz_all.T @ cache.x
    d_u += dz_all.T @ cache.h_prev
    d_b += dz_all.sum(axis=0)
    return dz_all @ params.w


def bilstm_forward(
    fwd: LstmParams, bwd: LstmParams, xs: np.ndarray
) -> tuple[np.ndarray, tuple[LstmCache, LstmCache]]:
    """Concatenate forward and reversed-input hidden states per position."""
    h_f, cache_f = lstm_forward(fwd, xs)
    h_b_rev, cache_b = lstm_forward(bwd, xs[::-1])
    h_b = h_b_rev[::-1]
    return np.concatenate([h_f, h_b], axis=1), (cache_f, cache_b)


def lstm_batch(
    u: np.ndarray,
    zx: np.ndarray,
    tok: np.ndarray,
    lens: np.ndarray,
    out: np.ndarray,
    reverse: bool = False,
) -> np.ndarray:
    """Inference-only lstm_forward over a batch of rows, into out (B, N, S).

    zx holds the input projection `x @ w.T + b` of each distinct input and
    tok (B, N) picks the inputs of each row, of which the first lens[r] are
    real; with `reverse`, row r is read from its position lens[r] - 1 back to
    0. Rows are sorted by length, longest first, so step t updates the
    active prefix of rows (lens > t) and padding never enters a state. Each
    hidden state is written at its token's position; out past a row's
    length is left as it is.
    """
    s = u.shape[1]
    u_t = np.ascontiguousarray(u.T)  # BLAS would repack a transposed view per product
    active = np.count_nonzero(lens[:, None] > np.arange(tok.shape[1]), axis=0)
    rows = np.arange(len(lens))
    h = np.zeros((len(lens), s))
    c = np.zeros((len(lens), s))
    for t, a in enumerate(active):
        pos = lens[:a] - 1 - t if reverse else t
        z = h[:a] @ u_t
        z += zx[tok[rows[:a], pos]]
        i = sigmoid(z[:, :s]); f = sigmoid(z[:, s : 2 * s])
        g = np.tanh(z[:, 2 * s : 3 * s]); o = sigmoid(z[:, 3 * s :])
        c[:a] = f * c[:a] + i * g
        h[:a] = o * np.tanh(c[:a])
        out[rows[:a], pos] = h[:a]
    return out


def bilstm_batch(
    fwd_u: np.ndarray,
    bwd_u: np.ndarray,
    zx_fwd: np.ndarray,
    zx_bwd: np.ndarray,
    tok: np.ndarray,
    lens: np.ndarray,
) -> np.ndarray:
    """bilstm_forward over a length-sorted batch (see lstm_batch), (B, N, 2S);
    zero past each row's length."""
    s = fwd_u.shape[1]
    h = np.zeros(tok.shape + (2 * s,))
    lstm_batch(fwd_u, zx_fwd, tok, lens, h[:, :, :s])
    lstm_batch(bwd_u, zx_bwd, tok, lens, h[:, :, s:], reverse=True)
    return h


def bilstm_backward(
    fwd: LstmParams,
    bwd: LstmParams,
    caches: tuple[LstmCache, LstmCache],
    d_h: np.ndarray,
    d_fwd: tuple[np.ndarray, np.ndarray, np.ndarray],
    d_bwd: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    s = fwd.state_size
    cache_f, cache_b = caches
    d_xs = lstm_backward(fwd, cache_f, d_h[:, :s], *d_fwd)
    d_xs_rev = lstm_backward(bwd, cache_b, d_h[::-1, s:], *d_bwd)
    return d_xs + d_xs_rev[::-1]


# ---------------------------------------------------------------------------
# Emission projection: bounded scores tanh(W_c h + b_c) per token and tag.
# The activation is its own cache; backward takes the scores directly.

def emission_scores(w_c: np.ndarray, b_c: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.tanh(h @ w_c.T + b_c)


def emission_backward(
    w_c: np.ndarray,
    scores: np.ndarray,
    h: np.ndarray,
    d_scores: np.ndarray,
    d_w_c: np.ndarray,
    d_b_c: np.ndarray,
) -> np.ndarray:
    d_pre = d_scores * (1.0 - scores * scores)
    d_w_c += d_pre.T @ h
    d_b_c += d_pre.sum(axis=0)
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
