"""Linear-chain CRF inference: path scoring, log-partition, Viterbi,
forward-backward marginals, and expected-count gradients.

Conventions: `emissions` is (N, T) float64 for a sentence of N tokens over T
tags; `transitions` is (T+2, T+2) with the virtual START state at row T and
STOP at row T+1. Illegal transitions carry the finite surrogate -1e4 rather
than -inf so gradients stay finite.

Chronological summation order is kept identical between score_sequence and
the Viterbi recursion so that tie-breaking on equal float scores is exact.

Tagging and training run the batched routines over (B, N, T) emissions of
sentences of different lengths: viterbi_batch, marginals_batch and
nll_and_gradients_batch, the last two on one forward-backward lattice. The
per-sentence viterbi and marginals are their oracles; log_partition and nll
compute the same quantities by a separate forward recursion and stay as the
tests' independent oracles, as does model.batch_nll.
"""

from __future__ import annotations

import numpy as np

MASK_SCORE = -1e4


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log(sum(exp(a))) along an axis."""
    m = np.max(a, axis=axis, keepdims=True)
    out = m.squeeze(axis) + np.log(np.sum(np.exp(a - m), axis=axis))
    return out


def apply_mask(transitions: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Pin illegal transitions to MASK_SCORE; identity when mask is None."""
    if mask is None:
        return transitions
    pinned = transitions.copy()
    pinned[~mask] = MASK_SCORE
    return pinned


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


def viterbi_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Viterbi over a batch of sentences, (B, N, T) -> (B, N).

    Row r is a sentence of lengths[r] >= 1 tokens (N when lengths is None);
    its emissions past that length are ignored and its path there repeats
    its last tag. Same lowest-index tie-break as the single-sentence routine.
    """
    b, n, t = emissions.shape
    start, stop = t, t + 1
    if lengths is None:
        lengths = np.full(b, n)
    inner = transitions[:t, :t]
    delta = transitions[start, :t][None, :] + emissions[:, 0, :]
    backptr = np.zeros((b, n, t), dtype=np.intp)
    rows = np.arange(b)[:, None]
    cols = np.arange(t)[None, :]
    for i in range(1, n):
        cand = delta[:, :, None] + inner[None, :, :]
        bp = np.argmax(cand, axis=1)
        backptr[:, i, :] = bp
        step = cand[rows, bp, cols] + emissions[:, i, :]
        # a finished sentence keeps its final scores
        delta = np.where((lengths > i)[:, None], step, delta)
    final = delta + transitions[:t, stop][None, :]
    paths = np.zeros((b, n), dtype=np.intp)
    last = np.argmax(final, axis=1)
    paths[:, n - 1] = last
    for i in range(n - 1, 0, -1):
        last = np.where(lengths > i, backptr[np.arange(b), i, last], last)
        paths[:, i - 1] = last
    return paths


def _lattice(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """forward_backward over a batch: alpha and beta (B, N, T) and each
    row's log-partition (B,). The backward lattice of each row starts at its
    own length; both hold meaningless values past it."""
    b, n, t = emissions.shape
    start, stop = t, t + 1
    inner = transitions[:t, :t]
    alpha = np.empty((b, n, t))
    alpha[:, 0] = transitions[start, :t] + emissions[:, 0]
    for i in range(1, n):
        alpha[:, i] = logsumexp(alpha[:, i - 1, :, None] + inner, axis=1) + emissions[:, i]
    beta = np.empty((b, n, t))
    beta[:, n - 1] = transitions[:t, stop]
    for i in range(n - 2, -1, -1):
        step = logsumexp(inner + emissions[:, i + 1, None, :] + beta[:, i + 1, None, :], axis=2)
        beta[:, i] = np.where((lengths - 1 > i)[:, None], step, transitions[:t, stop])
    log_z = logsumexp(alpha[np.arange(b), lengths - 1] + transitions[:t, stop], axis=1)
    return alpha, beta, log_z


def marginals_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """`marginals` of a batch of sentences, (B, N, T) -> (B, N, T).

    Row r is a sentence of lengths[r] >= 1 tokens; the forward and backward
    lattices of each row stop at its own length, and its positions past that
    length hold zeros.
    """
    alpha, beta, log_z = _lattice(emissions, transitions, lengths)
    live = np.arange(emissions.shape[1]) < lengths[:, None]
    return np.exp(np.where(live[:, :, None], alpha + beta - log_z[:, None, None], -np.inf))


def nll_and_gradients_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray, gold: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`nll` of each row's gold path gold[r, :lengths[r]], (B,), with exact
    gradients: w.r.t. emissions (B, N, T), zero past each length, and
    w.r.t. transitions, summed over the batch.

    d(logZ)/d(emission) is the posterior marginal and d(logZ)/d(transition)
    the expected transition count; subtracting the observed gold counts gives
    the NLL gradient. START/STOP rows receive the boundary marginals.
    """
    b, n, t = emissions.shape
    start, stop = t, t + 1
    rows, last = np.arange(b), lengths - 1
    live = np.arange(n) < lengths[:, None]
    alpha, beta, log_z = _lattice(emissions, transitions, lengths)

    d_emissions = np.exp(np.where(live[:, :, None], alpha + beta - log_z[:, None, None], -np.inf))
    d_transitions = np.zeros_like(transitions)
    d_transitions[start, :t] = d_emissions[:, 0].sum(axis=0)
    d_transitions[:t, stop] = d_emissions[rows, last].sum(axis=0)
    pair = (alpha[:, :-1, :, None] + transitions[:t, :t]
            + (emissions[:, 1:] + beta[:, 1:])[:, :, None, :] - log_z[:, None, None, None])
    steps = live[:, 1:]
    d_transitions[:t, :t] = np.exp(np.where(steps[:, :, None, None], pair, -np.inf)).sum(axis=(0, 1))

    src = np.concatenate([np.full(b, start), gold[:, :-1][steps], gold[rows, last]])
    dst = np.concatenate([gold[:, 0], gold[:, 1:][steps], np.full(b, stop)])
    np.subtract.at(d_transitions, (src, dst), 1.0)
    r, i = np.nonzero(live)
    d_emissions[r, i, gold[r, i]] -= 1.0
    score = (transitions[start, gold[:, 0]] + transitions[gold[rows, last], stop]
             + np.where(live, np.take_along_axis(emissions, gold[:, :, None], 2)[:, :, 0], 0.0).sum(axis=1)
             + np.where(steps, transitions[gold[:, :-1], gold[:, 1:]], 0.0).sum(axis=1))
    return log_z - score, d_emissions, d_transitions
