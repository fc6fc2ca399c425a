"""Linear-chain CRF inference over a batch of sentences: Viterbi,
forward-backward marginals, and the negative log-likelihood with its
expected-count gradients.

Conventions: `emissions` is (B, N, T) float64 for B sentences padded to N
tokens over T tags, row r holding a sentence of lengths[r] tokens;
`transitions` is (T+2, T+2) with the virtual START state at row T and STOP
at row T+1. Illegal transitions carry the finite surrogate -1e4 rather than
-inf so gradients stay finite. A masked model holds that score from
init_model on and training never moves it (model.py), so training passes a
model's transitions here as they are.

marginals_batch and nll_and_gradients_batch share one forward-backward
lattice. The tests check every routine against per-sentence oracles
(tests/oracles.py), and those against brute-force path enumeration.
"""

from __future__ import annotations

import numpy as np

MASK_SCORE = -1e4


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
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


def viterbi_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray | None = None
) -> np.ndarray:
    """Viterbi over a batch of sentences, (B, N, T) -> (B, N).

    Row r is a sentence of lengths[r] >= 1 tokens (N when lengths is None);
    its emissions past that length are ignored and its path there repeats
    its last tag. Ties are broken toward the lowest tag index: the final tag
    is the lowest index attaining the maximum, and each backpointer the
    lowest-index predecessor attaining it.
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Log-space forward and backward lattices over a batch, alpha and beta
    (B, N, T), each row's log-partition (B,), and the posterior marginals
    (B, N, T). The backward lattice of each row starts at its own length;
    both lattices hold meaningless values past it, the marginals zeros."""
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
    live = np.arange(n) < lengths[:, None]
    posterior = np.exp(np.where(live[:, :, None], alpha + beta - log_z[:, None, None], -np.inf))
    return alpha, beta, log_z, posterior


def marginals_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Posterior p(y_i = t) of every position and tag of a batch of
    sentences, (B, N, T) -> (B, N, T); each live row sums to 1.

    Row r is a sentence of lengths[r] >= 1 tokens; the forward and backward
    lattices of each row stop at its own length, and its positions past that
    length hold zeros.
    """
    return _lattice(emissions, transitions, lengths)[3]


def nll_and_gradients_batch(
    emissions: np.ndarray, transitions: np.ndarray, lengths: np.ndarray, gold: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Negative log-likelihood of each row's gold path gold[r, :lengths[r]],
    (B,), with exact gradients: w.r.t. emissions (B, N, T), zero past each
    length, and w.r.t. transitions, summed over the batch.

    d(logZ)/d(emission) is the posterior marginal and d(logZ)/d(transition)
    the expected transition count; subtracting the observed gold counts gives
    the NLL gradient. START/STOP rows receive the boundary marginals.
    """
    b, n, t = emissions.shape
    start, stop = t, t + 1
    rows, last = np.arange(b), lengths - 1
    live = np.arange(n) < lengths[:, None]
    alpha, beta, log_z, d_emissions = _lattice(emissions, transitions, lengths)
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
