"""CRF inference against a brute-force path-enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from medner.nercore import crf
from oracles import log_partition, marginals, nll, score_sequence, viterbi


def brute_force(emissions, transitions):
    """Enumerate every tag path: logZ, best path (lowest-index tie-break at
    each backtracking step, i.e. reverse-lexicographic smallest argmax),
    best score, and per-position marginals."""
    n, t = emissions.shape
    start, stop = t, t + 1
    scores = {}
    for path in itertools.product(range(t), repeat=n):
        s = transitions[start, path[0]] + emissions[0, path[0]]
        for i in range(1, n):
            s = s + transitions[path[i - 1], path[i]] + emissions[i, path[i]]
        scores[path] = float(s + transitions[path[n - 1], stop])
    peak = max(scores.values())
    log_z = peak + math.log(sum(math.exp(v - peak) for v in scores.values()))
    best_path = None
    best_score = -math.inf
    for path, s in scores.items():
        if s > best_score or (
            s == best_score and tuple(reversed(path)) < tuple(reversed(best_path))
        ):
            best_path, best_score = path, s
    marg = np.zeros((n, t))
    for path, s in scores.items():
        w = math.exp(s - log_z)
        for i, y in enumerate(path):
            marg[i, y] += w
    return log_z, list(best_path), best_score, marg


class TestTrivialCases:
    def test_logz_two_equal_paths(self):
        em = np.zeros((1, 2))
        tr = np.zeros((4, 4))
        assert log_partition(em, tr) == pytest.approx(math.log(2), abs=1e-12)

    def test_logz_four_equal_paths(self):
        em = np.zeros((2, 2))
        tr = np.zeros((4, 4))
        assert log_partition(em, tr) == pytest.approx(math.log(4), abs=1e-12)

    def test_score_single_term(self):
        em = np.array([[3.0, -1.0]])
        tr = np.zeros((4, 4))
        assert score_sequence(em, tr, [0]) == pytest.approx(3.0)

    def test_score_all_zero(self):
        em = np.zeros((3, 2))
        tr = np.zeros((4, 4))
        for path in itertools.product(range(2), repeat=3):
            assert score_sequence(em, tr, list(path)) == 0.0

    def test_score_hand_summed(self):
        rng = np.random.default_rng(0)
        em = rng.uniform(-2, 2, size=(3, 3))
        tr = rng.uniform(-2, 2, size=(5, 5))
        path = [2, 0, 1]
        by_hand = (
            tr[3, 2] + em[0, 2] + tr[2, 0] + em[1, 0] + tr[0, 1] + em[2, 1] + tr[1, 4]
        )
        assert score_sequence(em, tr, path) == pytest.approx(by_hand, abs=1e-12)

    def test_viterbi_tie_break_all_zero(self):
        em = np.zeros((4, 3))
        tr = np.zeros((5, 5))
        path, score = viterbi(em, tr)
        assert path == [0, 0, 0, 0]
        assert score == 0.0

    def test_viterbi_decoupled(self):
        em = np.array([[0.0, 2.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        tr = np.zeros((5, 5))
        path, score = viterbi(em, tr)
        assert path == [1, 0, 2]
        assert score == pytest.approx(6.0)

    def test_marginals_uniform(self):
        em = np.zeros((3, 2))
        tr = np.zeros((4, 4))
        np.testing.assert_allclose(marginals(em, tr), 0.5, atol=1e-12)

    def test_marginals_softmax(self):
        em = np.array([[math.log(3.0), 0.0]])
        tr = np.zeros((4, 4))
        np.testing.assert_allclose(marginals(em, tr), [[0.75, 0.25]], atol=1e-12)

    def test_nll_two_tags(self):
        em = np.zeros((1, 2))
        tr = np.zeros((4, 4))
        assert nll(em, tr, [0]) == pytest.approx(math.log(2), abs=1e-12)

    def test_nll_dominant_gold_path(self):
        em = np.array([[50.0, -50.0], [50.0, -50.0]])
        tr = np.zeros((4, 4))
        assert nll(em, tr, [0, 0]) == pytest.approx(0.0, abs=1e-10)


class TestOracleAgreement:
    def test_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(120):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(2, 5))
            em = rng.uniform(-2, 2, size=(n, t))
            tr = rng.uniform(-2, 2, size=(t + 2, t + 2))
            log_z_b, path_b, score_b, marg_b = brute_force(em, tr)
            assert log_partition(em, tr) == pytest.approx(log_z_b, abs=1e-9)
            path, score = viterbi(em, tr)
            assert path == path_b
            assert score == pytest.approx(score_b, abs=1e-9)
            marg = marginals(em, tr)
            np.testing.assert_allclose(marg, marg_b, atol=1e-9)
            np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)

    def test_integer_scores_force_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            t = int(rng.integers(2, 4))
            em = rng.integers(-1, 2, size=(n, t)).astype(float)
            tr = rng.integers(-1, 2, size=(t + 2, t + 2)).astype(float)
            _, path_b, _, _ = brute_force(em, tr)
            path, _ = viterbi(em, tr)
            assert path == path_b

    def test_gold_probability_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(2, 5))
            em = rng.uniform(-5, 5, size=(n, t))
            tr = rng.uniform(-5, 5, size=(t + 2, t + 2))
            path = [int(i) for i in rng.integers(0, t, size=n)]
            loss = nll(em, tr, path)
            p = math.exp(-loss)
            assert 0.0 < p <= 1.0 + 1e-12
            assert loss >= -1e-12


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(10):
            n = int(rng.integers(1, 6))
            t = int(rng.integers(2, 5))
            em = rng.uniform(-2, 2, size=(n, t))
            tr = rng.uniform(-2, 2, size=(t + 2, t + 2))
            path = [int(i) for i in rng.integers(0, t, size=n)]
            _, d_em, d_tr = crf.nll_and_gradients_batch(em[None], tr, np.array([n]), np.array([path]))
            for arr, grad in ((em, d_em[0]), (tr, d_tr)):
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                    old = flat[i]
                    flat[i] = old + h
                    up = nll(em, tr, path)
                    flat[i] = old - h
                    down = nll(em, tr, path)
                    flat[i] = old
                    fd = (up - down) / (2 * h)
                    assert abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3) < 1e-5

    def test_loss_matches_nll(self):
        rng = np.random.default_rng(3)
        em = rng.uniform(-2, 2, size=(4, 3))
        tr = rng.uniform(-2, 2, size=(5, 5))
        path = [0, 2, 1, 1]
        loss, _, _ = crf.nll_and_gradients_batch(em[None], tr, np.array([4]), np.array([path]))
        assert loss[0] == pytest.approx(nll(em, tr, path), abs=1e-12)


class TestMask:
    def test_masked_transitions_pinned(self):
        tr = np.zeros((4, 4))
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = False
        pinned = crf.apply_mask(tr, mask)
        assert pinned[0, 1] == crf.MASK_SCORE
        assert pinned[1, 0] == 0.0
        assert tr[0, 1] == 0.0  # original untouched

    def test_masked_path_never_decoded(self):
        rng = np.random.default_rng(4)
        t = 3
        mask = np.ones((t + 2, t + 2), dtype=bool)
        mask[0, 1] = False  # forbid 0 -> 1
        for _ in range(100):
            em = rng.uniform(-3, 3, size=(5, t))
            tr = crf.apply_mask(rng.uniform(-1, 1, size=(t + 2, t + 2)), mask)
            path, _ = viterbi(em, tr)
            assert (0, 1) not in set(zip(path, path[1:]))


class TestBatchViterbi:
    def test_agrees_with_single(self):
        rng = np.random.default_rng(5)
        em = rng.uniform(-2, 2, size=(16, 7, 5))
        tr = rng.uniform(-2, 2, size=(7, 7))
        paths = crf.viterbi_batch(em, tr)
        for i in range(16):
            single, _ = viterbi(em[i], tr)
            assert list(paths[i]) == single


class TestRaggedBatch:
    """viterbi_batch with lengths and marginals_batch against the
    single-sentence routines, row by row."""

    @staticmethod
    def ragged(rng, b, n, t, integer):
        lengths = rng.integers(1, n + 1, size=b)
        lengths[:3] = (1, n, 1)
        if integer:
            # small integer scores make equal-scoring paths common
            em = rng.integers(-2, 3, size=(b, n, t)).astype(float)
            tr = rng.integers(-2, 3, size=(t + 2, t + 2)).astype(float)
        else:
            em = rng.uniform(-2, 2, size=(b, n, t))
            tr = rng.uniform(-2, 2, size=(t + 2, t + 2))
        return em, tr, lengths

    @pytest.mark.parametrize("integer", [False, True])
    def test_viterbi_lengths_match_single(self, integer):
        rng = np.random.default_rng(61 + integer)
        for t in (2, 3, 5):
            em, tr, lengths = self.ragged(rng, 40, 9, t, integer)
            paths = crf.viterbi_batch(em, tr, lengths)
            assert paths.shape == (40, 9)
            for r, n in enumerate(lengths):
                single, _ = viterbi(em[r, :n], tr)
                assert list(paths[r, :n]) == single

    def test_integer_scores_tie_and_break_alike(self):
        # rows short enough to enumerate: some have several best paths, and
        # the batch keeps the one the brute-force oracle's tie-break keeps
        rng = np.random.default_rng(62)
        em, tr, lengths = self.ragged(rng, 40, 4, 3, integer=True)
        paths = crf.viterbi_batch(em, tr, lengths)
        tied = 0
        for r, n in enumerate(lengths):
            _, best, best_score, _ = brute_force(em[r, :n], tr)
            assert list(paths[r, :n]) == best
            scores = [score_sequence(em[r, :n], tr, p)
                      for p in itertools.product(range(3), repeat=n)]
            tied += scores.count(best_score) > 1
        assert tied > 0

    def test_full_lengths_equal_no_lengths(self):
        rng = np.random.default_rng(63)
        em = rng.uniform(-2, 2, size=(6, 5, 4))
        tr = rng.uniform(-2, 2, size=(6, 6))
        np.testing.assert_array_equal(
            crf.viterbi_batch(em, tr, np.full(6, 5)), crf.viterbi_batch(em, tr)
        )

    def test_marginals_match_single(self):
        rng = np.random.default_rng(64)
        for t in (2, 4, 13):
            em, tr, lengths = self.ragged(rng, 30, 12, t, integer=False)
            marg = crf.marginals_batch(em, tr, lengths)
            assert marg.shape == em.shape
            for r, n in enumerate(lengths):
                np.testing.assert_allclose(
                    marg[r, :n], marginals(em[r, :n], tr), rtol=0, atol=1e-10
                )

    @pytest.mark.filterwarnings("error")
    def test_padding_is_ignored(self):
        rng = np.random.default_rng(65)
        em, tr, lengths = self.ragged(rng, 10, 6, 3, integer=False)
        noisy = em.copy()
        for r, n in enumerate(lengths):
            noisy[r, n:] = 1e3
        np.testing.assert_array_equal(
            crf.viterbi_batch(noisy, tr, lengths), crf.viterbi_batch(em, tr, lengths)
        )
        a = crf.marginals_batch(noisy, tr, lengths)
        b = crf.marginals_batch(em, tr, lengths)
        for r, n in enumerate(lengths):
            np.testing.assert_array_equal(a[r, :n], b[r, :n])
            assert not a[r, n:].any()

    @pytest.mark.filterwarnings("error")
    def test_nll_rows_match_single(self):
        # a ragged batch: each row's loss is the oracle nll, its emission
        # gradient is its one-row batch's and zero past its length whatever
        # the padding holds, and the transition gradients sum over rows
        rng = np.random.default_rng(66)
        em, tr, lengths = self.ragged(rng, 12, 7, 4, integer=False)
        gold = rng.integers(0, 4, size=em.shape[:2])
        for r, n in enumerate(lengths):
            em[r, n:] = 1e3
        loss, d_em, d_tr = crf.nll_and_gradients_batch(em, tr, lengths, gold)
        want_tr = np.zeros_like(tr)
        for r, n in enumerate(lengths):
            assert loss[r] == pytest.approx(nll(em[r, :n], tr, gold[r, :n]), abs=1e-9)
            one, d_one, d_tr_one = crf.nll_and_gradients_batch(
                em[r : r + 1, :n], tr, lengths[r : r + 1], gold[r : r + 1, :n]
            )
            np.testing.assert_allclose(d_em[r, :n], d_one[0], rtol=0, atol=1e-12)
            assert not d_em[r, n:].any()
            want_tr += d_tr_one
        np.testing.assert_allclose(d_tr, want_tr, rtol=0, atol=1e-12)
