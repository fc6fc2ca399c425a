import math

import numpy as np
import pytest

from medner.nercore.layers import (
    LstmParams,
    bilstm_batch,
    bilstm_batch_backward,
    bilstm_forward,
    char_cnn_batch,
    char_cnn_batch_backward,
    char_cnn_forward,
    dropout_mask,
    emission_scores,
    lstm_batch,
    lstm_forward,
    sigmoid,
)


class TestCharCnn:
    def test_zero_weights_zero_output(self):
        emb = np.zeros((5, 3))
        filters = np.zeros((4, 2, 3))
        bias = np.zeros(4)
        out = char_cnn_forward(emb, filters, bias, [2, 3, 4])
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_hand_convolution(self):
        # one width-1 filter with weight 2 over scalar embeddings (1, -3, 2):
        # responses ReLU(2), ReLU(-6), ReLU(4) -> max 4
        emb = np.array([[0.0], [0.0], [1.0], [-3.0], [2.0]])
        filters = np.array([[[2.0]]])
        bias = np.zeros(1)
        out = char_cnn_forward(emb, filters, bias, [2, 3, 4])
        assert out[0] == pytest.approx(4.0)

    def test_short_word_padded(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(5, 3))
        filters = rng.normal(size=(2, 2, 3))
        bias = rng.normal(size=2)
        out = char_cnn_forward(emb, filters, bias, [3], pad_index=0)
        assert out.shape == (2,)
        np.testing.assert_array_equal(out, char_cnn_forward(emb, filters, bias, [3, 0]))

    def test_max_pool_picks_best_window(self):
        emb = np.array([[1.0], [0.0], [5.0]])
        filters = np.array([[[1.0]]])
        bias = np.zeros(1)
        out = char_cnn_forward(emb, filters, bias, [0, 1, 2])
        assert out[0] == pytest.approx(5.0)
        # the batched layer records the winning window's characters
        _, windows = char_cnn_batch(emb, filters, bias, [[0, 1, 2]])
        assert windows[0, 0, 0] == 2


class TestLstm:
    def test_zero_weights_zero_states(self):
        params = LstmParams(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))
        hs = lstm_forward(params, np.ones((4, 3)))
        np.testing.assert_array_equal(hs, np.zeros((4, 2)))

    def test_single_step_hand_computed(self):
        # S=1, D=1: z = w*x + b per gate, h = sigm(z_o) * tanh(sigm(z_i) * tanh(z_g))
        w = np.array([[0.5], [0.25], [-1.0], [2.0]])
        u = np.zeros((4, 1))
        b = np.array([0.1, -0.2, 0.3, 0.4])
        x = np.array([[0.7]])
        i = 1 / (1 + math.exp(-(0.5 * 0.7 + 0.1)))
        f = 1 / (1 + math.exp(-(0.25 * 0.7 - 0.2)))
        g = math.tanh(-1.0 * 0.7 + 0.3)
        o = 1 / (1 + math.exp(-(2.0 * 0.7 + 0.4)))
        c = i * g  # previous cell is zero, forget term drops out
        h_expected = o * math.tanh(c)
        hs = lstm_forward(LstmParams(w, u, b), x)
        assert hs[0, 0] == pytest.approx(h_expected, abs=1e-12)
        # a second step with zero input weighs the first cell by its forget
        # gate sigm(b_f)
        hs2 = lstm_forward(LstmParams(w, u, b), np.array([[0.7], [0.0]]))
        i2, f2 = 1 / (1 + math.exp(-0.1)), 1 / (1 + math.exp(0.2))
        g2, o2 = math.tanh(0.3), 1 / (1 + math.exp(-0.4))
        c2 = f2 * c + i2 * g2
        assert hs2[1, 0] == pytest.approx(o2 * math.tanh(c2), abs=1e-12)
        # the batched layer, both steps
        h = lstm_batch(u, np.array([[0.7], [0.0]]) @ w.T + b, np.array([[0, 1]]), np.array([2]),
                       np.zeros((1, 2, 1)))
        np.testing.assert_allclose(h[0, :, 0], [h_expected, hs2[1, 0]], rtol=0, atol=1e-12)

    def test_recurrence_uses_previous_state(self):
        rng = np.random.default_rng(1)
        params = LstmParams(rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), rng.normal(size=8))
        xs = rng.normal(size=(3, 2))
        hs = lstm_forward(params, xs)
        # repeating the first input alone must reproduce step one but not step two
        hs_single = lstm_forward(params, xs[:1])
        np.testing.assert_allclose(hs_single[0], hs[0], atol=1e-12)
        assert not np.allclose(hs[1], hs[0])


class TestBiLstm:
    def test_reversal_swaps_halves(self):
        rng = np.random.default_rng(2)
        s, d, n = 3, 4, 5
        fwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), rng.normal(size=4 * s))
        bwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), rng.normal(size=4 * s))
        xs = rng.normal(size=(n, d))
        h = bilstm_forward(fwd, bwd, xs)
        h_rev = bilstm_forward(bwd, fwd, xs[::-1])
        np.testing.assert_allclose(h_rev[::-1, s:], h[:, :s], atol=1e-12)
        np.testing.assert_allclose(h_rev[::-1, :s], h[:, s:], atol=1e-12)

    def test_shapes(self):
        rng = np.random.default_rng(3)
        s, d = 2, 3
        fwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), np.zeros(4 * s))
        bwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), np.zeros(4 * s))
        for n in (1, 2, 7):
            h = bilstm_forward(fwd, bwd, rng.normal(size=(n, d)))
            assert h.shape == (n, 2 * s)


class TestBatched:
    """The batched layers against the per-sentence oracles, and their
    backward passes against finite differences."""

    def test_char_cnn_batch_matches_per_word(self):
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(9, 5))
        filters = rng.normal(size=(6, 3, 5))
        bias = rng.normal(size=6)
        # lengths 0 to 7 around the kernel width of 3, one word repeated
        words = [[int(c) for c in rng.integers(1, 9, size=n)] for n in (7, 0, 1, 2, 3, 4, 2)]
        words.append(words[3])
        out, windows = char_cnn_batch(emb, filters, bias, words)
        assert out.shape == (len(words), 6)
        assert windows.shape == (len(words), 6, 3)
        for row, word in zip(out, words):
            single = char_cnn_forward(emb, filters, bias, word)
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-12)

    def test_bilstm_batch_matches_per_sentence(self):
        rng = np.random.default_rng(5)
        s, d, distinct = 3, 4, 6
        fwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), rng.normal(size=4 * s))
        bwd = LstmParams(rng.normal(size=(4 * s, d)), rng.normal(size=(4 * s, s)), rng.normal(size=4 * s))
        x = rng.normal(size=(distinct, d))
        lens = np.array([7, 5, 5, 2, 1])
        tok = rng.integers(0, distinct, size=(len(lens), 7))
        h = bilstm_batch(fwd.u, bwd.u, x @ fwd.w.T + fwd.b, x @ bwd.w.T + bwd.b, tok, lens)
        assert h.shape == (len(lens), 7, 2 * s)
        for r, n in enumerate(lens):
            single = bilstm_forward(fwd, bwd, x[tok[r, :n]])
            np.testing.assert_allclose(h[r, :n], single, rtol=0, atol=1e-12)
            assert not h[r, n:].any()

    def test_bilstm_batch_backward_matches_finite_differences(self):
        # ragged rows that share inputs; the loss weighs every hidden state
        rng = np.random.default_rng(6)
        s, distinct = 3, 5
        u_f, u_b = rng.normal(size=(4 * s, s)), rng.normal(size=(4 * s, s))
        zx_f, zx_b = rng.normal(size=(distinct, 4 * s)), rng.normal(size=(distinct, 4 * s))
        lens = np.array([6, 4, 4, 1])
        tok = rng.integers(0, distinct, size=(len(lens), 6))
        weight = rng.normal(size=(len(lens), 6, 2 * s))

        def loss():
            return float((bilstm_batch(u_f, u_b, zx_f, zx_b, tok, lens) * weight).sum())

        h = bilstm_batch(u_f, u_b, zx_f, zx_b, tok, lens)
        d_u_f, d_u_b = np.zeros_like(u_f), np.zeros_like(u_b)
        dz_f, dz_b = bilstm_batch_backward(u_f, u_b, zx_f, zx_b, tok, lens, h, weight,
                                           d_u_f, d_u_b)
        for n, row_f, row_b in zip(lens, dz_f, dz_b):
            assert not row_f[n:].any() and not row_b[n:].any()
        d_zx_f, d_zx_b = np.zeros_like(zx_f), np.zeros_like(zx_b)
        np.add.at(d_zx_f, tok.ravel(), dz_f.reshape(-1, 4 * s))
        np.add.at(d_zx_b, tok.ravel(), dz_b.reshape(-1, 4 * s))
        eps = 1e-6
        for arr, grad in ((u_f, d_u_f), (u_b, d_u_b), (zx_f, d_zx_f), (zx_b, d_zx_b)):
            for i in rng.choice(arr.size, size=10, replace=False):
                flat = arr.reshape(-1)
                old = flat[i]
                flat[i] = old + eps
                up = loss()
                flat[i] = old - eps
                down = loss()
                flat[i] = old
                assert (up - down) / (2 * eps) == pytest.approx(grad.reshape(-1)[i], rel=1e-6, abs=1e-8)

    def test_char_cnn_batch_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        emb = rng.normal(size=(6, 4))
        filters = rng.normal(size=(5, 2, 4))
        bias = rng.normal(size=5)
        words = [[1, 2, 3, 4], [5], [2, 2, 1], [3, 1, 4, 1, 5]]
        weight = rng.normal(size=(len(words), 5))

        def loss():
            return float((char_cnn_batch(emb, filters, bias, words)[0] * weight).sum())

        out, windows = char_cnn_batch(emb, filters, bias, words)
        grads = np.zeros_like(emb), np.zeros_like(filters), np.zeros_like(bias)
        char_cnn_batch_backward(emb, filters, windows, out, weight, *grads)
        eps = 1e-6
        for arr, grad in zip((emb, filters, bias), grads):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                up = loss()
                flat[i] = old - eps
                down = loss()
                flat[i] = old
                assert (up - down) / (2 * eps) == pytest.approx(grad.reshape(-1)[i], rel=1e-6, abs=1e-8)


class TestEmission:
    def test_zero_params(self):
        scores = emission_scores(np.zeros((3, 4)), np.zeros(3), np.ones((5, 4)))
        np.testing.assert_array_equal(scores, np.zeros((5, 3)))

    def test_tanh_saturation(self):
        # large positive bias pushes scores toward 1 from below (float64 keeps
        # tanh(8) strictly under 1; far larger arguments round to exactly 1)
        scores = emission_scores(np.zeros((2, 4)), np.full(2, 8.0), np.ones((3, 4)))
        assert np.all(scores < 1.0)
        assert np.all(scores > 0.999999)

    def test_scalar_value(self):
        scores = emission_scores(np.array([[1.0]]), np.zeros(1), np.array([[0.5]]))
        assert scores[0, 0] == pytest.approx(0.46211715726000974, abs=1e-9)

    def test_open_interval(self):
        rng = np.random.default_rng(4)
        scores = emission_scores(
            rng.normal(size=(3, 6)), rng.normal(size=3), rng.normal(size=(10, 6))
        )
        assert np.all(scores > -1.0) and np.all(scores < 1.0)


class TestDropout:
    def test_deterministic_per_key(self):
        a = dropout_mask((4, 5), 0.5, seed=1, step=2, unit=3, layer=0)
        b = dropout_mask((4, 5), 0.5, seed=1, step=2, unit=3, layer=0)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = dropout_mask((6, 6), 0.5, seed=1, step=2, unit=3, layer=0)
        for kwargs in (
            dict(seed=2, step=2, unit=3, layer=0),
            dict(seed=1, step=3, unit=3, layer=0),
            dict(seed=1, step=2, unit=4, layer=0),
            dict(seed=1, step=2, unit=3, layer=1),
        ):
            other = dropout_mask((6, 6), 0.5, **kwargs)
            assert not np.array_equal(base, other)

    def test_inverted_scaling(self):
        mask = dropout_mask((2000,), 0.5, seed=0, step=0, unit=0, layer=0)
        assert set(np.unique(mask)) == {0.0, 2.0}
        assert abs(mask.mean() - 1.0) < 0.1


class TestSigmoid:
    def test_extremes_stable(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_matches_logistic(self):
        # the tanh form is exact to rounding in absolute terms; far in the
        # negative tail, 1 + tanh cancels and the relative error grows
        x = np.linspace(-30.0, 30.0, 601)
        np.testing.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-14, atol=1e-16)
