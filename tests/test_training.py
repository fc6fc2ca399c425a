import dataclasses
import itertools
import json

import numpy as np
import pytest

from conftest import rule_corpus, rule_lexicon, tiny_config, toy_table, write_embeddings
from medner import cli
from medner.corpus import TSV2, Corpus, build_vocab, write_conll
from medner.errors import NumericError, ValidationError
from medner.nercore import crf, training
from medner.nercore.model import batch_nll_and_grads, init_model, tag
from medner.nercore.serialize import load_model, save_model
from medner.nercore.training import (
    FitResult,
    clip_gradients,
    evaluate,
    fit,
    grid_search,
    validation_micro_f1,
    warmup_lr,
)


def fresh_setup(seed=17, size=10, dim=16, **cfg_overrides):
    rng = np.random.default_rng(seed)
    corpus = rule_corpus(rng, size)
    table = toy_table(rule_lexicon(), dim, rng)
    vocab = build_vocab(corpus)
    config = tiny_config(word_dim=dim, **cfg_overrides)
    model = init_model(config, corpus.schema, vocab, table)
    return model, corpus, config


class TestWarmup:
    def test_linear_then_constant(self):
        assert warmup_lr(1e-3, 0, 100) == 0.0
        assert warmup_lr(1e-3, 50, 100) == pytest.approx(5e-4)
        assert warmup_lr(1e-3, 100, 100) == pytest.approx(1e-3)
        assert warmup_lr(1e-3, 5000, 100) == pytest.approx(1e-3)


def oracle_adam_step(model, grads, m, v, t, config):
    """Adam as written in Kingma & Ba, one tensor at a time: the per-tensor
    update adam_step replaced, kept as its oracle. m and v are dicts of
    unscaled moments; returns the learning rate used."""
    lr = warmup_lr(config.learning_rate, t, config.warmup_steps)
    b1, b2, eps = config.beta1, config.beta2, config.epsilon
    tensors = model.tensors()
    for name, g in grads.items():
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * (g * g)
        m_hat = m[name] / (1.0 - b1**t)
        v_hat = v[name] / (1.0 - b2**t)
        tensors[name] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    model.pin_masked_transitions()
    return lr


def assert_tiles(tensors, flat):
    """The tensors are C-contiguous float64 views of the 1-D buffer flat, in
    order, tiling it without overlap."""
    assert flat.ndim == 1 and flat.dtype == np.float64 and flat.flags.c_contiguous
    offset = 0
    for name, t in tensors.items():
        assert t.flags.c_contiguous and t.dtype == np.float64, name
        assert t.ctypes.data == flat.ctypes.data + 8 * offset, name
        offset += t.size
    assert offset == flat.size
    for (a, x), (b, y) in itertools.combinations(tensors.items(), 2):
        assert not np.shares_memory(x, y), (a, b)


def assert_flat_store(model):
    assert_tiles(model.tensors(), model.flat)


def max_rel_err(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


class TestClip:
    def test_norm_reduced(self):
        grad = np.concatenate([np.full(4, 3.0), np.full(9, 4.0)])
        total = clip_gradients(grad, 1.0)
        assert total == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        new_norm = np.sqrt(float(np.sum(grad * grad)))
        assert new_norm == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        grad = np.array([0.1, 0.2])
        clip_gradients(grad, 5.0)
        np.testing.assert_allclose(grad, [0.1, 0.2])


class TestAdam:
    def test_matches_per_tensor_oracle(self):
        model = self.check_against_oracle()
        assert model.flat.size <= training.ADAM_BLOCK  # one block

    def test_small_blocks_match_per_tensor_oracle(self, monkeypatch):
        # the test model fits in one default block; 7-element blocks make the
        # sweep cross every tensor boundary and end in a ragged block
        monkeypatch.setattr(training, "ADAM_BLOCK", 7)
        model = self.check_against_oracle()
        assert model.flat.size > 100 * 7 and model.flat.size % 7 != 0

    @staticmethod
    def check_against_oracle():
        # 60 steps across a 20-step warmup, real gradients at three scales,
        # with the transition mask and a trainable word delta
        model, corpus, config = fresh_setup(
            size=6, warmup_steps=20, dropout=0.2, train_word_delta=True,
        )
        assert model.transition_mask is not None and not model.transition_mask.all()
        oracle = dataclasses.replace(model, flat=model.flat.copy())  # a copy of every tensor
        assert not np.shares_memory(oracle.flat, model.flat)
        state = training.TrainState.for_model(model)
        m = {k: np.zeros_like(t) for k, t in oracle.tensors().items()}
        v = {k: np.zeros_like(t) for k, t in oracle.tensors().items()}
        b1, b2 = config.beta1, config.beta2
        for step in range(1, 61):
            batch = [corpus.sentences[step % len(corpus)]]
            _, grads = batch_nll_and_grads(model, batch, step=step)
            grads.flat *= (1e-3, 1.0, 30.0)[step % 3]
            lr_oracle = oracle_adam_step(oracle, grads, m, v, step, config)
            assert training.adam_step(model, grads.flat, state) == lr_oracle
            if step in (1, 20, 60):
                pairs = [(model.tensors(), oracle.tensors())]
                pairs += [(model.views(state.m * (1.0 - b1)), m),
                          (model.views(state.v * (1.0 - b2)), v)]
                for got, ref in pairs:
                    for name in ref:
                        err = max_rel_err(got[name], ref[name])
                        assert err <= 1e-12, (step, name, err)
        masked = ~model.transition_mask
        assert np.all(model.transitions[masked] == crf.MASK_SCORE)
        assert np.all(model.transitions[~masked] != crf.MASK_SCORE)
        return model

    @pytest.mark.parametrize("block", [None, 7])
    def test_non_finite_update_names_tensor(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(training, "ADAM_BLOCK", block)
        model, corpus, _ = fresh_setup(size=3)
        state = training.TrainState.for_model(model)
        _, grads = batch_nll_and_grads(model, corpus.sentences)
        grads["lstm_bwd_u"][2, 1] = np.nan
        with pytest.raises(NumericError, match="tensor lstm_bwd_u contains non-finite"):
            training.adam_step(model, grads.flat, state)

    def test_steps_in_place(self):
        model, corpus, _ = fresh_setup(size=3)
        state = training.TrainState.for_model(model)

        def addresses():
            return [b.ctypes.data for b in (model.flat, state.m, state.v, state.scratch)]

        before = addresses()
        _, grads = batch_nll_and_grads(model, corpus.sentences)
        training.adam_step(model, grads.flat, state)
        assert addresses() == before
        assert_flat_store(model)


class TestFlatStore:
    def test_init_model(self):
        model, _, _ = fresh_setup(train_word_delta=True)
        assert_flat_store(model)
        assert model.num_parameters() == model.flat.size

    def test_load_model(self, tmp_path):
        model, _, _ = fresh_setup(train_word_delta=True)
        save_model(model, str(tmp_path / "m.medner"))
        loaded = load_model(str(tmp_path / "m.medner"))
        assert_flat_store(loaded)
        np.testing.assert_array_equal(loaded.flat, model.flat)
        # the flat buffer is the payload's own prefix: loading stays zero-copy
        assert loaded.flat.base is loaded.embed.matrix.base

    def test_replaced_buffer_is_viewed(self):
        model, _, _ = fresh_setup()
        before = model.flat.copy()
        other = dataclasses.replace(model, flat=np.ones_like(model.flat))
        assert_flat_store(other)
        assert not np.shares_memory(other.flat, model.flat)
        assert np.all(other.w_c == 1.0) and np.all(other.lstm_bwd.u == 1.0)
        np.testing.assert_array_equal(model.flat, before)
        same = dataclasses.replace(model, config=dataclasses.replace(model.config, seed=7))
        assert same.flat is model.flat
        assert same.lstm_fwd.u.ctypes.data == model.lstm_fwd.u.ctypes.data
        with pytest.raises(ValidationError):
            dataclasses.replace(model, flat=model.flat[:-1])

    def test_write_through_field_shows_in_buffer(self, tmp_path):
        model, _, _ = fresh_setup()
        save_model(model, str(tmp_path / "m.medner"))
        for m in (model, load_model(str(tmp_path / "m.medner"))):
            views = m.views(m.flat)
            m.lstm_bwd.u[3, 2] = 7.25
            assert views["lstm_bwd_u"][3, 2] == 7.25
            m.flat[-1] = -3.5
            assert m.transitions[-1, -1] == -3.5

    def test_gradients_share_one_buffer(self):
        model, corpus, _ = fresh_setup(size=3)
        _, grads = batch_nll_and_grads(model, corpus.sentences)
        assert_tiles(grads, grads.flat)
        assert [(k, g.shape) for k, g in grads.items()] == [
            (k, t.shape) for k, t in model.tensors().items()]

    def test_fit_reuses_one_gradient_buffer(self, monkeypatch):
        model, corpus, _ = fresh_setup(size=6, max_epochs=2, batch_size=2)
        given = []

        def recording(*args, grads, **kwargs):
            assert not grads.flat.any()  # zeroed before every step
            given.append(grads.flat.ctypes.data)
            return batch_nll_and_grads(*args, grads=grads, **kwargs)

        monkeypatch.setattr(training, "batch_nll_and_grads", recording)
        fit(model, corpus, corpus)
        assert len(given) == 6 and len(set(given)) == 1

    def test_gradient_buffers(self):
        model, corpus, _ = fresh_setup(size=3)
        first, rest = corpus.sentences[:1], corpus.sentences[1:]
        _, a = batch_nll_and_grads(model, first)
        _, b = batch_nll_and_grads(model, rest)
        # without a buffer every call returns its own
        assert not np.shares_memory(a.flat, b.flat)
        # with one, the gradients accumulate into it
        _, c = batch_nll_and_grads(model, rest, grads=a)
        assert c is a
        _, both = batch_nll_and_grads(model, corpus.sentences)
        np.testing.assert_allclose(a.flat, both.flat, rtol=1e-12, atol=1e-15)

    def test_fit_restoring_an_earlier_epoch(self, monkeypatch):
        model, corpus, _ = fresh_setup(size=6, max_epochs=3, early_stopping_patience=10)
        metrics = iter([0.9, 0.1, 0.1])
        flat = model.flat
        monkeypatch.setattr(training, "validation_micro_f1", lambda m, c: next(metrics))
        fit(model, corpus, corpus)
        assert model.flat is flat
        assert_flat_store(model)


class TestFit:
    def test_empty_train_rejected(self):
        model, corpus, _ = fresh_setup()
        empty = Corpus([], corpus.schema)
        with pytest.raises(ValidationError):
            fit(model, empty, corpus)

    def test_patience_stops_after_two_epochs(self, monkeypatch):
        model, corpus, _ = fresh_setup(max_epochs=50, early_stopping_patience=1)
        monkeypatch.setattr(training, "validation_micro_f1", lambda m, c: 0.5)
        result = fit(model, corpus, corpus)
        assert len(result.history) == 2

    def test_non_finite_loss_aborts(self):
        model, corpus, _ = fresh_setup(max_epochs=1)
        model.w_c[0, 0] = np.nan
        with pytest.raises(NumericError):
            fit(model, corpus, corpus)

    def test_same_seed_bit_identical(self):
        runs = []
        for _ in range(2):
            model, corpus, _ = fresh_setup(
                seed=23, size=8, max_epochs=4, dropout=0.3, batch_size=4
            )
            result = fit(model, corpus, corpus)
            runs.append((model, result))
        (m1, r1), (m2, r2) = runs
        assert r1.log_lines() == r2.log_lines()
        for name, t1 in m1.tensors().items():
            np.testing.assert_array_equal(t1, m2.tensors()[name], err_msg=name)

    def test_overfit_ten_sentences(self):
        # lr 1e-3, batch 10, <= 200 epochs; the acceptance suite repeats this
        # with the full timing gate
        model, corpus, _ = fresh_setup(
            seed=42, size=10,
            learning_rate=1e-3, batch_size=10, max_epochs=200,
            warmup_steps=1, early_stopping_patience=1000, dropout=0.0,
        )
        result = fit(model, corpus, corpus)
        exact = sum(tag(model, [s], marginals=True)[0][0] == s.tags() for s in corpus.sentences)
        assert exact == len(corpus)
        assert any(r.val_micro_f1 == 1.0 for r in result.history)

    def test_best_epoch_parameters_kept(self, monkeypatch):
        # metric sequence 0.2, 0.9, 0.1, ... -> parameters must come from epoch 2
        model, corpus, _ = fresh_setup(size=6, max_epochs=4, early_stopping_patience=10)
        metrics = iter([0.2, 0.9, 0.1, 0.1])
        snapshots = []

        def fake_metric(m, c):
            snapshots.append({k: t.copy() for k, t in m.tensors().items()})
            return next(metrics)

        monkeypatch.setattr(training, "validation_micro_f1", fake_metric)
        fit(model, corpus, corpus)
        best = snapshots[1]
        for name, tensor in model.tensors().items():
            np.testing.assert_array_equal(tensor, best[name], err_msg=name)


class TestGridSearch:
    def test_singleton_grid(self):
        model, corpus, config = fresh_setup(size=6, max_epochs=2)

        def build(cfg):
            return init_model(cfg, corpus.schema, model.vocab, model.embed)

        result = grid_search({"learning_rate": [3e-3]}, corpus, corpus, config, build)
        assert result.best.model.config.learning_rate == 3e-3
        assert len(result.runs) == 1

    def test_zero_epoch_config_loses(self):
        model, corpus, config = fresh_setup(size=8, max_epochs=25)

        def build(cfg):
            return init_model(cfg, corpus.schema, model.vocab, model.embed)

        result = grid_search({"max_epochs": [0, 25]}, corpus, corpus, config, build)
        assert result.best.model.config.max_epochs == 25

    def test_empty_grid_rejected(self):
        model, corpus, config = fresh_setup(size=4)
        with pytest.raises(ValidationError):
            grid_search({}, corpus, corpus, config, lambda cfg: model)
        with pytest.raises(ValidationError):
            grid_search({"learning_rate": []}, corpus, corpus, config, lambda cfg: model)

    def test_two_by_two_matches_exhaustive_rerun(self):
        model, corpus, config = fresh_setup(size=8, max_epochs=3)
        grid = {"learning_rate": [1e-3, 3e-3], "lstm_size": [8, 12]}

        def build(cfg):
            return init_model(cfg, corpus.schema, model.vocab, model.embed)

        result = grid_search(grid, corpus, corpus, config, build)

        # independent re-run: fit every combination again and apply the
        # documented tie-break by hand
        rerun = []
        for lr in grid["learning_rate"]:
            for s in grid["lstm_size"]:
                cfg = dataclasses.replace(config, learning_rate=lr, lstm_size=s)
                m = build(cfg)
                r = fit(m, corpus, corpus)
                score = max((x.val_micro_f1 for x in r.history), default=0.0)
                rerun.append((cfg, score, m.num_parameters()))
        best = max(rerun, key=lambda item: (item[1], -item[0].learning_rate, -item[2]))
        assert result.best.model.config.learning_rate == best[0].learning_rate
        assert result.best.model.config.lstm_size == best[0].lstm_size


    def test_train_saves_the_winning_fit(self, tmp_path, monkeypatch):
        # `medner train --grid` fits each grid point once and saves the
        # winner's model and log, without fitting the winner again
        rng = np.random.default_rng(5)
        corpus = rule_corpus(rng, 12)
        (tmp_path / "train.tsv").write_text(write_conll(corpus, TSV2), encoding="utf-8")
        write_embeddings(toy_table(rule_lexicon(), 16, rng), str(tmp_path / "vectors.txt"))
        (tmp_path / "grid.txt").write_text("learning_rate = 1e-2, 1e-3, 3e-3\n",
                                           encoding="utf-8")
        fits = []

        def recording(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(training, "fit", recording)
        monkeypatch.setattr(cli, "fit", recording)
        out = tmp_path / "out"
        code = cli.main([
            "train", "--train", str(tmp_path / "train.tsv"), "--val", str(tmp_path / "train.tsv"),
            "--embeddings", str(tmp_path / "vectors.txt"), "--grid", str(tmp_path / "grid.txt"),
            "--out-dir", str(out), "--embed-dim", "16", "--char-dim", "8", "--num-filters", "8",
            "--lstm-size", "8", "--batch-size", "4", "--max-epochs", "2", "--dropout", "0.1",
            "--warmup-steps", "2",
        ])
        assert code == 0
        assert len(fits) == 3
        runs = json.loads((out / "grid_results.json").read_text(encoding="utf-8"))
        winner = min(range(3), key=lambda i: (-runs[i]["val_micro_f1"],
                                              runs[i]["config"]["learning_rate"],
                                              runs[i]["num_parameters"], i))
        best = fits[winner]
        assert best.model.config.to_dict() == runs[winner]["config"]
        save_model(best.model, str(tmp_path / "winner.medner"))
        assert (out / "model.medner").read_bytes() == (tmp_path / "winner.medner").read_bytes()
        assert (out / "metrics.log").read_text(encoding="utf-8") == "".join(
            line + "\n" for line in best.log_lines())


class TestValidationMetric:
    def test_perfect_predictions_score_one(self):
        model, corpus, _ = fresh_setup(
            seed=42, size=10, learning_rate=1e-3, batch_size=10,
            max_epochs=200, warmup_steps=1, early_stopping_patience=1000,
        )
        fit(model, corpus, corpus)
        assert validation_micro_f1(model, corpus) == pytest.approx(1.0)

    def test_scoring_computes_no_marginals(self, monkeypatch):
        model, corpus, _ = fresh_setup(size=6, max_epochs=1)
        fit(model, corpus, corpus)
        expected = validation_micro_f1(model, corpus)

        def no_marginals(*_args):
            raise AssertionError("scoring must not compute marginals")

        monkeypatch.setattr(crf, "marginals_batch", no_marginals)
        assert validation_micro_f1(model, corpus) == expected
        report = evaluate(model, corpus)
        assert report.micro_f1 == expected
        assert 0.0 <= report.token_accuracy <= 1.0

    def test_metrics_log_fields(self):
        model, corpus, _ = fresh_setup(size=5, max_epochs=2)
        result = fit(model, corpus, corpus)
        assert isinstance(result, FitResult)
        for line in result.log_lines():
            assert line.startswith("epoch=")
            for key in ("step=", "lr=", "train_loss=", "val_micro_f1="):
                assert key in line
