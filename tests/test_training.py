import dataclasses

import numpy as np
import pytest

from conftest import rule_corpus, rule_lexicon, tiny_config, toy_table
from medner.corpus import Corpus, build_vocab
from medner.errors import NumericError, ValidationError
from medner.nercore import crf, training
from medner.nercore.model import init_model, predict
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


class TestClip:
    def test_norm_reduced(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        total = clip_gradients(grads, 1.0)
        assert total == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        new_norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert new_norm == pytest.approx(1.0)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, 0.2])}
        clip_gradients(grads, 5.0)
        np.testing.assert_allclose(grads["a"], [0.1, 0.2])


class TestFit:
    def test_empty_train_rejected(self):
        model, corpus, config = fresh_setup()
        empty = Corpus([], corpus.schema)
        with pytest.raises(ValidationError):
            fit(model, empty, corpus, config)

    def test_patience_stops_after_two_epochs(self, monkeypatch):
        model, corpus, config = fresh_setup()
        config = dataclasses.replace(config, max_epochs=50, early_stopping_patience=1)
        monkeypatch.setattr(training, "validation_micro_f1", lambda m, c: 0.5)
        result = fit(model, corpus, corpus, config)
        assert len(result.history) == 2

    def test_non_finite_loss_aborts(self):
        model, corpus, config = fresh_setup()
        model.w_c[0, 0] = np.nan
        with pytest.raises(NumericError):
            fit(model, corpus, corpus, dataclasses.replace(config, max_epochs=1))

    def test_same_seed_bit_identical(self):
        runs = []
        for _ in range(2):
            model, corpus, config = fresh_setup(
                seed=23, size=8, max_epochs=4, dropout=0.3, batch_size=4
            )
            result = fit(model, corpus, corpus, config)
            runs.append((model, result))
        (m1, r1), (m2, r2) = runs
        assert r1.log_lines() == r2.log_lines()
        for name, t1 in m1.tensors().items():
            np.testing.assert_array_equal(t1, m2.tensors()[name], err_msg=name)

    def test_overfit_ten_sentences(self):
        # lr 1e-3, batch 10, <= 200 epochs; the acceptance suite repeats this
        # with the full timing gate
        model, corpus, config = fresh_setup(
            seed=42, size=10,
            learning_rate=1e-3, batch_size=10, max_epochs=200,
            warmup_steps=1, early_stopping_patience=1000, dropout=0.0,
        )
        result = fit(model, corpus, corpus, config)
        exact = sum(predict(model, s)[0] == s.tags() for s in corpus.sentences)
        assert exact == len(corpus)
        assert any(r.val_micro_f1 == 1.0 for r in result.history)

    def test_best_epoch_parameters_kept(self, monkeypatch):
        # metric sequence 0.2, 0.9, 0.1, ... -> parameters must come from epoch 2
        model, corpus, config = fresh_setup(size=6)
        config = dataclasses.replace(config, max_epochs=4, early_stopping_patience=10)
        metrics = iter([0.2, 0.9, 0.1, 0.1])
        snapshots = []

        def fake_metric(m, c):
            snapshots.append({k: t.copy() for k, t in m.tensors().items()})
            return next(metrics)

        monkeypatch.setattr(training, "validation_micro_f1", fake_metric)
        fit(model, corpus, corpus, config)
        best = snapshots[1]
        for name, tensor in model.tensors().items():
            np.testing.assert_array_equal(tensor, best[name], err_msg=name)


class TestGridSearch:
    def test_singleton_grid(self):
        model, corpus, config = fresh_setup(size=6, max_epochs=2)

        def build(cfg):
            return init_model(cfg, corpus.schema, model.vocab, model.embed)

        result = grid_search({"learning_rate": [3e-3]}, corpus, corpus, config, build)
        assert result.best_config.learning_rate == 3e-3
        assert len(result.runs) == 1

    def test_zero_epoch_config_loses(self):
        model, corpus, config = fresh_setup(size=8, max_epochs=25)

        def build(cfg):
            return init_model(cfg, corpus.schema, model.vocab, model.embed)

        result = grid_search({"max_epochs": [0, 25]}, corpus, corpus, config, build)
        assert result.best_config.max_epochs == 25

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
                r = fit(m, corpus, corpus, cfg)
                score = max((x.val_micro_f1 for x in r.history), default=0.0)
                rerun.append((cfg, score, m.num_parameters()))
        best = max(rerun, key=lambda item: (item[1], -item[0].learning_rate, -item[2]))
        assert result.best_config.learning_rate == best[0].learning_rate
        assert result.best_config.lstm_size == best[0].lstm_size


class TestValidationMetric:
    def test_perfect_predictions_score_one(self):
        model, corpus, config = fresh_setup(
            seed=42, size=10, learning_rate=1e-3, batch_size=10,
            max_epochs=200, warmup_steps=1, early_stopping_patience=1000,
        )
        fit(model, corpus, corpus, config)
        assert validation_micro_f1(model, corpus) == pytest.approx(1.0)

    def test_scoring_computes_no_marginals(self, monkeypatch):
        model, corpus, config = fresh_setup(size=6, max_epochs=1)
        fit(model, corpus, corpus, config)
        expected = validation_micro_f1(model, corpus)

        def no_marginals(*_args):
            raise AssertionError("scoring must not compute marginals")

        monkeypatch.setattr(crf, "marginals", no_marginals)
        assert validation_micro_f1(model, corpus) == expected
        report = evaluate(model, corpus)
        assert report.micro_f1 == expected
        assert 0.0 <= report.token_accuracy <= 1.0

    def test_metrics_log_fields(self):
        model, corpus, config = fresh_setup(size=5, max_epochs=2)
        result = fit(model, corpus, corpus, config)
        assert isinstance(result, FitResult)
        for line in result.log_lines():
            assert line.startswith("epoch=")
            for key in ("step=", "lr=", "train_loss=", "val_micro_f1="):
                assert key in line
