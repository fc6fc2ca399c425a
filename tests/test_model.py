import numpy as np
import pytest

from conftest import make_sentence, rule_corpus, rule_lexicon, tiny_config, toy_table
from medner.corpus import LabelSchema, build_vocab, validate_iob
from medner.errors import ValidationError
from medner.nercore.model import (
    TrainConfig,
    batch_nll,
    batch_nll_and_grads,
    gold_path,
    init_model,
    model_forward,
    predict,
    tag,
)


@pytest.fixture(scope="module")
def tiny_model():
    rng = np.random.default_rng(21)
    corpus = rule_corpus(rng, 12)
    table = toy_table(rule_lexicon(), 16, rng)
    vocab = build_vocab(corpus)
    model = init_model(tiny_config(), corpus.schema, vocab, table)
    return model, corpus


class TestForward:
    def test_eval_mode_deterministic(self, tiny_model):
        model, corpus = tiny_model
        sent = corpus.sentences[0]
        a, _ = model_forward(model, sent, train_mode=False)
        b, _ = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self, tiny_model):
        model, corpus = tiny_model
        sent = corpus.sentences[1]
        assert model.config.dropout == 0.0
        train, _ = model_forward(model, sent, train_mode=True, step=3, unit=1)
        eval_, _ = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(train, eval_)

    def test_dropout_changes_train_mode_only(self, tiny_model):
        model, corpus = tiny_model
        import dataclasses

        dropped = dataclasses.replace(model, config=TrainConfig(**{
            **model.config.to_dict(), "dropout": 0.5}))
        sent = corpus.sentences[2]
        eval_, _ = model_forward(dropped, sent, train_mode=False)
        base, _ = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(eval_, base)
        train_a, _ = model_forward(dropped, sent, train_mode=True, step=0, unit=0)
        train_b, _ = model_forward(dropped, sent, train_mode=True, step=0, unit=0)
        np.testing.assert_array_equal(train_a, train_b)
        assert not np.array_equal(train_a, eval_)

    def test_emission_shape(self, tiny_model):
        model, corpus = tiny_model
        for sent in corpus.sentences[:5]:
            emissions, _ = model_forward(model, sent)
            assert emissions.shape == (len(sent), model.schema.num_tags)

    def test_char_features_can_be_disabled(self, tiny_model):
        _, corpus = tiny_model
        rng = np.random.default_rng(3)
        table = toy_table(rule_lexicon(), 16, rng)
        vocab = build_vocab(corpus)
        cfg = tiny_config(use_char_features=False)
        model = init_model(cfg, corpus.schema, vocab, table)
        assert model.input_dim == 16
        emissions, _ = model_forward(model, corpus.sentences[0])
        assert emissions.shape[1] == model.schema.num_tags


class TestGradients:
    def test_finite_differences_all_groups(self):
        # small dims keep the check quick; the acceptance suite runs the
        # full 500-parameter version
        rng = np.random.default_rng(31)
        corpus = rule_corpus(rng, 3)
        table = toy_table(rule_lexicon(), 8, rng)
        vocab = build_vocab(corpus)
        cfg = tiny_config(
            word_dim=8, char_dim=4, num_filters=3, lstm_size=6,
            use_transition_mask=False, train_word_delta=True,
        )
        model = init_model(cfg, corpus.schema, vocab, table)
        batch = corpus.sentences
        _, grads = batch_nll_and_grads(model, batch, train_mode=False)
        h = 1e-5
        tensors = model.tensors()
        for name, arr in tensors.items():
            flat = arr.reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                old = flat[i]
                flat[i] = old + h
                up = batch_nll(model, batch)
                flat[i] = old - h
                down = batch_nll(model, batch)
                flat[i] = old
                fd = (up - down) / (2 * h)
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3)
                assert err < 1e-4, (name, i, fd, gflat[i])

    def test_unused_char_gradient_zero(self, tiny_model):
        model, corpus = tiny_model
        batch = corpus.sentences[:4]
        _, grads = batch_nll_and_grads(model, batch, train_mode=False)
        used = set()
        for sent in batch:
            for token in sent.tokens:
                used.update(model.vocab.char_indices(token.surface))
        unused = [i for i in range(model.vocab.num_chars) if i not in used and i != 0]
        assert unused, "fixture should leave some characters unused"
        for i in unused:
            np.testing.assert_array_equal(grads["char_emb"][i], 0.0)

    def test_duplicated_batch_doubles_gradients(self, tiny_model):
        model, corpus = tiny_model
        batch = corpus.sentences[:3]
        loss, grads = batch_nll_and_grads(model, batch, train_mode=False)
        loss2, grads2 = batch_nll_and_grads(model, batch + batch, train_mode=False)
        assert loss2 == pytest.approx(2 * loss, rel=1e-12)
        for name in grads:
            np.testing.assert_allclose(grads2[name], 2 * grads[name], atol=1e-12)

    def test_dropout_gradients_still_exact(self):
        # finite differences through fixed dropout masks (same step/unit keys)
        rng = np.random.default_rng(32)
        corpus = rule_corpus(rng, 2)
        table = toy_table(rule_lexicon(), 8, rng)
        vocab = build_vocab(corpus)
        cfg = tiny_config(word_dim=8, char_dim=4, num_filters=3, lstm_size=5, dropout=0.3)
        model = init_model(cfg, corpus.schema, vocab, table)
        batch = corpus.sentences

        def loss_at(step):
            from medner.nercore import crf

            total = 0.0
            trans = model.effective_transitions()
            for unit, sent in enumerate(batch):
                em, _ = model_forward(model, sent, train_mode=True, step=step, unit=unit)
                total += crf.nll(em, trans, gold_path(model, sent))
            return total

        _, grads = batch_nll_and_grads(model, batch, train_mode=True, step=5)
        h = 1e-5
        tensors = model.tensors()
        for name in ("char_filters", "lstm_fwd_w", "w_c", "transitions"):
            flat = tensors[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for i in rng.choice(flat.size, size=6, replace=False):
                old = flat[i]
                flat[i] = old + h
                up = loss_at(5)
                flat[i] = old - h
                down = loss_at(5)
                flat[i] = old
                fd = (up - down) / (2 * h)
                if name == "transitions" and not model.transition_mask[
                    np.unravel_index(i, tensors[name].shape)
                ]:
                    assert gflat[i] == 0.0
                    continue
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3)
                assert err < 1e-4, (name, i, fd, gflat[i])


class TestPredict:
    def test_empty_input(self, tiny_model):
        model, _ = tiny_model
        tags, marg = predict(model, [])
        assert tags == []
        assert marg.shape == (0, model.schema.num_tags)

    def test_output_contract(self, tiny_model):
        model, corpus = tiny_model
        for sent in corpus.sentences[:5]:
            tags, marg = predict(model, sent)
            assert len(tags) == len(sent)
            assert all(t in model.schema.tags for t in tags)
            assert marg.shape == (len(sent), model.schema.num_tags)
            np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-9)

    def test_tag_without_marginals_matches_predict(self, tiny_model):
        model, corpus = tiny_model
        sentences = corpus.sentences[:5] + [[]]
        tagged = tag(model, sentences, marginals=False)
        assert len(tagged) == len(sentences)
        for sent, (tags, marg) in zip(sentences, tagged):
            assert tags == predict(model, sent)[0]
            assert marg is None

    def test_mask_guarantees_valid_iob(self, tiny_model):
        model, _ = tiny_model
        rng = np.random.default_rng(9)
        alphabet = "abc9-X"
        for _ in range(300):
            n = int(rng.integers(1, 8))
            words = [
                "".join(alphabet[j] for j in rng.integers(0, len(alphabet), size=rng.integers(1, 6)))
                for _ in range(n)
            ]
            tags, _ = predict(model, words)
            assert validate_iob(tags, "IOB2") == []

    def test_mask_applied_even_when_training_unmasked(self):
        rng = np.random.default_rng(33)
        corpus = rule_corpus(rng, 4)
        table = toy_table(rule_lexicon(), 8, rng)
        vocab = build_vocab(corpus)
        cfg = tiny_config(word_dim=8, char_dim=4, num_filters=3, lstm_size=5,
                          use_transition_mask=False)
        model = init_model(cfg, corpus.schema, vocab, table)
        assert model.transition_mask is None
        for sent in corpus.sentences:
            tags, _ = predict(model, sent)
            assert validate_iob(tags, "IOB2") == []


class TestGoldPath:
    def test_rejects_tags_outside_schema(self, tiny_model):
        model, _ = tiny_model
        sent = make_sentence(["a"], ["B-Nope"])
        with pytest.raises(ValidationError, match="B-Nope"):
            gold_path(model, sent)

    def test_rejects_masked_transition(self, tiny_model):
        model, _ = tiny_model
        sent = make_sentence(["a", "b"], ["O", "I-Symptom"])
        with pytest.raises(ValidationError, match="forbidden transition"):
            gold_path(model, sent)

    def test_identifies_sentence(self, tiny_model):
        model, _ = tiny_model
        sent = make_sentence(["a", "b"], ["O", "I-Symptom"], idx=7, doc_id="docZ")
        with pytest.raises(ValidationError, match=r"docZ\[7\]"):
            gold_path(model, sent)
