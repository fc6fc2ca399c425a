import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import make_sentence, rule_corpus, rule_lexicon, tiny_config, toy_table
from medner.corpus import LabelSchema, build_vocab, validate_iob
from medner.errors import ValidationError
from medner.nercore import crf, model as model_module
from medner.nercore.model import (
    TrainConfig,
    batch_nll_and_grads,
    gold_path,
    init_model,
    tag,
)
from oracles import batch_nll, marginals, model_forward, nll, viterbi


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
        a = model_forward(model, sent, train_mode=False)
        b = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self, tiny_model):
        model, corpus = tiny_model
        sent = corpus.sentences[1]
        assert model.config.dropout == 0.0
        train = model_forward(model, sent, train_mode=True, step=3, unit=1)
        eval_ = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(train, eval_)

    def test_dropout_changes_train_mode_only(self, tiny_model):
        model, corpus = tiny_model
        import dataclasses

        dropped = dataclasses.replace(model, config=TrainConfig(**{
            **model.config.to_dict(), "dropout": 0.5}))
        sent = corpus.sentences[2]
        eval_ = model_forward(dropped, sent, train_mode=False)
        base = model_forward(model, sent, train_mode=False)
        np.testing.assert_array_equal(eval_, base)
        train_a = model_forward(dropped, sent, train_mode=True, step=0, unit=0)
        train_b = model_forward(dropped, sent, train_mode=True, step=0, unit=0)
        np.testing.assert_array_equal(train_a, train_b)
        assert not np.array_equal(train_a, eval_)

    def test_emission_shape(self, tiny_model):
        model, corpus = tiny_model
        for sent in corpus.sentences[:5]:
            emissions = model_forward(model, sent)
            assert emissions.shape == (len(sent), model.schema.num_tags)

    def test_char_features_can_be_disabled(self, tiny_model):
        _, corpus = tiny_model
        rng = np.random.default_rng(3)
        table = toy_table(rule_lexicon(), 16, rng)
        vocab = build_vocab(corpus)
        cfg = tiny_config(use_char_features=False)
        model = init_model(cfg, corpus.schema, vocab, table)
        assert model.input_dim == 16
        emissions = model_forward(model, corpus.sentences[0])
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
        _, grads = batch_nll_and_grads(model, batch)
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
        _, grads = batch_nll_and_grads(model, batch)
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
        loss, grads = batch_nll_and_grads(model, batch)
        loss2, grads2 = batch_nll_and_grads(model, batch + batch)
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
            total = 0.0
            trans = model.effective_transitions()
            for unit, sent in enumerate(batch):
                em = model_forward(model, sent, train_mode=True, step=step, unit=unit)
                total += nll(em, trans, gold_path(model, sent))
            return total

        _, grads = batch_nll_and_grads(model, batch, step=5)
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


class TestBatchLayout:
    """Training's padded buckets against one-sentence batches."""

    @staticmethod
    def close(a, b):
        # relative to the largest magnitude, so near-zero entries do not
        # make the bound meaningless
        return np.abs(np.asarray(a) - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("budget", [model_module.BATCH_TOKENS, 12])
    def test_batch_layout_does_not_matter(self, monkeypatch, budget):
        rng = np.random.default_rng(34)
        corpus = rule_corpus(rng, 9)
        cfg = tiny_config(word_dim=8, char_dim=4, num_filters=3, lstm_size=5, dropout=0.3,
                          train_word_delta=True)
        model = init_model(cfg, corpus.schema, build_vocab(corpus), toy_table(rule_lexicon(), 8, rng))
        batch = corpus.sentences + corpus.sentences[:2]
        # one bucket per sentence: each sentence runs alone, under its own keys
        monkeypatch.setattr(model_module, "BATCH_TOKENS", 1)
        alone = batch_nll_and_grads(model, batch, step=2)
        monkeypatch.setattr(model_module, "BATCH_TOKENS", budget)
        buckets = len(list(model_module._buckets(np.sort([len(s) for s in batch])[::-1])))
        assert (buckets > 1) == (budget == 12)
        loss, grads = batch_nll_and_grads(model, batch, step=2)
        assert self.close(loss, alone[0]) and self.close(grads.flat, alone[1].flat)
        # ... and sums to the oracle's loss under the same dropout keys
        trans = model.effective_transitions()
        oracle = sum(
            nll(model_forward(model, sent, True, 2, unit), trans, gold_path(model, sent))
            for unit, sent in enumerate(batch)
        )
        assert self.close(loss, oracle)
        # without dropout, the batch is the sum of one-sentence batches
        model = dataclasses.replace(model, config=dataclasses.replace(cfg, dropout=0.0))
        loss, grads = batch_nll_and_grads(model, batch)
        singles = [batch_nll_and_grads(model, [sent]) for sent in batch]
        assert self.close(loss, sum(one[0] for one in singles))
        assert self.close(grads.flat, sum(one[1].flat for one in singles))


class TestPredict:
    def test_empty_input(self, tiny_model):
        model, _ = tiny_model
        tags, marg = tag(model, [[]], marginals=True)[0]
        assert tags == []
        assert marg.shape == (0, model.schema.num_tags)

    def test_output_contract(self, tiny_model):
        model, corpus = tiny_model
        for sent in corpus.sentences[:5]:
            tags, marg = tag(model, [sent], marginals=True)[0]
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
            assert tags == tag(model, [sent], marginals=True)[0][0]
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
            tags, _ = tag(model, [words], marginals=True)[0]
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
            tags, _ = tag(model, [sent], marginals=True)[0]
            assert validate_iob(tags, "IOB2") == []


def oracle_tag(model, sentence):
    """Tags and marginals of one sentence from the per-sentence routines."""
    if len(sentence) == 0:
        return [], np.zeros((0, model.schema.num_tags))
    trans = crf.apply_mask(model.transitions, model.schema.transition_mask())
    emissions = model_forward(model, sentence, train_mode=False)
    path, _ = viterbi(emissions, trans)
    return [model.schema.tags[i] for i in path], marginals(emissions, trans)


def awkward_sentences(corpus, rng):
    """Sentence objects and word lists mixed: empty and one-token sentences,
    words shorter than a kernel, repeated surfaces, characters the vocabulary
    lacks and a 600-token sentence among short ones."""
    long = [corpus.sentences[0].surfaces()[i % len(corpus.sentences[0])] for i in range(599)]
    return [
        [],
        corpus.sentences[0],
        ["fever"],
        ["a", "b", "a", "ab", "a"],
        corpus.sentences[1],
        ["naïve", "€5", "日本", "fever"],
        [],
        long + ["250mg"],
        ["x"],
        *corpus.sentences[2:8],
        [str(w) for w in rng.integers(0, 99, size=9)],
        corpus.sentences[3].surfaces(),
    ]


class TestBatchedTag:
    """`tag` against the per-sentence oracle, sentence by sentence."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"kernel_width": 3},
        {"use_char_features": False, "train_word_delta": True},
    ])
    def test_matches_oracle(self, tiny_model, overrides):
        _, corpus = tiny_model
        rng = np.random.default_rng(41)
        model = init_model(tiny_config(**overrides), corpus.schema, build_vocab(corpus),
                           toy_table(rule_lexicon(), 16, rng))
        if model.word_delta is not None:
            model.word_delta[:] = rng.normal(size=model.word_delta.shape)
        sentences = awkward_sentences(corpus, rng)
        tagged = tag(model, sentences, marginals=True)
        assert len(tagged) == len(sentences)
        for sent, (tags, marg) in zip(sentences, tagged):
            want_tags, want_marg = oracle_tag(model, sent)
            assert tags == want_tags
            assert marg.shape == want_marg.shape
            np.testing.assert_allclose(marg, want_marg, rtol=0, atol=1e-10)

    def test_small_buckets_and_runs(self, tiny_model, monkeypatch):
        # budgets this small put most sentences in buckets of their own and
        # split the call into several runs of distinct surfaces
        model, corpus = tiny_model
        monkeypatch.setattr(model_module, "BATCH_TOKENS", 12)
        monkeypatch.setattr(model_module, "CACHE_SURFACES", 7)
        sentences = awkward_sentences(corpus, np.random.default_rng(42))
        for sent, (tags, marg) in zip(sentences, tag(model, sentences, marginals=True)):
            want_tags, want_marg = oracle_tag(model, sent)
            assert tags == want_tags
            np.testing.assert_allclose(marg, want_marg, rtol=0, atol=1e-10)

    def test_batch_invariance(self, tiny_model):
        model, _ = tiny_model
        corpus = rule_corpus(np.random.default_rng(43), 200)
        sentences = corpus.sentences + [["déjà", "vu"], []]
        together = tag(model, sentences, marginals=False)
        for sent, (tags, marg) in zip(sentences, together):
            assert marg is None
            assert tag(model, [sent], marginals=False)[0][0] == tags

    def test_memory_does_not_grow_with_sentences(self, tiny_model):
        # tracemalloc's peak less what the result still holds after the call:
        # the result grows with the document, the working buffers must not.
        # The paper's LSTM size makes the buffers a pass over the whole
        # document at once would need about ten times larger here.
        _, corpus = tiny_model
        rng = np.random.default_rng(44)
        model = init_model(tiny_config(lstm_size=200), corpus.schema, build_vocab(corpus),
                           toy_table(rule_lexicon(), 16, rng))
        document = rule_corpus(rng, 2000).sentences

        def working_peak(sentences):
            tracemalloc.start()
            try:
                result = tag(model, sentences, marginals=True)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result) == len(sentences)
            return peak - held

        small, large = working_peak(document[:200]), working_peak(document)
        assert large <= 1.5 * small, (small, large)


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
