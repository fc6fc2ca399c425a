"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
measured runtimes next to each criterion.
"""

import functools
import time

import numpy as np
import pytest

from conftest import (
    make_sentence,
    rule_corpus,
    rule_lexicon,
    tiny_config,
    toy_table,
    valid_iob2_sequences,
    write_embeddings,
)
from medner.chunking import Chunk, decode_chunks
from medner.cli import main
from medner.corpus import TSV2, build_vocab, spans_to_iob, write_conll
from medner.deid import DeidPolicy, apply_policy
from medner.evaluation import Counts, entity_match_counts, macro_f1, micro_f1
from medner.nercore import crf
from medner.nercore.model import batch_nll_and_grads, init_model, tag
from medner.nercore.serialize import load_model, save_model
from medner.nercore.training import fit, validation_micro_f1
from oracles import batch_nll, log_partition, marginals, reverse, viterbi
from test_crf import brute_force
from test_evaluation import brute_force_counts, brute_force_micro


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {number}: PASS  {description}  [{elapsed:.1f}s]")

        return run

    return wrap


@criterion(1, "CRF oracle suite: logZ, Viterbi, marginals vs brute force")
def test_criterion_1_crf_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    instances = 0
    while instances < 200:
        n = int(rng.integers(1, 6))
        t = int(rng.integers(2, 5))
        emissions = rng.uniform(-2.0, 2.0, size=(n, t))
        transitions = rng.uniform(-2.0, 2.0, size=(t + 2, t + 2))
        log_z_b, path_b, score_b, marg_b = brute_force(emissions, transitions)

        assert abs(log_partition(emissions, transitions) - log_z_b) <= 1e-9
        path, score = viterbi(emissions, transitions)
        assert path == path_b, "Viterbi path (with lowest-index tie-break) differs"
        assert abs(score - score_b) <= 1e-9
        marg = marginals(emissions, transitions)
        assert np.max(np.abs(marg - marg_b)) <= 1e-9
        assert np.max(np.abs(marg.sum(axis=1) - 1.0)) <= 1e-12
        instances += 1
    assert time.monotonic() - start < 10.0


@criterion(2, "gradient check: analytic vs central differences <= 1e-4")
def test_criterion_2_gradient_check():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    # tiny model: word dim 8, char dim 4, M=3, K=2, S=6; two entity types
    # give four entity tags (B-/I- each) plus O
    corpus = rule_corpus(rng, 3)
    assert max(len(s) for s in corpus.sentences) >= 1
    corpus.sentences = [s if len(s) <= 4 else _truncated(s, 4) for s in corpus.sentences]
    table = toy_table(rule_lexicon(), 8, rng)
    vocab = build_vocab(corpus)
    config = tiny_config(
        word_dim=8, char_dim=4, kernel_width=2, num_filters=3, lstm_size=6,
        use_transition_mask=False, train_word_delta=True,
    )
    model = init_model(config, corpus.schema, vocab, table)
    batch = corpus.sentences
    _, grads = batch_nll_and_grads(model, batch)

    step = 1e-5
    tensors = model.tensors()
    # every tensor group contributes, then a global sample tops up to >= 520
    selected: list[tuple[str, int]] = []
    seen = set()
    for name, arr in tensors.items():
        for i in rng.choice(arr.size, size=min(arr.size, 8), replace=False):
            selected.append((name, int(i)))
            seen.add((name, int(i)))
    pool = [(name, i) for name, arr in tensors.items() for i in range(arr.size)]
    for j in rng.permutation(len(pool)):
        if len(selected) >= 520:
            break
        item = pool[int(j)]
        if item not in seen:
            selected.append(item)
            seen.add(item)

    worst = 0.0
    for name, i in selected:
        flat = tensors[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        original = flat[i]
        flat[i] = original + step
        up = batch_nll(model, batch)
        flat[i] = original - step
        down = batch_nll(model, batch)
        flat[i] = original
        fd = (up - down) / (2.0 * step)
        rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-3)
        worst = max(worst, rel)
    assert len(selected) >= 500, len(selected)
    assert worst <= 1e-4, f"max relative error {worst:.3g}"
    assert time.monotonic() - start < 60.0


def _truncated(sentence, n):
    from medner.corpus import Sentence

    return Sentence(sentence.tokens[:n], sentence.doc_id, sentence.sent_index)


@criterion(3, "overfit: 10 sentences reach exact-match accuracy 1.0 <= 200 epochs")
def test_criterion_3_overfit():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    corpus = rule_corpus(rng, 10)
    table = toy_table(rule_lexicon(), 16, rng)
    vocab = build_vocab(corpus)
    # tuned values scaled down to the toy run: lr 1e-3, batch 10, dropout off,
    # warmup shrunk to one step so the 200-step budget trains at full rate
    config = tiny_config(
        learning_rate=1e-3, batch_size=10, max_epochs=200, dropout=0.0,
        warmup_steps=1, early_stopping_patience=1000, seed=42,
    )
    model = init_model(config, corpus.schema, vocab, table)
    result = fit(model, corpus, corpus)
    assert len(result.history) <= 200
    exact = sum(tag(model, [s], marginals=True)[0][0] == s.tags() for s in corpus.sentences)
    assert exact == len(corpus.sentences), f"{exact}/{len(corpus.sentences)} exact"
    assert time.monotonic() - start < 60.0


@criterion(4, "learnability: rule-defined entities reach micro-F1 >= 0.95 held out")
def test_criterion_4_learnability():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    train = rule_corpus(rng, 500)
    test = rule_corpus(rng, 100)
    table = toy_table(rule_lexicon(), 16, rng)
    vocab = build_vocab(train)
    config = tiny_config(
        word_dim=16, char_dim=8, kernel_width=2, num_filters=8, lstm_size=24,
        learning_rate=3e-3, batch_size=64, max_epochs=25, dropout=0.1,
        warmup_steps=20, early_stopping_patience=25, seed=42,
    )
    model = init_model(config, train.schema, vocab, table)
    fit(model, train, test)
    f1 = validation_micro_f1(model, test)
    assert f1 >= 0.95, f"held-out micro-F1 {f1:.4f}"
    assert time.monotonic() - start < 300.0


@criterion(5, "metric oracle: documented fixture plus brute-force recounts")
def test_criterion_5_metric_oracle():
    counts = {"A": Counts(2, 1, 2), "B": Counts(1, 0, 0)}
    assert micro_f1(counts) == pytest.approx(2 / 3, abs=1e-15)
    assert macro_f1(counts) == pytest.approx(11 / 14, abs=1e-15)

    rng = np.random.default_rng(1005)
    types = ["A", "B", "C"]
    for _ in range(100):
        gold, pred = [], []
        for _ in range(int(rng.integers(1, 6))):
            def spans():
                out = []
                for _ in range(int(rng.integers(0, 4))):
                    s = int(rng.integers(0, 8))
                    out.append((s, s + int(rng.integers(0, 3)),
                                types[int(rng.integers(len(types)))]))
                return out

            gold.append(spans())
            pred.append(spans())
        ours = entity_match_counts(gold, pred)
        brute = brute_force_counts(gold, pred)
        assert {k: (v.tp, v.fp, v.fn) for k, v in ours.items()} == {
            k: tuple(v) for k, v in brute.items()
        }
        assert micro_f1(ours) == pytest.approx(brute_force_micro(gold, pred), abs=1e-12)


@criterion(6, "round-trips: IOB2<->chunks exhaustive, save/load, deid reverse")
def test_criterion_6_round_trips(tmp_path):
    # (a) exhaustive IOB2 <-> chunk identity, length <= 6, <= 3 types
    total = 0
    for seq in valid_iob2_sequences(6, ["A", "B", "C"]):
        sent = make_sentence([f"w{i}" for i in range(len(seq))])
        assert spans_to_iob([c.span for c in decode_chunks(sent, seq)], len(seq)) == seq
        total += 1
    assert total > 10_000

    # (b) save -> load yields bit-identical predictions on 100 random sentences
    rng = np.random.default_rng(1006)
    corpus = rule_corpus(rng, 12)
    table = toy_table(rule_lexicon(), 16, rng)
    model = init_model(tiny_config(), corpus.schema, build_vocab(corpus), table)
    path = tmp_path / "model.medner"
    save_model(model, str(path))
    loaded = load_model(str(path))
    alphabet = "abcdefg0123456789-"
    for _ in range(100):
        words = [
            "".join(alphabet[j] for j in rng.integers(0, len(alphabet),
                                                      size=rng.integers(1, 7)))
            for _ in range(int(rng.integers(1, 9)))
        ]
        tags_a, marg_a = tag(model, [words], marginals=True)[0]
        tags_b, marg_b = tag(loaded, [words], marginals=True)[0]
        assert tags_a == tags_b
        np.testing.assert_array_equal(marg_a, marg_b)

    # (c) reverse(apply_policy(...)) is the identity on 1000 random triples
    types = ["Name", "Date", "Age", "Hospital", "Symptom", "Street"]
    policy = DeidPolicy(
        modes={"name": "substitute", "date": "mask", "age": "mask",
               "hospital": "mask", "street": "mask"},
        dictionaries={"name": ["Pat", "Samantha", "Al"]},
        seed=9,
    )
    text_alphabet = "abcXYZ019 -.,"
    for _ in range(1000):
        n = int(rng.integers(0, 80))
        text = "".join(text_alphabet[i] for i in rng.integers(0, len(text_alphabet), size=n))
        chunks = []
        cursor = 0
        while cursor < len(text) - 2 and rng.random() < 0.7:
            begin = cursor + int(rng.integers(0, min(6, len(text) - cursor - 1)))
            end = begin + int(rng.integers(0, min(7, len(text) - begin - 1)))
            chunks.append(Chunk(types[int(rng.integers(len(types)))], None,
                                begin, end, text[begin : end + 1], 1.0, 0))
            cursor = end + 2
        result = apply_policy(text, chunks, policy)
        assert reverse(result) == text
        # no protected surface survives at its (shifted) span in the output;
        # substitute mode may legitimately draw the original string itself
        delta = 0
        for record in result.replacements:
            shifted = record.begin + delta
            assert result.text[shifted : shifted + len(record.replacement)] == record.replacement
            if policy.mode_for(record.entity_type) == "mask":
                assert result.text[shifted : shifted + len(record.original)] != record.original
            delta += len(record.replacement) - (record.end - record.begin + 1)


FIGURE_TEXT = (
    "Record date : 2021-01-14 , Philips Jo , Name : Joseph , "
    "MR # 234333 Date : 01/16/1989 .\n"
    "PCP : Alicia , 54 years-old , Record date : 2012-11-04 .\n"
    "Scarborough Hospital , 0295 Keats Street , Phone 55-555-5555 .\n"
)
FIGURE_SPANS = [
    (0, "2021-01-14", "Date"),
    (0, "Philips Jo", "Name"),
    (0, "Joseph", "Name"),
    (0, "01/16/1989", "Date"),
    (1, "Alicia", "Name"),
    (1, "54", "Age"),
    (1, "2012-11-04", "Date"),
    (2, "Scarborough Hospital", "Hospital"),
    (2, "0295 Keats Street", "Street"),
]
FIGURE_EXPECTED = (
    "Record date : <DATE> , <NAME> , Name : <NAME> , MR # 234333 Date : <DATE> .\n"
    "PCP : <NAME> , <AGE> years-old , Record date : <DATE> .\n"
    "<HOSPITAL> , <STREET> , Phone 55-555-5555 .\n"
)


@criterion(7, "golden de-identification: masked fields match byte-for-byte")
def test_criterion_7_figure_golden():
    chunks = []
    cursor = 0
    for sent, surface, etype in FIGURE_SPANS:
        begin = FIGURE_TEXT.index(surface, cursor)
        chunks.append(Chunk(etype, None, begin, begin + len(surface) - 1,
                            surface, 1.0, sent))
        cursor = begin + len(surface)
    result = apply_policy(FIGURE_TEXT, chunks, DeidPolicy())
    assert result.text == FIGURE_EXPECTED
    for token in ("<DATE>", "<NAME>", "<AGE>", "<HOSPITAL>", "<STREET>"):
        assert token in result.text
    assert reverse(result) == FIGURE_TEXT


@criterion(8, "determinism: identical cmd_train runs are byte-identical")
def test_criterion_8_cmd_train_determinism(tmp_path):
    rng = np.random.default_rng(1008)
    corpus = rule_corpus(rng, 24)
    table = toy_table(rule_lexicon(), 16, rng)
    train_file = tmp_path / "train.tsv"
    train_file.write_text(write_conll(corpus, TSV2), encoding="utf-8")
    emb_file = tmp_path / "vectors.txt"
    write_embeddings(table, str(emb_file))
    outputs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main([
            "train", "--train", str(train_file), "--embeddings", str(emb_file),
            "--out-dir", str(out),
            "--embed-dim", "16", "--char-dim", "8", "--num-filters", "8",
            "--lstm-size", "16", "--learning-rate", "3e-3", "--batch-size", "8",
            "--max-epochs", "3", "--dropout", "0.5", "--warmup-steps", "5",
            "--seed", "42",
        ])
        assert code == 0
        outputs.append(out)
    a, b = outputs
    assert (a / "metrics.log").read_bytes() == (b / "metrics.log").read_bytes()
    assert (a / "model.medner").read_bytes() == (b / "model.medner").read_bytes()


@criterion(9, "throughput: Viterbi over 10,000 sentences (N=20, 10 tags) < 10 s")
def test_criterion_9_throughput():
    rng = np.random.default_rng(1009)
    emissions = rng.uniform(-2.0, 2.0, size=(10_000, 20, 10))
    transitions = rng.uniform(-2.0, 2.0, size=(12, 12))
    start = time.monotonic()
    paths = crf.viterbi_batch(emissions, transitions)
    elapsed = time.monotonic() - start
    assert paths.shape == (10_000, 20)
    assert elapsed < 10.0, f"decoding took {elapsed:.2f}s"
    for i in (0, 123, 4567, 9999):
        single, _ = viterbi(emissions[i], transitions)
        assert list(paths[i]) == single
