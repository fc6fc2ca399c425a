"""Shared builders for synthetic sentences, corpora, and toy models."""

from __future__ import annotations

import itertools
from concurrent.futures import Future

import numpy as np
import pytest

from medner.corpus import (
    Corpus,
    LabelSchema,
    Sentence,
    Token,
    build_vocab,
    synthesize_offsets,
    validate_iob,
)
from medner.embeddings import EmbeddingTable
from medner.nercore import lane
from medner.nercore.model import TrainConfig, init_model
from medner.nercore.training import fit

FILLERS = [
    "patient", "reports", "mild", "took", "daily", "with", "water", "the",
    "history", "of", "and", "was", "admitted", "after", "onset", "severe",
    "no", "known", "allergies", "denies", "improved", "stable", "on", "exam",
    "noted", "since", "yesterday", "morning", "without", "further",
]
SYMPTOM_WORDS = [
    "fever", "cough", "nausea", "fatigue", "headache", "dizziness", "vomiting", "rash",
]
SYMPTOM_PAIRS = [("chest", "pain"), ("sore", "throat"), ("short", "breath"), ("joint", "ache")]
UNITS = ["mg", "ml", "mcg"]
# the characters besides '\n' and '\r' at which str.splitlines() ends a
# line; no reader ends one there, so each reads as part of its line
SPLITLINES_ONLY = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


class InlineLane:
    """Stands in for the lane's worker once installed over lane.Lane.submit:
    runs each submitted call at once, on the caller's thread, and counts
    the submissions."""

    submitted = 0

    @staticmethod
    def install(monkeypatch) -> None:
        monkeypatch.setattr(InlineLane, "submitted", 0)
        monkeypatch.setattr(lane.Lane, "submit", InlineLane.submit)

    @staticmethod
    def submit(_lane, fn, *args) -> Future:
        InlineLane.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


def make_sentence(words: list[str], tags: list[str] | None = None,
                  idx: int = 0, doc_id: str = "doc0") -> Sentence:
    tokens = [Token(w, b, e) for w, (b, e) in zip(words, synthesize_offsets(words))]
    return Sentence(tokens, doc_id, idx, tags)


def toy_table(words: list[str], dim: int, rng: np.random.Generator,
              oov_policy: str = "unk_row") -> EmbeddingTable:
    matrix = rng.normal(size=(len(words), dim))
    return EmbeddingTable(dim, list(words), matrix, matrix.mean(axis=0), oov_policy)


def write_embeddings(table: EmbeddingTable, path: str) -> None:
    """Emit the text format read by load_embeddings, round-trip exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.words)} {table.dimension}\n")
        for word, row in zip(table.words, table.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def rule_corpus(rng: np.random.Generator, size: int, doc_id: str = "doc0") -> Corpus:
    """Sentences where a deterministic lexical rule defines two entity types:
    digit-bearing tokens are single-token Dosage chunks and lexicon words are
    Symptom chunks (some two tokens long)."""
    schema = LabelSchema(["Dosage", "Symptom"])
    sentences = []
    for idx in range(size):
        n = int(rng.integers(5, 12))
        words: list[str] = []
        tags: list[str] = []
        while len(words) < n:
            r = rng.random()
            if r < 0.15:
                num = str(int(rng.integers(1, 9999)))
                words.append(num + UNITS[int(rng.integers(len(UNITS)))])
                tags.append("B-Dosage")
            elif r < 0.28:
                words.append(SYMPTOM_WORDS[int(rng.integers(len(SYMPTOM_WORDS)))])
                tags.append("B-Symptom")
            elif r < 0.36 and len(words) + 2 <= n:
                a, b = SYMPTOM_PAIRS[int(rng.integers(len(SYMPTOM_PAIRS)))]
                words.extend([a, b])
                tags.extend(["B-Symptom", "I-Symptom"])
            else:
                words.append(FILLERS[int(rng.integers(len(FILLERS)))])
                tags.append("O")
        sentences.append(make_sentence(words, tags, idx, doc_id))
    return Corpus(sentences, schema)


def rule_lexicon() -> list[str]:
    return FILLERS + SYMPTOM_WORDS + [w for pair in SYMPTOM_PAIRS for w in pair] + UNITS


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        word_dim=16, char_dim=8, kernel_width=2, num_filters=8, lstm_size=16,
        learning_rate=3e-3, batch_size=10, max_epochs=30, dropout=0.0,
        warmup_steps=5, early_stopping_patience=30, seed=42,
    )
    base.update(overrides)
    return TrainConfig(**base)


def valid_iob2_sequences(max_len: int, types: list[str]):
    """All valid IOB2 sequences up to max_len over the given entity types."""
    tags = ["O"]
    for t in types:
        tags.extend([f"B-{t}", f"I-{t}"])
    for length in range(1, max_len + 1):
        for combo in itertools.product(tags, repeat=length):
            seq = list(combo)
            if not validate_iob(seq, "IOB2"):
                yield seq


@pytest.fixture(scope="session")
def trained_tiny_model():
    """A small model overfit on 30 rule-based sentences; reused by
    serialization and CLI tests to keep the suite fast."""
    rng = np.random.default_rng(11)
    corpus = rule_corpus(rng, 30)
    table = toy_table(rule_lexicon(), 16, rng)
    vocab = build_vocab(corpus)
    config = tiny_config(max_epochs=60, batch_size=10, learning_rate=5e-3,
                         early_stopping_patience=60)
    model = init_model(config, corpus.schema, vocab, table)
    result = fit(model, corpus, corpus)
    assert result.history[-1].val_micro_f1 > 0.9, "fixture model failed to overfit"
    return model, corpus, table
