import numpy as np
import pytest

from conftest import make_sentence, valid_iob2_sequences
from medner.chunking import (
    Chunk,
    decode_chunks,
    parse_chunk_records,
    write_chunk_records,
)
from medner.corpus import LabelSchema, spans_to_iob
from medner.errors import ParseError, ValidationError

SYMPTOM = LabelSchema(["Symptom"])


def tag_marginals(probs, tags, schema):
    """A marginal matrix, as `tag` returns it, whose column of each token's
    tag holds that token's entry of probs."""
    marg = np.zeros((len(tags), schema.num_tags))
    marg[np.arange(len(tags)), [schema.tag_to_index[t] for t in tags]] = probs
    return marg


class TestDecode:
    def test_all_outside(self):
        sent = make_sentence(["a", "b"])
        assert decode_chunks(sent, ["O", "O"]) == []

    def test_basic_chunk(self):
        sent = make_sentence(["severe", "cough", "."])
        (chunk,) = decode_chunks(sent, ["B-Symptom", "I-Symptom", "O"])
        assert chunk.entity_type == "Symptom"
        assert chunk.surface == "severe cough"
        assert chunk.token_span == (0, 1)
        assert (chunk.begin, chunk.end) == (0, 11)
        assert chunk.confidence == 1.0

    def test_min_confidence_rule(self):
        sent = make_sentence(["severe", "cough"])
        tags = ["B-Symptom", "I-Symptom"]
        (chunk,) = decode_chunks(sent, tags, tag_marginals([0.9, 0.8], tags, SYMPTOM), SYMPTOM)
        assert chunk.confidence == pytest.approx(0.8)

    def test_geometric_mean_mode(self):
        sent = make_sentence(["severe", "cough"])
        tags = ["B-Symptom", "I-Symptom"]
        (chunk,) = decode_chunks(
            sent, tags, tag_marginals([0.9, 0.4], tags, SYMPTOM), SYMPTOM,
            confidence_mode="geomean",
        )
        assert chunk.confidence == pytest.approx(np.sqrt(0.36))

    def test_matrix_marginals_with_schema(self):
        schema = LabelSchema(["X"])
        sent = make_sentence(["a", "b"])
        marg = np.array([[0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
        (chunk,) = decode_chunks(sent, ["B-X", "I-X"], marg, schema)
        assert chunk.confidence == pytest.approx(0.7)

    def test_invalid_iob_rejected(self):
        sent = make_sentence(["a", "b"])
        with pytest.raises(ValidationError):
            decode_chunks(sent, ["O", "I-X"])

    def test_confidence_monotone_in_marginals(self):
        sent = make_sentence(["a", "b", "c"])
        tags = ["B-X", "I-X", "O"]
        schema = LabelSchema(["X"])
        rng = np.random.default_rng(0)
        for _ in range(100):
            probs = rng.uniform(0.1, 0.9, size=3)
            (before,) = decode_chunks(sent, tags, tag_marginals(probs, tags, schema), schema)
            bumped = probs.copy()
            j = int(rng.integers(0, 2))
            bumped[j] = min(1.0, bumped[j] + rng.uniform(0, 0.1))
            (after,) = decode_chunks(sent, tags, tag_marginals(bumped, tags, schema), schema)
            assert after.confidence >= before.confidence - 1e-12


class TestChunksToTags:
    """Chunks back to tags is corpus.spans_to_iob over the chunks' spans."""

    def test_empty(self):
        assert spans_to_iob([], 3) == ["O", "O", "O"]

    def test_overlap_rejected(self):
        a = Chunk("X", (0, 1), 0, 2, "a b", 1.0)
        b = Chunk("Y", (1, 2), 2, 4, "b c", 1.0)
        with pytest.raises(ValidationError, match="overlap"):
            spans_to_iob([a.span, b.span], 3)

    def test_out_of_bounds_rejected(self):
        c = Chunk("X", (2, 4), 0, 1, "a", 1.0)
        with pytest.raises(ValidationError, match="out of bounds"):
            spans_to_iob([c.span], 3)
        with pytest.raises(ValidationError, match="out of bounds"):
            spans_to_iob([(-1, 0, "X")], 3)

    def test_exhaustive_roundtrip(self):
        # decode -> encode is the identity on every valid IOB2 sequence of
        # length <= 6 over <= 3 types
        lengths = set()
        for seq in valid_iob2_sequences(6, ["A", "B", "C"]):
            sent = make_sentence([f"w{i}" for i in range(len(seq))])
            chunks = decode_chunks(sent, seq)
            assert spans_to_iob([c.span for c in chunks], len(seq)) == seq
            lengths.add(len(seq))
        assert lengths == {1, 2, 3, 4, 5, 6}


class TestRecords:
    def test_write_format(self):
        chunk = Chunk("Relative Date", (0, 1), 2, 12, "36 years old", 0.996, sent_index=0)
        text = write_chunk_records([chunk])
        line = text.splitlines()[1]
        assert line == "0\t2\t12\t36 years old\tRelative Date\t1.00"

    def test_roundtrip(self):
        chunks = [
            Chunk("Symptom", (0, 0), 0, 4, "fever", 0.98, 0),
            Chunk("Age", (2, 4), 10, 21, "36 years old", 1.0, 1),
        ]
        parsed = parse_chunk_records(write_chunk_records(chunks))
        assert len(parsed) == 2
        for orig, back in zip(chunks, parsed):
            assert back.entity_type == orig.entity_type
            assert (back.begin, back.end) == (orig.begin, orig.end)
            assert back.surface == orig.surface
            assert back.sent_index == orig.sent_index
            assert back.token_span is None

    def test_bad_record(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_chunk_records("not\tenough\tfields\n")
