import numpy as np
import pytest

import oracles
from conftest import SPLITLINES_ONLY, make_sentence, valid_iob2_sequences
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
        assert decode_chunks([sent], [["O", "O"]]) == []

    def test_basic_chunk(self):
        sent = make_sentence(["severe", "cough", "."])
        (chunk,) = decode_chunks([sent], [["B-Symptom", "I-Symptom", "O"]])
        assert chunk.entity_type == "Symptom"
        assert chunk.surface == "severe cough"
        assert chunk.token_span == (0, 1)
        assert (chunk.begin, chunk.end) == (0, 11)
        assert chunk.confidence == 1.0

    def test_min_confidence_rule(self):
        sent = make_sentence(["severe", "cough"])
        tags = ["B-Symptom", "I-Symptom"]
        marg = tag_marginals([0.9, 0.8], tags, SYMPTOM)
        (chunk,) = decode_chunks([sent], [tags], [marg], SYMPTOM)
        assert chunk.confidence == pytest.approx(0.8)

    def test_geometric_mean_mode(self):
        sent = make_sentence(["severe", "cough"])
        tags = ["B-Symptom", "I-Symptom"]
        (chunk,) = decode_chunks(
            [sent], [tags], [tag_marginals([0.9, 0.4], tags, SYMPTOM)], SYMPTOM,
            confidence_mode="geomean",
        )
        assert chunk.confidence == pytest.approx(np.sqrt(0.36))

    def test_matrix_marginals_with_schema(self):
        schema = LabelSchema(["X"])
        sent = make_sentence(["a", "b"])
        marg = np.array([[0.1, 0.7, 0.2], [0.2, 0.1, 0.7]])
        (chunk,) = decode_chunks([sent], [["B-X", "I-X"]], [marg], schema)
        assert chunk.confidence == pytest.approx(0.7)

    def test_invalid_iob_rejected(self):
        sent = make_sentence(["a", "b"])
        with pytest.raises(ValidationError):
            decode_chunks([sent], [["O", "I-X"]])

    def test_confidence_monotone_in_marginals(self):
        sent = make_sentence(["a", "b", "c"])
        tags = ["B-X", "I-X", "O"]
        schema = LabelSchema(["X"])
        rng = np.random.default_rng(0)
        for _ in range(100):
            probs = rng.uniform(0.1, 0.9, size=3)
            (before,) = decode_chunks([sent], [tags], [tag_marginals(probs, tags, schema)], schema)
            bumped = probs.copy()
            j = int(rng.integers(0, 2))
            bumped[j] = min(1.0, bumped[j] + rng.uniform(0, 0.1))
            (after,) = decode_chunks([sent], [tags], [tag_marginals(bumped, tags, schema)], schema)
            assert after.confidence >= before.confidence - 1e-12


class TestDecodeOracle:
    """One decode_chunks call over many sentences against the per-sentence
    decoder in oracles.py."""

    SCHEMA = LabelSchema(["A", "B", "C"])

    @pytest.mark.parametrize("mode", [None, "min", "geomean"])
    def test_same_chunks_exhaustive(self, mode):
        # every valid IOB2 sequence of length <= 5 over 3 types, one sentence
        # each; mode None decodes without marginals
        seqs = list(valid_iob2_sequences(5, ["A", "B", "C"]))
        sents = [make_sentence([f"w{i}" for i in range(len(seq))], idx=k % 3)
                 for k, seq in enumerate(seqs)]
        rng = np.random.default_rng(26)
        margs = [rng.uniform(size=(len(seq), self.SCHEMA.num_tags)) for seq in seqs]
        if mode is None:
            ours = decode_chunks(sents, seqs)
            theirs = [c for s, seq in zip(sents, seqs) for c in oracles.decode_chunks(s, seq)]
        else:
            ours = decode_chunks(sents, seqs, margs, self.SCHEMA, confidence_mode=mode)
            theirs = [c for s, seq, m in zip(sents, seqs, margs)
                      for c in oracles.decode_chunks(s, seq, m, self.SCHEMA, mode)]
        assert len(ours) > 5_000
        assert ours == theirs

    def test_inside_tag_opening_a_sentence_is_rejected(self):
        # an I-X that opens sentence k+1 right after an X chunk ends sentence
        # k starts no chunk of its own and never extends that one
        sents = [make_sentence(["a", "b"], idx=0), make_sentence(["c", "d"], idx=1)]
        seqs = [["O", "B-A"], ["I-A", "O"]]
        with pytest.raises(ValidationError) as ours:
            decode_chunks(sents, seqs)
        with pytest.raises(ValidationError) as theirs:
            oracles.decode_chunks(sents[1], seqs[1])
        assert str(ours.value) == str(theirs.value)


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
            chunks = decode_chunks([sent], [seq])
            assert spans_to_iob([c.span for c in chunks], len(seq)) == seq
            lengths.add(len(seq))
        assert lengths == {1, 2, 3, 4, 5, 6}


class TestRecords:
    def test_write_format(self):
        chunk = Chunk("Relative Date", (0, 1), 2, 12, "36 years old", 0.996, sent_index=0)
        text = write_chunk_records([chunk])
        line = text.splitlines()[1]
        assert line == "0\t2\t12\t36 years old\tRelative Date\t1.00"

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_surface_holds_a_splitlines_break(self, char):
        (back,) = parse_chunk_records(f"# header\n0\t4\t6\ta{char}b\tName\t0.50\n")
        assert (back.surface, back.begin, back.end, back.confidence) == (f"a{char}b", 4, 6, 0.5)

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

    def test_zero_confidence(self):
        # confidence 0 is in range, and so is 0.001, which is written as 0.00
        assert Chunk("X", (0, 0), 0, 0, "a", 0.0).confidence == 0.0
        (back,) = parse_chunk_records(write_chunk_records([Chunk("X", (0, 0), 0, 0, "a", 0.001)]))
        assert back.confidence == 0.0

    def test_bad_record(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_chunk_records("not\tenough\tfields\n")
