import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medner.corpus import (
    CONLL4,
    FORMATS,
    SCHEMES,
    TSV2,
    Corpus,
    LabelSchema,
    Token,
    build_vocab,
    convert_scheme,
    iob_spans,
    parse_conll,
    sentence_split,
    split_corpus,
    tokenize,
    validate_iob,
    write_conll,
)
from medner.errors import MednerError, ParseError, SchemaError, ValidationError

import oracles
from conftest import make_sentence, rule_corpus, valid_iob2_sequences
from test_fuzz import CONLL, ROWS, render

# Raw text from the edges of the sentence and token rules: words that end
# in a mark, abbreviations with and without an opening bracket, punctuation
# runs, and first characters that are upper-case or digits to one predicate
# but not another (É, ², titlecase ǅ, Ⅻ); between them nothing, spaces and
# tabs, or any of the characters str.isspace() accepts.
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
WORDS = st.sampled_from([".", "!", "?", "..", "a.", "a!", "Mr.", "No.", "(e.g.", '"No.', "x,",
                         "(b)", "--", "'", '"', "É", "²", "ǅ", "Ⅻ", "B", "7", "a"])
GAPS = st.one_of(st.sampled_from(["", " ", "\t", " \t "]), st.sampled_from(SPACES))
RAW_TEXT = st.builds(lambda pairs, tail: "".join(g + w for g, w in pairs) + tail,
                     st.lists(st.tuples(GAPS, WORDS), max_size=15), GAPS)


class TestSentenceSplit:
    def test_two_sentences(self):
        parts = sentence_split("He coughed. She left.")
        assert [p[0] for p in parts] == ["He coughed.", "She left."]

    def test_empty(self):
        assert sentence_split("") == []

    def test_abbreviation_guard(self):
        parts = sentence_split("Dr. Smith arrived. He coughed.")
        assert [p[0] for p in parts] == ["Dr. Smith arrived.", "He coughed."]

    def test_newline_boundary(self):
        parts = sentence_split("fever noted\nno cough")
        assert [p[0] for p in parts] == ["fever noted", "no cough"]

    def test_digit_continuation(self):
        # "3.5 mg" must not split inside the number
        parts = sentence_split("Gave 3.5 mg daily. Tolerated well.")
        assert [p[0] for p in parts] == ["Gave 3.5 mg daily.", "Tolerated well."]

    def test_offsets_and_reconstruction(self):
        text = "  He coughed.  She left!? 2 days later.  "
        parts = sentence_split(text)
        for sent, begin, end in parts:
            assert text[begin : end + 1] == sent
        joined = "".join(p[0] for p in parts)
        assert [c for c in joined if not c.isspace()] == [c for c in text if not c.isspace()]


class TestTokenize:
    def test_punctuation_detach(self):
        assert [t.surface for t in tokenize("fever, cough")] == ["fever", ",", "cough"]

    def test_internal_hyphen_kept(self):
        assert [t.surface for t in tokenize("COVID-19")] == ["COVID-19"]

    def test_base_offset(self):
        (token,) = tokenize("ab", base_offset=10)
        assert (token.begin, token.end) == (10, 11)

    def test_bracketed(self):
        assert [t.surface for t in tokenize("(fever).")] == ["(", "fever", ")", "."]

    def test_all_punctuation_chunk(self):
        assert [t.surface for t in tokenize("--")] == ["-", "-"]

    @given(st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                   min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_offsets_reconstruct_text(self, text):
        tokens = tokenize(text)
        assert all(t.surface for t in tokens)
        for t in tokens:
            assert text[t.begin : t.end + 1] == t.surface
        covered = set()
        for t in tokens:
            covered.update(range(t.begin, t.end + 1))
        for i, ch in enumerate(text):
            assert (i in covered) == (not ch.isspace())


class TestIngestOracles:
    """The pattern-based splitter and tokenizer against the character
    scanners in oracles.py, and the straight-pass CoNLL reader against the
    one with closures there."""

    @given(RAW_TEXT, st.booleans())
    @example("Gave 2. ² more", False)  # '²' is a digit, though not a decimal
    @example("a! B", True)  # only a '.' can end an abbreviation
    @example("seen (e.g. Smith) today", False)  # an opening bracket is not part of it
    @settings(max_examples=300)
    def test_same_sentences_and_tokens(self, text, own_abbreviations):
        own = frozenset({"a.", "a!", "..", "É.", "e.g.", "No."})
        args = (text, own) if own_abbreviations else (text,)
        sentences = sentence_split(*args)
        assert sentences == oracles.sentence_split(*args)
        for sent, begin, _end in sentences:
            assert tokenize(sent, begin) == oracles.tokenize(sent, begin)
        if text:
            assert tokenize(text, 3) == oracles.tokenize(text, 3)

    @given(st.one_of(CONLL, st.builds(render, ROWS, st.sampled_from(sorted(FORMATS)))),
           st.sampled_from(sorted(FORMATS)), st.sampled_from(SCHEMES), st.booleans(),
           st.sampled_from([None, 1, 3]))
    # a tag missing from the schema outranks an earlier scheme violation
    @example("a\tI-Symptom\nb\tB-Name", "tsv2", "IOB2", True, None)
    @settings(max_examples=200)
    def test_same_corpus_or_error_as_parse_conll(self, text, fmt, scheme, with_schema, max_len):
        schema = LabelSchema(["Dosage", "Symptom"]) if with_schema else None

        def outcome(parse):
            try:
                return parse(text, FORMATS[fmt], schema=schema, input_scheme=scheme,
                             max_seq_length=max_len)
            except MednerError as exc:
                return type(exc), str(exc)

        assert outcome(parse_conll) == outcome(oracles.parse_conll)

    def test_same_spans_as_iob_spans_exhaustive(self):
        # every sequence of length <= 6, valid under a scheme or not
        tags = ["O", "B-X", "I-X", "B-Y", "I-Y"]
        for n in range(7):
            for seq in map(list, itertools.product(tags, repeat=n)):
                assert iob_spans(seq) == oracles.iob_spans(seq), seq

    def test_regex_whitespace_is_str_isspace(self):
        text = "".join(chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF)
        assert [m.group() for m in re.finditer(r"\s", text)] == SPACES


class TestIobValidation:
    def test_orphan_inside(self):
        assert validate_iob(["O", "I-Disease"], "IOB2") == [
            (1, "I-Disease must follow B-Disease or I-Disease")
        ]

    def test_valid_sequence(self):
        assert validate_iob(["B-X", "I-X", "O"], "IOB2") == []

    def test_type_switch(self):
        violations = validate_iob(["B-X", "I-Y"], "IOB2")
        assert [v[0] for v in violations] == [1]

    def test_iob1_inside_start_legal(self):
        assert validate_iob(["I-X", "I-X"], "IOB1") == []

    def test_iob1_orphan_begin(self):
        assert [v[0] for v in validate_iob(["O", "B-X"], "IOB1")] == [1]

    def test_malformed_tag(self):
        assert [v[0] for v in validate_iob(["B-X", "XYZ"], "IOB2")] == [1]

    def test_agrees_with_transition_mask(self):
        # validate_iob accepts exactly the sequences the schema mask accepts
        schema = LabelSchema(["A", "B"])
        mask = schema.transition_mask()
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 6))
            seq = [schema.tags[i] for i in rng.integers(0, schema.num_tags, size=n)]
            path = [schema.tag_to_index[t] for t in seq]
            pairs = [(schema.num_tags, path[0])]
            pairs += list(zip(path, path[1:]))
            pairs.append((path[-1], schema.stop_index))
            accepted = all(mask[a, b] for a, b in pairs)
            assert (validate_iob(seq, "IOB2") == []) == accepted


class TestConvertScheme:
    def test_iob1_to_iob2(self):
        assert convert_scheme(["I-X", "I-X"], "IOB1", "IOB2") == ["B-X", "I-X"]

    def test_identity(self):
        seq = ["B-X", "I-X", "O", "B-Y"]
        assert convert_scheme(seq, "IOB2", "IOB2") == seq

    def test_adjacent_chunks(self):
        assert convert_scheme(["I-X", "B-X"], "IOB1", "IOB2") == ["B-X", "B-X"]
        assert convert_scheme(["B-X", "B-X"], "IOB2", "IOB1") == ["I-X", "B-X"]

    def test_invalid_input_rejected(self):
        with pytest.raises(ValidationError):
            convert_scheme(["O", "I-X"], "IOB2", "IOB1")

    def test_exhaustive_chunk_preservation(self):
        # all valid IOB2 sequences of length <= 6 over <= 3 types
        count = 0
        for seq in valid_iob2_sequences(6, ["A", "B", "C"]):
            spans = iob_spans(seq)
            as_iob1 = convert_scheme(seq, "IOB2", "IOB1")
            assert validate_iob(as_iob1, "IOB1") == []
            assert iob_spans(as_iob1) == spans
            assert convert_scheme(as_iob1, "IOB1", "IOB2") == seq
            count += 1
        assert count > 10_000


class TestParseConll:
    def test_two_sentences(self):
        corpus = parse_conll("fever\tB-Symptom\n\ncough\tB-Symptom\n", TSV2)
        assert len(corpus) == 2
        assert [len(s) for s in corpus.sentences] == [1, 1]
        assert corpus.sentences[0].tokens[0].tag == "B-Symptom"

    def test_empty(self):
        corpus = parse_conll("", TSV2)
        assert len(corpus) == 0

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_conll("a b\n", CONLL4)

    def test_unknown_tag_strict(self):
        schema = LabelSchema(["Symptom"])
        with pytest.raises(SchemaError):
            parse_conll("fever\tB-Disease\n", TSV2, schema=schema)

    def test_docstart_and_offsets(self):
        text = (
            "-DOCSTART- -X- -X- O\n\n"
            "fever -X- -X- B-Symptom\ncough -X- -X- O\n\n"
            "-DOCSTART- -X- -X- O\n\n"
            "chills -X- -X- B-Symptom\n"
        )
        corpus = parse_conll(text, CONLL4)
        assert [s.doc_id for s in corpus.sentences] == ["doc0", "doc1"]
        first = corpus.sentences[0]
        assert [(t.begin, t.end) for t in first.tokens] == [(0, 4), (6, 10)]

    def test_iob1_input_converted(self):
        corpus = parse_conll("a\tI-X\nb\tI-X\n", TSV2, input_scheme="IOB1")
        assert corpus.sentences[0].tags() == ["B-X", "I-X"]

    # I-X opens no chunk in IOB2, and B-X splits no two chunks in IOB1
    @pytest.mark.parametrize("scheme,tag", [("IOB2", "I-X"), ("IOB1", "B-X")])
    def test_scheme_violation_names_its_line(self, scheme, tag):
        with pytest.raises(ValidationError, match=f"^line 2: invalid {scheme}: ") as err:
            parse_conll(f"a\tO\nb\t{tag}\n", TSV2, input_scheme=scheme)
        assert not isinstance(err.value, (ParseError, SchemaError))  # the CLI's exit 4

    def test_indented_docstart_is_a_marker(self):
        corpus = parse_conll("a\tO\n -DOCSTART-\tO\nb\tO\n", TSV2)
        assert [s.surfaces() for s in corpus.sentences] == [["a"], ["b"]]
        assert [s.doc_id for s in corpus.sentences] == ["doc0", "doc1"]

    def test_truncation(self, caplog):
        lines = "\n".join(f"w{i}\tO" for i in range(8)) + "\n"
        with caplog.at_level("WARNING"):
            corpus = parse_conll(lines, TSV2, max_seq_length=5)
        assert len(corpus.sentences[0]) == 5
        assert "truncating" in caplog.text

    def test_roundtrip_through_write(self):
        corpus = rule_corpus(np.random.default_rng(0), 20)
        for spec in (TSV2, CONLL4):
            back = parse_conll(write_conll(corpus, spec), spec, schema=corpus.schema)
            assert len(back) == len(corpus)
            for a, b in zip(corpus.sentences, back.sentences):
                assert a.surfaces() == b.surfaces()
                assert a.tags() == b.tags()

    def test_multi_doc_roundtrip(self):
        c1 = rule_corpus(np.random.default_rng(1), 3, doc_id="doc0")
        c2 = rule_corpus(np.random.default_rng(2), 2, doc_id="doc1")
        corpus = Corpus(c1.sentences + c2.sentences, c1.schema)
        back = parse_conll(write_conll(corpus, TSV2), TSV2, schema=corpus.schema)
        assert [s.doc_id for s in back.sentences] == [s.doc_id for s in corpus.sentences]


class TestSchema:
    def test_tag_inventory_size(self):
        schema = LabelSchema(["A", "B", "C"])
        assert schema.num_tags == 2 * 3 + 1
        assert schema.tags[0] == "O"

    def test_mask_forbids_orphans(self):
        schema = LabelSchema(["X", "Y"])
        mask = schema.transition_mask()
        idx = schema.tag_to_index
        assert not mask[idx["O"], idx["I-X"]]
        assert not mask[idx["B-X"], idx["I-Y"]]
        assert mask[idx["B-X"], idx["I-X"]]
        assert not mask[:, schema.num_tags].any()
        assert not mask[schema.stop_index, :].any()

    def test_text_roundtrip(self):
        # a --schema file: one entity type per line, an optional scheme line
        text = "# types\nscheme: IOB2\nHeart Disease\n\n  Age  \n"
        schema = LabelSchema.from_text(text)
        assert schema.entity_types == ["Heart Disease", "Age"]

    @pytest.mark.parametrize("scheme", ["IOB1", "BIOES"])
    def test_non_iob2_scheme_line_rejected(self, scheme):
        with pytest.raises(ParseError, match="line 2.*--scheme IOB1"):
            LabelSchema.from_text(f"Age\nscheme: {scheme}\nName\n")

    def test_duplicate_types_rejected(self):
        with pytest.raises(ValidationError):
            LabelSchema(["A", "A"])

    def test_corpus_rejects_unknown_tags(self):
        schema = LabelSchema(["X"])
        sent = make_sentence(["a"], ["B-Y"])
        with pytest.raises(SchemaError):
            Corpus([sent], schema)

    def test_corpus_rejects_invalid_iob(self):
        schema = LabelSchema(["X"])
        sent = make_sentence(["a", "b"], ["O", "I-X"])
        with pytest.raises(ValidationError):
            Corpus([sent], schema)


class TestSplits:
    def test_70_15_15(self):
        corpus = rule_corpus(np.random.default_rng(3), 100)
        train, val, test = split_corpus(corpus, (0.70, 0.15, 0.15), seed=1)
        assert (len(train), len(val), len(test)) == (70, 15, 15)

    def test_deterministic(self):
        corpus = rule_corpus(np.random.default_rng(3), 37)
        a = split_corpus(corpus, (0.5, 0.25, 0.25), seed=9)
        b = split_corpus(corpus, (0.5, 0.25, 0.25), seed=9)
        for x, y in zip(a, b):
            assert [s.sent_index for s in x.sentences] == [s.sent_index for s in y.sentences]

    def test_bad_ratios(self):
        corpus = rule_corpus(np.random.default_rng(3), 10)
        with pytest.raises(ValidationError):
            split_corpus(corpus, (0.5, 0.5, 0.5), seed=1)

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        big = rule_corpus(rng, 200)
        for size in range(1, 201):
            corpus = big.subset(list(range(size)))
            parts = split_corpus(corpus, (0.6, 0.2, 0.2), seed=int(rng.integers(1000)))
            ids = [id(s) for part in parts for s in part.sentences]
            assert len(ids) == size
            assert len(set(ids)) == size


class TestVocabulary:
    def _corpus(self, *sent_words):
        schema = LabelSchema(["X"])
        sents = [make_sentence(list(ws), ["O"] * len(ws), i) for i, ws in enumerate(sent_words)]
        return Corpus(sents, schema)

    def test_basic(self):
        vocab = build_vocab(self._corpus(["a", "a", "b"]))
        assert vocab.num_words == 4  # PAD, UNK, a, b
        assert vocab.word_index("a") == 2
        assert vocab.word_index("b") == 3

    def test_min_count(self):
        vocab = build_vocab(self._corpus(["a", "a", "b"]), min_count=2)
        assert vocab.word_index("b") == 1  # UNK
        assert vocab.word_index("a") == 2

    def test_unseen_maps_to_unk(self):
        vocab = build_vocab(self._corpus(["a"]))
        assert vocab.word_index("zzz") == 1

    def test_char_cover_and_order(self):
        vocab = build_vocab(self._corpus(["ba", "c9"]))
        assert [vocab.char_indices(c)[0] for c in "9abc"] == [2, 3, 4, 5]

    def test_roundtrip_lists(self):
        vocab = build_vocab(self._corpus(["fever", "cough", "fever"]))
        from medner.corpus import Vocabulary

        again = Vocabulary.from_lists(vocab.word_list(), vocab.char_list(), vocab.min_count)
        assert again.word_to_index == vocab.word_to_index
        assert again.char_to_index == vocab.char_to_index


class TestTokenInvariants:
    def test_surface_span_agreement(self):
        with pytest.raises(ValidationError):
            Token("ab", 0, 5)

    def test_no_newline(self):
        with pytest.raises(ValidationError):
            Token("a\nb", 0, 2)

    def test_partial_tags_rejected(self):
        from medner.corpus import Sentence

        with pytest.raises(ValidationError):
            Sentence([Token("a", 0, 0, "O"), Token("b", 2, 3, None)])

    def test_offsets_strictly_increasing(self):
        from medner.corpus import Sentence

        with pytest.raises(ValidationError):
            Sentence([Token("ab", 0, 1), Token("cd", 1, 2)])
