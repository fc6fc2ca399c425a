import numpy as np
import pytest

from medner.chunking import Chunk
from medner.deid import (
    DeidPolicy,
    DeidResult,
    Replacement,
    apply_policy,
    parse_policy_file,
    placeholder,
)
from conftest import SPLITLINES_ONLY
from medner.errors import ParseError, ValidationError
from oracles import reverse


def chunk(etype, begin, end, sent=0):
    return Chunk(etype, None, begin, end, "", 1.0, sent)


def span_chunks(text, pieces):
    """pieces: list of (surface, type); locates each surface in order."""
    out = []
    cursor = 0
    for surface, etype in pieces:
        begin = text.index(surface, cursor)
        end = begin + len(surface) - 1
        out.append(Chunk(etype, None, begin, end, surface, 1.0, 0))
        cursor = end + 1
    return out


class TestPlaceholder:
    def test_upper_and_despace(self):
        assert placeholder("Date") == "<DATE>"
        assert placeholder("Medical Record") == "<MEDICALRECORD>"


class TestApplyPolicy:
    def test_record_date_mask(self):
        text = "Record date : 2021-01-14"
        chunks = span_chunks(text, [("2021-01-14", "Date")])
        result = apply_policy(text, chunks, DeidPolicy())
        assert result.text == "Record date : <DATE>"

    def test_empty_policy_identity(self):
        text = "Alicia saw Dr. Chen on 2012-11-04."
        chunks = span_chunks(text, [("Alicia", "Name"), ("2012-11-04", "Date")])
        result = apply_policy(text, chunks, DeidPolicy(modes={}))
        assert result.text == text
        assert result.replacements == []

    def test_substitute_consistency(self):
        text = "Alicia met Bob. Later Alicia left."
        chunks = span_chunks(
            text, [("Alicia", "Name"), ("Bob", "Name"), ("Alicia", "Name")]
        )
        policy = DeidPolicy(
            modes={"name": "substitute"},
            dictionaries={"name": ["Pat", "Sam", "Alex", "Robin"]},
            seed=3,
        )
        result = apply_policy(text, chunks, policy)
        first, second, third = (r.replacement for r in result.replacements)
        assert first == third
        assert all(r in policy.dictionaries["name"] for r in (first, second))

    def test_unprotected_chunks_untouched(self):
        text = "fever since 2021-01-14"
        chunks = span_chunks(text, [("fever", "Symptom"), ("2021-01-14", "Date")])
        result = apply_policy(text, chunks, DeidPolicy())
        assert result.text == "fever since <DATE>"

    def test_overlap_rejected(self):
        text = "abcdef"
        chunks = [chunk("Name", 0, 3), chunk("Date", 2, 5)]
        with pytest.raises(ValidationError, match="overlap"):
            apply_policy(text, chunks, DeidPolicy())
        # two chunks that share a single offset overlap too
        with pytest.raises(ValidationError, match="protected chunks overlap"):
            apply_policy(text, [chunk("Name", 0, 3), chunk("Date", 3, 5)], DeidPolicy())

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            apply_policy("abc", [chunk("Name", 1, 10)], DeidPolicy())

    def test_type_matching_case_insensitive(self):
        text = "saw Alicia"
        chunks = span_chunks(text, [("Alicia", "NAME")])
        result = apply_policy(text, chunks, DeidPolicy())
        assert result.text == "saw <NAME>"

    def test_determinism(self):
        text = "Alicia, 54, of Scarborough."
        chunks = span_chunks(
            text, [("Alicia", "Name"), ("54", "Age"), ("Scarborough", "City")]
        )
        policy = DeidPolicy(
            modes={"name": "substitute", "age": "mask", "city": "mask"},
            dictionaries={"name": ["Pat", "Sam", "Alex"]},
            seed=11,
        )
        assert apply_policy(text, chunks, policy).text == apply_policy(text, chunks, policy).text


class TestReverse:
    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        types = ["Name", "Date", "Age", "Hospital", "Symptom"]
        policy = DeidPolicy(
            modes={"name": "substitute", "date": "mask", "age": "mask", "hospital": "mask"},
            dictionaries={"name": ["Pat", "Samantha", "Al"]},
            seed=5,
        )
        alphabet = "abcXYZ019 -"
        for _ in range(300):
            n = int(rng.integers(0, 60))
            text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            chunks = []
            cursor = 0
            while cursor < len(text) - 2 and rng.random() < 0.6:
                begin = cursor + int(rng.integers(0, min(5, len(text) - cursor - 1)))
                end = begin + int(rng.integers(0, min(6, len(text) - begin - 1)))
                chunks.append(chunk(types[int(rng.integers(len(types)))], begin, end))
                cursor = end + 2
            result = apply_policy(text, chunks, policy)
            assert reverse(result) == text

    def test_empty_log_identity(self):
        result = DeidResult("unchanged", [])
        assert reverse(result) == "unchanged"

    def test_corrupted_span_rejected(self):
        result = apply_policy(
            "Record date : 2021-01-14",
            [chunk("Date", 14, 23)],
            DeidPolicy(),
        )
        bad = DeidResult(result.text, [Replacement(10, 23, "2021-01-14", "Date", "<DATE>")])
        with pytest.raises(ValidationError, match="inconsistent"):
            reverse(bad)

    def test_no_leak(self):
        rng = np.random.default_rng(2)
        policy = DeidPolicy()
        for _ in range(100):
            secret = "SECRET" + str(int(rng.integers(100, 999)))
            text = f"Patient {secret} arrived."
            chunks = span_chunks(text, [(secret, "Name")])
            result = apply_policy(text, chunks, policy)
            assert secret not in result.text


class TestPolicyFile:
    def test_parse(self):
        text = """
        # protected inventory
        Name = substitute Pat, Sam, Alex
        Date = mask
        seed = 9
        """
        policy = parse_policy_file(text)
        assert policy.mode_for("name") == "substitute"
        assert policy.mode_for("Date") == "mask"
        assert policy.mode_for("Symptom") is None
        assert policy.seed == 9
        assert policy.dictionaries["name"] == ["Pat", "Sam", "Alex"]

    def test_substitute_requires_values(self):
        with pytest.raises(ParseError):
            parse_policy_file("Name = substitute\n")

    def test_dictionary_path(self, tmp_path):
        (tmp_path / "names.txt").write_text("Pat\nSam\n\nAlex\n", encoding="utf-8")
        policy = parse_policy_file("Name = substitute names.txt\n", base_dir=tmp_path)
        assert policy.dictionaries["name"] == ["Pat", "Sam", "Alex"]

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_inline_value_holds_a_splitlines_break(self, char):
        policy = parse_policy_file(f"Name = substitute Al{char}ex, Sam\nDate = mask\n")
        assert policy.dictionaries["name"] == [f"Al{char}ex", "Sam"]
        assert policy.mode_for("date") == "mask"

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_dictionary_value_holds_a_splitlines_break(self, tmp_path, char):
        (tmp_path / "names.txt").write_text(f"Al{char}ex\r\nSam\n", encoding="utf-8")
        policy = parse_policy_file("Name = substitute names.txt\n", base_dir=tmp_path)
        assert policy.dictionaries["name"] == [f"Al{char}ex", "Sam"]

    def test_missing_dictionary_path(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_policy_file("Name = substitute nowhere.txt\n", base_dir=tmp_path)

    def test_unknown_mode(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_policy_file("Name = redact\n")

    def test_missing_mode(self):
        with pytest.raises(ParseError, match="line 2: unknown mode ''"):
            parse_policy_file("Date = mask\nName = \n")

    def test_default_inventory_masks_phipa_types(self):
        policy = DeidPolicy()
        for etype in ("age", "date", "name", "hospital", "street", "patient ID"):
            assert policy.mode_for(etype) == "mask"


class TestFigure4Style:
    """The documented mask formats on token-joined clinical sentences."""

    def test_masked_fields(self):
        text = "PCP : Alicia , 54 years-old , Record date : 2012-11-04 ."
        chunks = span_chunks(
            text, [("Alicia", "Name"), ("54", "Age"), ("2012-11-04", "Date")]
        )
        result = apply_policy(text, chunks, DeidPolicy())
        assert result.text == "PCP : <NAME> , <AGE> years-old , Record date : <DATE> ."
        assert reverse(result) == text
