import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPLITLINES_ONLY, write_embeddings
from medner.cli import main
from medner.embeddings import UNK_WORD, EmbeddingTable, _is_int, load_embeddings
from medner.errors import MednerError, ParseError


def load_text(text, dim, policy="lowercase_then_unk"):
    """load_embeddings on a file that holds `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vecs.txt"
        path.write_text(text, encoding="utf-8")
        return load_embeddings(str(path), dim, policy)


def oracle_load_embeddings(path, expected_dimension, oov_policy="lowercase_then_unk"):
    """load_embeddings as a per-row float() loop: the parser load_embeddings
    replaced, kept as its oracle."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"embedding file is not UTF-8 text: {exc.reason} at byte {exc.start}"
        )
    words, rows, seen = [], [], set()
    lines = text.split("\n")
    start = 0
    if lines:
        first = lines[0].split()
        if len(first) == 2 and all(_is_int(p) for p in first):
            start = 1
    for lineno in range(start, len(lines)):
        line = lines[lineno]
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        word = parts[0]
        values = parts[1:]
        if len(values) != expected_dimension:
            raise ParseError(
                f"expected {expected_dimension} values for {word!r}, found {len(values)}",
                line=lineno + 1,
            )
        try:
            vec = np.array([float(v) for v in values], dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric value in row for {word!r}", line=lineno + 1)
        if not np.all(np.isfinite(vec)):
            raise ParseError(f"non-finite value in row for {word!r}", line=lineno + 1)
        if word in seen:
            continue
        seen.add(word)
        words.append(word)
        rows.append(vec)
    if not rows:
        raise ParseError("embedding file contains no vector rows")
    matrix = np.stack(rows)
    if UNK_WORD in seen:
        unk = matrix[words.index(UNK_WORD)].copy()
    else:
        with np.errstate(over="ignore"):
            unk = matrix.mean(axis=0)
        if not np.all(np.isfinite(unk)):
            raise ParseError("the mean of the vector rows overflows; add a <unk> row")
    return EmbeddingTable(expected_dimension, words, matrix, unk, oov_policy)


class TestLoad:
    def test_mean_unk(self):
        table = load_text("a 1.0 2.0\nb 3.0 4.0", 2)
        assert len(table) == 2
        np.testing.assert_allclose(table.unk_vector, [2.0, 3.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="line 1"):
            load_text("a 1.0", 2)

    def test_duplicate_first_wins(self, caplog):
        with caplog.at_level("WARNING"):
            table = load_text("a 1.0 2.0\na 9.0 9.0", 2)
        np.testing.assert_allclose(table.lookup("a"), [1.0, 2.0])
        assert "duplicate" in caplog.text

    def test_header_skipped(self):
        table = load_text("2 2\na 1.0 2.0\nb 3.0 4.0", 2)
        assert len(table) == 2

    def test_empty_file(self):
        with pytest.raises(ParseError):
            load_text("", 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            load_text("a nan 1.0", 2)

    def test_overflowing_mean_rejected(self):
        with pytest.raises(ParseError, match="<unk> row"):
            load_text("a 8.98846567431158e+307\nb 8.98846567431158e+307", 1)
        assert load_text("<unk> 0.0\na 8.98846567431158e+307\nb 9e307", 1).unk_vector == 0.0

    def test_explicit_unk_row(self):
        table = load_text("<unk> 7.0 8.0\na 1.0 2.0", 2)
        np.testing.assert_allclose(table.unk_vector, [7.0, 8.0])

    def test_first_faulty_line_reported(self):
        # a non-numeric value on line 3 comes before the short line 5
        text = "a 1.0 2.0\nb 3.0 4.0\nc 5.0 x\nd 6.0 7.0\ne 8.0\n"
        with pytest.raises(ParseError, match="line 3: non-numeric"):
            load_text(text, 2)
        # a non-finite value on line 2 comes before the non-numeric line 4
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_text("a 1.0 2.0\nb nan 4.0\nc 5.0 6.0\nd x 7.0", 2)

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11.5"])
    def test_only_ascii_notation(self, value):
        # float() reads underscores and non-ASCII digits; the table does not
        float(value)
        with pytest.raises(ParseError, match="line 2: non-numeric"):
            load_text(f"a 1.0\nb {value}\nc 2.0", 1)

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_word_holds_a_splitlines_break(self, char):
        table = load_text(f"a{char}b 1.0\nc 2.0", 1)
        assert table.words == [f"a{char}b", "c"]

    def test_from_path(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1.0 2.0\n", encoding="utf-8")
        table = load_embeddings(str(path), 2)
        np.testing.assert_allclose(table.lookup("a"), [1.0, 2.0])


class TestLookup:
    def test_known_word(self):
        table = load_text("a 1.0 2.0\nb 3.0 4.0", 2)
        np.testing.assert_allclose(table.lookup("b"), [3.0, 4.0])

    def test_lowercase_fallback(self):
        table = load_text("fever 1.0 2.0", 2, "lowercase_then_unk")
        np.testing.assert_allclose(table.lookup("Fever"), [1.0, 2.0])

    def test_zero_policy(self):
        table = load_text("a 1.0 2.0", 2, "zero")
        np.testing.assert_allclose(table.lookup("zzz"), [0.0, 0.0])

    def test_unk_row_policy(self):
        table = load_text("a 1.0 2.0\nb 3.0 4.0", 2, "unk_row")
        np.testing.assert_allclose(table.lookup("zzz"), [2.0, 3.0])

    def test_totality(self):
        table = load_text("a 1.0 2.0\nb 3.0 4.0", 2)
        rng = np.random.default_rng(0)
        alphabet = "abXY9-é "
        for _ in range(10_000):
            n = int(rng.integers(1, 12))
            token = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
            vec = table.lookup(token)
            assert vec.shape == (2,)
            assert np.all(np.isfinite(vec))


class TestRoundTrip:
    def test_write_load_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        words = ["alpha", "Beta", "x-9", "<unk>"]
        matrix = rng.normal(size=(4, 3))
        text = "\n".join(
            w + " " + " ".join(repr(float(v)) for v in row) for w, row in zip(words, matrix)
        )
        table = load_text(text, 3)
        path = tmp_path / "out.txt"
        write_embeddings(table, str(path))
        again = load_embeddings(str(path), 3)
        assert again.words == table.words
        np.testing.assert_array_equal(again.matrix, table.matrix)
        np.testing.assert_array_equal(again.unk_vector, table.unk_vector)


# Pieces of embedding files: well-formed values and every kind of bad one.
FIELDS = st.one_of(
    st.sampled_from(["1.0", "-2.5e-3", "0", "7", "1e999", "nan", "-inf", "1_0", "0x1p3",
                     "abc", "", " ", "\t", "<unk>", "2 2", "é", "\u00a0", "\r"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=4),
)
LINES = st.lists(FIELDS, max_size=5).map(" ".join)
TEXTS = st.lists(LINES, max_size=6).map("\n".join)


class TestFuzz:
    """load_embeddings either returns a finite table of the asked dimension or
    raises ParseError, which the CLI reports with exit code 3."""

    @staticmethod
    def check(load, dim):
        try:
            table = load()
        except MednerError as exc:
            assert isinstance(exc, ParseError), exc
            return
        assert table.matrix.shape == (len(table.words), dim)
        assert len(set(table.words)) == len(table.words)
        assert np.all(np.isfinite(table.matrix)) and np.all(np.isfinite(table.unk_vector))

    @settings(max_examples=150, deadline=None)
    @given(TEXTS, st.integers(1, 3))
    def test_text(self, text, dim):
        self.check(lambda: load_text(text, dim), dim)

    def test_file_bytes(self, tmp_path):
        path = tmp_path / "vecs.txt"

        @settings(max_examples=80, deadline=None)
        @given(st.one_of(TEXTS.map(lambda t: t.encode("utf-8")), st.binary(max_size=40)),
               st.integers(1, 3))
        def run(data, dim):
            path.write_bytes(data)
            self.check(lambda: load_embeddings(str(path), dim), dim)

        run()

    def test_undecodable_file_exits_3(self, tmp_path):
        (tmp_path / "train.tsv").write_text("fever\tB-Symptom\nmild\tO\n", encoding="utf-8")
        (tmp_path / "vecs.txt").write_bytes(b"fever 1.0 2.0\nmild 0.5 \xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text: invalid start byte at byte 23"):
            load_embeddings(str(tmp_path / "vecs.txt"), 2)
        code = main(["train", "--train", str(tmp_path / "train.tsv"),
                     "--val", str(tmp_path / "train.tsv"), "--format", "tsv2",
                     "--embeddings", str(tmp_path / "vecs.txt"), "--embed-dim", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3


def outcome(load, path, dim):
    """What a loader makes of a file: the table's words and the bytes of its
    matrix and unk vector, or the line its ParseError names (with the message
    when there is no line)."""
    try:
        table = load(str(path), dim)
    except ParseError as exc:
        return ("error", exc.line, str(exc) if exc.line is None else None)
    return ("table", table.words, table.matrix.shape, table.matrix.tobytes(),
            table.unk_vector.tobytes())


def float_only(value: str) -> bool:
    """float() reads the value, but it is not ASCII decimal or exponent
    notation: it holds an underscore or a non-ASCII digit."""
    try:
        float(value)
    except ValueError:
        return False
    return "_" in value or not value.strip().isascii()


def assert_matches_oracle(path, text, dim):
    """load_embeddings and oracle_load_embeddings build bit-identical tables
    or name the same line, except where load_embeddings rejects, as
    non-numeric, a line holding a value only float() reads."""
    path.write_text(text, encoding="utf-8")
    got = outcome(load_embeddings, path, dim)
    want = outcome(oracle_load_embeddings, path, dim)
    if got == want:
        return
    assert got[0] == "error" and got[1] is not None, (text, got, want)
    line = got[1]
    assert want[0] == "table" or (want[1] is not None and want[1] > line), (text, got, want)
    with pytest.raises(ParseError, match=f"line {line}: non-numeric"):
        load_embeddings(str(path), dim)
    values = path.read_text(encoding="utf-8").split("\n")[line - 1].rstrip().split(" ")[1:]
    assert any(float_only(v) for v in values), (text, got, want)


FIXED_CASES = [
    ("a 1.0 2.0\nb 3.0 4.0", 2),
    ("a 1.0", 2),
    ("a 1.0 2.0\na 9.0 9.0", 2),
    ("2 2\na 1.0 2.0\nb 3.0 4.0", 2),
    ("2 2\n", 2),
    ("", 2),
    ("\n \n\ta 1.0\n\n", 1),
    ("a nan 1.0", 2),
    ("a 8.98846567431158e+307\nb 8.98846567431158e+307", 1),
    ("<unk> 0.0\na 8.98846567431158e+307\nb 9e307", 1),
    ("<unk> 7.0 8.0\na 1.0 2.0", 2),
    ("a 1.0 2.0\nb 3.0 4.0\nc 5.0 x\nd 6.0 7.0\ne 8.0\n", 2),
    ("a 1.0 2.0\nb nan 4.0\nc 5.0 6.0\nd x 7.0", 2),
    ("a 1.0 2.0\nb 1e999 4.0\nc 5.0 6.0 7.0", 2),
    ("a 1.0 2.0  \r\nb -0.0 +3.5E-2\r\n", 2),
    (" 1.0 2.0\nb .5 5.", 2),
    ("a \t1.0\nb 2.0\t\nc\t3.0 4.0", 1),
    ("a \u00a01.0\u2003\nb \u30002.0", 1),
    ("a \x1f1.0", 1),
    ("a 1.0\x1f 2.0", 2),
    ("\x1fa 1.0", 1),
    ("a 1.0\x00", 1),
    ("a  1.0", 1),
    ("a 1.0 2.0", 1),
    ("a 1_0\nb 1e999", 1),
    ("a INFINITY\nb 2", 1),
    ("a 0x1p3", 1),
    ("a 1 2\na 3 x", 2),
    ("a\u00851.0 2.0", 2),
    ("a\u2028b 1.0\nc 2.0", 1),
    ("a \x1c1.0", 1),
    ("a 1.0\x1e 2.0", 2),
    # a fault the value counts show (a wrong count, a \x1f) on a line before
    # one only the parsed values show (not a number, not finite)
    ("a 1.0\nb x 2.0", 2),
    ("a 1.0\x1f 2.0\nb nan 1.0", 2),
]


class TestOracle:
    """load_embeddings against the per-row float() parser it replaced."""

    @pytest.mark.parametrize("text, dim", FIXED_CASES)
    def test_fixed(self, tmp_path, text, dim):
        assert_matches_oracle(tmp_path / "vecs.txt", text, dim)

    def test_text(self, tmp_path):
        @settings(max_examples=300, deadline=None)
        @given(TEXTS, st.integers(1, 3))
        def run(text, dim):
            assert_matches_oracle(tmp_path / "vecs.txt", text, dim)

        run()

    def test_float_repr_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(size=300) * 10.0 ** rng.integers(-300, 300, 300),
                                 [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]])
        rows = values.reshape(-1, 3)
        # repr and 17 significant digits both round-trip; <unk> keeps the
        # mean of values near the float limit from overflowing
        text = "<unk> 0 0 0\n" + "\n".join(
            f"w{i} " + " ".join(repr(v) if i % 2 else f"{v:.16e}" for v in row.tolist())
            for i, row in enumerate(rows))
        assert_matches_oracle(tmp_path / "vecs.txt", text, 3)
        table = load_embeddings(str(tmp_path / "vecs.txt"), 3)
        assert table.matrix[1:].tobytes() == rows.tobytes()
