import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medner.cli import main
from medner.embeddings import load_embeddings, write_embeddings
from medner.errors import MednerError, ParseError


def load_text(text, dim, policy="lowercase_then_unk"):
    """load_embeddings on a file that holds `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vecs.txt"
        path.write_text(text, encoding="utf-8")
        return load_embeddings(str(path), dim, policy)


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
