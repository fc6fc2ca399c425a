"""Metamorphic relations over the whole pipeline, through `main`: how the
outputs for related documents must relate to each other, which needs no
expected output (Chen, Cheung & Yiu 1998, "Metamorphic Testing: A New
Approach for Generating Next Test Cases", HKUST-CS98-01).

Each relation draws its documents with a bounded example count and a fixed
profile (derandomized, no example database), so every run sees the same
examples.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from medner import chunking
from medner.cli import main
from medner.nercore import model as model_module

MODEL = Path(__file__).parent / "data" / "tiny_v1.medner"
FIXED = settings(max_examples=15, deadline=None, derandomize=True, database=None)

# words the committed model tags as Symptom or Dosage, words it tags O,
# words it has never seen, and a comma; no '.', '!' or '?', so each line is
# one sentence
WORDS = ["patient", "took", "250mg", "12mcg", "5ml", "daily", "with", "water", "severe",
         "chest", "pain", "fever", "headache", "nausea", "Cough", "syrup", "and", "no",
         "known", "allergies", "since", "yesterday", "xyzzy", "Zorblax", ","]
LINE = st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from([" ", "  ", "\t"])),
                min_size=3, max_size=9).map(lambda parts: "".join(w + s for w, s in parts))
# at least five sentences of at least three tokens: at BATCH_TOKENS 12 a
# bucket holds at most four rows, so a document spans two buckets or more,
# which `tag` shares between the caller and the lane's worker
DOCUMENT = st.lists(LINE, min_size=5, max_size=8)

# a line's rows sit in buckets of other shapes in the document and alone,
# which changes only how the matrix products round (by at most 7e-16 over
# these examples)
CONFIDENCE_TOLERANCE = 1e-12

decode_chunks = chunking.decode_chunks


def predict(text: str, work: Path) -> list[tuple]:
    """(begin, end, type, surface) of each chunk that `medner predict`
    writes for text, with its confidence as decode_chunks returned it
    (chunks.tsv rounds it to two decimals)."""
    work.mkdir()
    (work / "in.txt").write_text(text, encoding="utf-8")
    decoded = []

    def spy(*args, **kwargs):
        chunks = decode_chunks(*args, **kwargs)
        decoded.extend(chunks)
        return chunks

    with mock.patch.object(chunking, "decode_chunks", spy):
        argv = ["predict", "--model", str(MODEL), "--input", str(work / "in.txt"),
                "--out-dir", str(work / "out")]
        assert main(argv) == 0
    written = chunking.parse_chunk_records((work / "out" / "chunks.tsv").read_text(encoding="utf-8"))
    assert [(c.begin, c.end) for c in written] == [(c.begin, c.end) for c in decoded]
    return [(c.begin, c.end, c.entity_type, c.surface, d.confidence)
            for c, d in zip(written, decoded)]


class TestSentenceIndependence:
    @FIXED
    @given(DOCUMENT)
    def test_document_equals_its_lines_alone(self, lines):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(model_module, "BATCH_TOKENS", 12):
            work = Path(tmp)
            whole = predict("\n".join(lines), work / "document")
            alone, start = [], 0
            for k, line in enumerate(lines):
                alone += [(begin + start, end + start, *rest)
                          for begin, end, *rest in predict(line, work / f"line{k}")]
                start += len(line) + 1
        assert [c[:4] for c in whole] == [c[:4] for c in alone]
        np.testing.assert_allclose([c[4] for c in whole], [c[4] for c in alone],
                                   rtol=0, atol=CONFIDENCE_TOLERANCE)
