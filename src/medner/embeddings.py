"""Static word-vector tables loaded from text files.

Pretrained contextual embeddings are abstracted behind the same lookup
interface: a table maps surfaces to 64-bit float rows and is total, i.e.
lookup never fails regardless of the token.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

OOV_POLICIES = ("zero", "unk_row", "lowercase_then_unk")
UNK_WORD = "<unk>"


@dataclass
class EmbeddingTable:
    dimension: int
    words: list[str]
    matrix: np.ndarray  # (len(words), dimension) float64
    unk_vector: np.ndarray
    oov_policy: str = "lowercase_then_unk"
    word_to_row: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.oov_policy not in OOV_POLICIES:
            raise ValidationError(
                f"unknown OOV policy {self.oov_policy!r}, expected one of {OOV_POLICIES}"
            )
        if self.matrix.shape != (len(self.words), self.dimension):
            raise ValidationError("embedding matrix shape does not match word list")
        if self.unk_vector.shape != (self.dimension,):
            raise ValidationError("unk vector has wrong dimension")
        if not np.all(np.isfinite(self.matrix)) or not np.all(np.isfinite(self.unk_vector)):
            raise ValidationError("embedding table contains non-finite values")
        self.word_to_row = {w: i for i, w in enumerate(self.words)}
        self._zero = np.zeros(self.dimension, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.words)

    def lookup(self, token_surface: str) -> np.ndarray:
        """Resolve a token to its vector; total under every OOV policy."""
        row = self.word_to_row.get(token_surface)
        if row is not None:
            return self.matrix[row]
        if self.oov_policy == "lowercase_then_unk":
            row = self.word_to_row.get(token_surface.lower())
            if row is not None:
                return self.matrix[row]
            return self.unk_vector
        if self.oov_policy == "unk_row":
            return self.unk_vector
        return self._zero


def load_embeddings(
    path_or_text: str, expected_dimension: int, oov_policy: str = "lowercase_then_unk",
    is_text: bool = False,
) -> EmbeddingTable:
    """Load `word v1 ... vd` lines into an EmbeddingTable.

    An optional first line "count dim" (two integers) is skipped. Duplicate
    words keep their first row. The unknown-word vector is the element-wise
    mean of all rows unless the file provides a literal "<unk>" row.
    """
    if is_text:
        text = path_or_text
    else:
        with open(path_or_text, encoding="utf-8") as fh:
            text = fh.read()
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    lines = text.splitlines()
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
            log.warning("duplicate embedding row for %r: keeping the first", word)
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
        unk = matrix.mean(axis=0)
    return EmbeddingTable(expected_dimension, words, matrix, unk, oov_policy)


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def write_embeddings(table: EmbeddingTable, path: str) -> None:
    """Emit the text format read by load_embeddings, round-trip exact."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(table.words)} {table.dimension}\n")
        for word, row in zip(table.words, table.matrix):
            fh.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")


def pool_mean(vectors: list[np.ndarray] | np.ndarray) -> np.ndarray:
    """Element-wise arithmetic mean of equal-length vectors."""
    if len(vectors) == 0:
        raise ValidationError("cannot pool an empty list of vectors")
    try:
        arr = np.asarray(vectors, dtype=np.float64)
    except ValueError:
        raise ValidationError("vectors must all have the same length")
    if arr.ndim != 2:
        raise ValidationError("vectors must all have the same length")
    return arr.mean(axis=0)
