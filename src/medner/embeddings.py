"""Static word-vector tables loaded from text files.

Pretrained contextual embeddings are abstracted behind the same lookup
interface: a table maps surfaces to 64-bit float rows and is total, i.e.
lookup never fails regardless of the token.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import read_text
from .errors import ParseError, ValidationError

log = logging.getLogger(__name__)

OOV_POLICIES = ("zero", "unk_row", "lowercase_then_unk")
UNK_WORD = "<unk>"
# loadtxt skips these around a value as whitespace, and float() does not; a
# table's rows are searched for them only when its text holds one
_LOADTXT_SPACES = "\x1c\x1d\x1e\x1f"


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
        self.word_to_row = dict(zip(self.words, range(len(self.words))))
        if len(self.word_to_row) != len(self.words):  # a repeat's first row is unreachable
            word = next(w for i, w in enumerate(self.words) if self.word_to_row[w] != i)
            raise ValidationError(f"embedding table repeats the word {word!r}")
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
    path: str, expected_dimension: int, oov_policy: str = "lowercase_then_unk"
) -> EmbeddingTable:
    """Load a file of `word v1 ... vd` lines into an EmbeddingTable.

    An optional first line "count dim" (two integers) is skipped. Duplicate
    words keep their first row. The unknown-word vector is the element-wise
    mean of all rows unless the file provides a literal "<unk>" row.

    A value is a decimal or exponent number, `inf`/`infinity` or `nan`
    (case-insensitive, optionally signed) in ASCII, as Python's float()
    reads it, whitespace around it allowed; float() also takes underscores
    and non-ASCII digits, which are rejected here. The first faulty line is
    reported, whatever its fault: a wrong number of values, a value that is
    not a number, or one that is not finite.

    The rows are the right-stripped non-blank lines after the header. One
    any() over them checks their value counts, one np.loadtxt call converts
    every value (its C reader rounds as float() does) and one isfinite pass
    checks the table. Only when one of these fails are the lines walked in
    order, to name the first faulty one.
    """
    text = read_text(path)
    spaces = [c for c in _LOADTXT_SPACES if c in text]
    lines = text.split("\n")
    del text  # held while loadtxt runs, it slows the parse
    first = lines[0].split()
    start = 1 if len(first) == 2 and all(_is_int(p) for p in first) else 0
    rows = [row for row in (line.rstrip() for line in lines[start:]) if row]
    if not rows:
        raise ParseError("embedding file contains no vector rows")
    fast = not any(r.count(" ") != expected_dimension
                   or spaces and any(c in r.partition(" ")[2] for c in spaces) for r in rows)
    try:
        matrix = _parse_values(rows, expected_dimension) if fast else None
    except ValueError:
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        for lineno, line in enumerate(lines[start:], start=start + 1):
            if line.strip():
                _check_row(line.rstrip(), lineno, expected_dimension)
        raise AssertionError("_check_row passed every row of a table that failed its checks")
    first_row: dict[str, int] = {}  # each word's first row
    for i, row in enumerate(rows):
        word = row.partition(" ")[0]
        if first_row.setdefault(word, i) != i:
            log.warning("duplicate embedding row for %r: keeping the first", word)
    words = list(first_row)
    if len(words) < len(rows):
        matrix = matrix[list(first_row.values())]
    if UNK_WORD in first_row:
        unk = matrix[words.index(UNK_WORD)].copy()
    else:
        with np.errstate(over="ignore"):  # finite rows near the float limit
            unk = matrix.mean(axis=0)
        if not np.all(np.isfinite(unk)):
            raise ParseError("the mean of the vector rows overflows; add a <unk> row")
    return EmbeddingTable(expected_dimension, words, matrix, unk, oov_policy)


def _parse_values(rows: list[str], dimension: int) -> np.ndarray:
    """The values of `word v1 ... vd` rows as a (len(rows), d) float64 array;
    ValueError if any is not a number."""
    return np.loadtxt(rows, dtype=np.float64, delimiter=" ", comments=None,
                      usecols=range(1, dimension + 1), ndmin=2)


def _check_row(row: str, lineno: int, dimension: int) -> None:
    """Raise the ParseError of a row that has the wrong number of values or
    values that are not all finite numbers."""
    word, _, tail = row.partition(" ")
    found = row.count(" ")
    if found != dimension:
        raise ParseError(f"expected {dimension} values for {word!r}, found {found}", lineno)
    try:
        skipped = any(c in tail for c in _LOADTXT_SPACES)
        values = None if skipped else _parse_values([row], dimension)
    except ValueError:
        values = None
    if values is None:
        raise ParseError(f"non-numeric value in row for {word!r}", lineno)
    if not np.isfinite(values).all():
        raise ParseError(f"non-finite value in row for {word!r}", lineno)


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
