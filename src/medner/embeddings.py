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

    One pass over the lines checks their structure, one np.loadtxt call
    converts every value (its C reader rounds as float() does) and one
    isfinite pass checks the table.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"embedding file is not UTF-8 text: {exc.reason} at byte {exc.start}"
        )
    start = 0
    if lines:
        first = lines[0].split()
        if len(first) == 2 and all(_is_int(p) for p in first):
            start = 1
    rows: list[str] = []  # the vector lines, right-stripped
    linenos: list[int] = []
    words: list[str] = []
    keep: list[int] = []  # the row of each word's first occurrence
    seen: set[str] = set()
    fault = None  # the first line with a wrong value count or a \x1f among its values
    for lineno in range(start + 1, len(lines) + 1):
        line = lines[lineno - 1].rstrip()
        if not line:
            continue
        space = line.find(" ")
        word = line if space < 0 else line[:space]
        found = line.count(" ")
        if found != expected_dimension:
            fault = ParseError(
                f"expected {expected_dimension} values for {word!r}, found {found}", lineno
            )
            break
        # loadtxt skips \x1f around a value as whitespace; float() does not
        if line.find("\x1f", space) >= 0:
            fault = ParseError(f"non-numeric value in row for {word!r}", lineno)
            break
        if word in seen:
            log.warning("duplicate embedding row for %r: keeping the first", word)
        else:
            seen.add(word)
            words.append(word)
            keep.append(len(rows))
        rows.append(line)
        linenos.append(lineno)
    if not rows:
        raise fault or ParseError("embedding file contains no vector rows")
    try:
        matrix = _parse_values(rows, expected_dimension)
    except ValueError:
        for row, lineno in zip(rows, linenos):  # find the first faulty row
            _check_row(row, lineno, expected_dimension)
        raise
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        _check_row(rows[bad], linenos[bad], expected_dimension)
    if fault is not None:
        raise fault
    if len(keep) < len(rows):
        matrix = matrix[keep]
    if UNK_WORD in seen:
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
    """Raise the ParseError of a row whose values are not all finite numbers."""
    word = row.partition(" ")[0]
    try:
        values = _parse_values([row], dimension)
    except ValueError:
        raise ParseError(f"non-numeric value in row for {word!r}", lineno)
    if not np.isfinite(values).all():
        raise ParseError(f"non-finite value in row for {word!r}", lineno)


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
