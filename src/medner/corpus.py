"""Corpus ingestion: sentence splitting, tokenization, CoNLL parsing, IOB
tag handling, vocabularies, and deterministic data splits.

Raw text is cut into sentences after every newline, and after '.', '!' or
'?' when spaces or tabs and then an upper-case letter or digit follow,
unless the '.' ends an abbreviation; each sentence is trimmed of the
whitespace around it. A token is one punctuation mark, or a run of
non-whitespace that begins and ends with a character that is not
punctuation.

Character offsets are 0-based with inclusive begin/end throughout. Tags are
IOB2 everywhere inside the package. IOB1 exists only at the file boundary:
``parse_conll(input_scheme="IOB1")`` reads it and ``write_conll(...,
scheme="IOB1")`` writes it. ``follows`` is the one rule for which tag may
come after which; ``validate_iob`` and ``LabelSchema.transition_mask`` both
apply it.
"""

from __future__ import annotations

import logging
import re
import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, SchemaError, ValidationError

log = logging.getLogger(__name__)

SCHEMES = ("IOB1", "IOB2")

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

# Words that end with '.' but do not close a sentence. Extensible via the
# `abbreviations` argument of sentence_split (the CLI reads them from a file).
DEFAULT_ABBREVIATIONS = frozenset(
    {
        "Dr.", "Mr.", "Mrs.", "Ms.", "Prof.", "St.",
        "Fig.", "Figs.", "Eq.", "No.", "al.",
        "e.g.", "i.e.", "etc.", "vs.", "cf.",
    }
)

# A newline, or a whole word (its run of non-whitespace, anchored at the
# run's start so that each run is tried once) that ends in a mark followed by
# spaces or tabs; group 1 is the character after them.
_SENTENCE_END = re.compile(r"\n|(?<!\S)\S*[.!?](?=[ \t]+([^ \t]))")
_PUNCT = re.escape(string.punctuation)
_TOKEN = re.compile(rf"[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?")


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ValidationError(f"unknown tagging scheme {scheme!r}, expected one of {SCHEMES}")


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split an IOB tag into (prefix, entity type); 'O' maps to ('O', None)."""
    if tag == "O":
        return "O", None
    if len(tag) > 2 and tag[1] == "-" and tag[0] in ("B", "I"):
        return tag[0], tag[2:]
    raise ValidationError(f"malformed IOB tag {tag!r}")


def follows(prev: tuple[str, str | None], cur: tuple[str, str | None], guarded: str = "I") -> bool:
    """Whether tag `cur` may come right after tag `prev`, both as split_tag
    gives them; ('O', None) stands before a sentence's first tag. A tag with
    the `guarded` prefix must follow a tag of its own entity type, and any
    other tag may follow anything. The default is IOB2's rule."""
    prefix, etype = cur
    return prefix != guarded or prev[1] == etype


@dataclass(frozen=True)
class Token:
    """A surface string anchored to its source text by inclusive offsets."""

    surface: str
    begin: int
    end: int
    tag: str | None = None

    def __post_init__(self):
        if not self.surface:
            raise ValidationError("token surface must be non-empty")
        if "\n" in self.surface or "\r" in self.surface:
            raise ValidationError(f"token surface contains a newline: {self.surface!r}")
        if self.begin < 0 or self.begin > self.end:
            raise ValidationError(f"bad token offsets [{self.begin}, {self.end}]")
        if self.end - self.begin + 1 != len(self.surface):
            raise ValidationError(
                f"token {self.surface!r} does not span [{self.begin}, {self.end}]"
            )


@dataclass
class Sentence:
    tokens: list[Token]
    doc_id: str = "doc0"
    sent_index: int = 0

    def __post_init__(self):
        if not self.tokens:
            raise ValidationError("sentence must contain at least one token")
        if self.sent_index < 0:
            raise ValidationError("sent_index must be non-negative")
        for prev, cur in zip(self.tokens, self.tokens[1:]):
            if cur.begin <= prev.end:
                raise ValidationError(
                    f"token offsets not strictly increasing at {cur.surface!r}"
                )
        tagged = [t.tag is not None for t in self.tokens]
        if any(tagged) and not all(tagged):
            raise ValidationError("sentence is partially tagged")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def is_tagged(self) -> bool:
        return self.tokens[0].tag is not None

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    def tags(self) -> list[str]:
        if not self.is_tagged:
            raise ValidationError("sentence has no tags")
        return [t.tag for t in self.tokens]  # type: ignore[misc]

    def with_tags(self, tags: list[str]) -> "Sentence":
        if len(tags) != len(self.tokens):
            raise ValidationError("tag sequence length does not match sentence")
        new = [Token(t.surface, t.begin, t.end, tag) for t, tag in zip(self.tokens, tags)]
        return Sentence(new, self.doc_id, self.sent_index)


@dataclass
class LabelSchema:
    """Entity type inventory plus the derived IOB2 tag set and transition mask.

    Tag order is fixed: 'O' first, then 'B-t', 'I-t' for each entity type in
    declaration order. The transition mask appends virtual START and STOP
    states after the real tags.
    """

    entity_types: list[str]
    tags: list[str] = field(init=False)
    tag_to_index: dict[str, int] = field(init=False)

    def __post_init__(self):
        if len(set(self.entity_types)) != len(self.entity_types):
            raise ValidationError("duplicate entity types in schema")
        for t in self.entity_types:
            if not t or "\n" in t:
                raise ValidationError(f"bad entity type name {t!r}")
        self.tags = ["O"]
        for t in self.entity_types:
            self.tags.append(f"B-{t}")
            self.tags.append(f"I-{t}")
        self.tag_to_index = {t: i for i, t in enumerate(self.tags)}

    @property
    def num_tags(self) -> int:
        return len(self.tags)

    @property
    def stop_index(self) -> int:
        return self.num_tags + 1

    def transition_mask(self) -> np.ndarray:
        """Boolean (num_tags+2)^2 matrix of the transitions `follows` allows.

        Row = source tag, column = target tag. START never receives, STOP
        never emits.
        """
        n = self.num_tags
        mask = np.zeros((n + 2, n + 2), dtype=bool)
        infos = [split_tag(t) for t in self.tags]
        for i, src in enumerate([*infos, ("O", None)]):  # row n is START
            mask[i, :n] = [follows(src, dst) for dst in infos]
        mask[:n, self.stop_index] = True
        return mask

    @classmethod
    def from_text(cls, text: str) -> "LabelSchema":
        """A schema file: one entity type per line, '#' comments, and an
        optional `scheme: IOB2` line. Tags are IOB2 internally, so IOB1
        input files are read with --scheme IOB1, not declared here."""
        types: list[str] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("scheme:"):
                if line.split(":", 1)[1].strip() != "IOB2":
                    raise ParseError(
                        f"{line!r}: schema files are IOB2 only; read IOB1 input "
                        "files with --scheme IOB1", line=lineno,
                    )
                continue
            types.append(line)
        if not types:
            raise ParseError("schema file lists no entity types")
        return cls(types)


@dataclass
class Corpus:
    sentences: list[Sentence]
    schema: LabelSchema

    def __post_init__(self):
        known = set(self.schema.tags)
        for sent in self.sentences:
            if not sent.is_tagged:
                continue
            tags = sent.tags()
            bad = [t for t in tags if t not in known]
            if bad:
                raise SchemaError(
                    f"{sent.doc_id}[{sent.sent_index}]: tags not in schema: {sorted(set(bad))}"
                )
            violations = validate_iob(tags, "IOB2")
            if violations:
                idx, reason = violations[0]
                raise ValidationError(
                    f"{sent.doc_id}[{sent.sent_index}]: invalid IOB2 at token {idx}: {reason}"
                )

    def __len__(self) -> int:
        return len(self.sentences)

    def subset(self, indices: list[int]) -> "Corpus":
        return Corpus([self.sentences[i] for i in indices], self.schema)

    def entity_types_present(self) -> set[str]:
        present: set[str] = set()
        for sent in self.sentences:
            if not sent.is_tagged:
                continue
            for tag in sent.tags():
                prefix, etype = split_tag(tag)
                if etype is not None:
                    present.add(etype)
        return present


def sentence_split(
    raw_text: str, abbreviations: frozenset[str] | set[str] = DEFAULT_ABBREVIATIONS
) -> list[tuple[str, int, int]]:
    """Split text into sentences, returning (sentence_text, begin, end) triples.

    Boundaries occur after '.', '!' or '?' followed by spaces or tabs and an
    upper-case letter or digit, and at newlines. Words in `abbreviations`
    never close a sentence. Offsets are inclusive; slices are trimmed of
    surrounding whitespace, so concatenating them preserves every
    non-whitespace character.
    """
    cuts = [0]
    for m in _SENTENCE_END.finditer(raw_text):
        word, after = m.group(0, 1)
        if after is None or (after.isupper() or after.isdigit()) and not (
            word[-1] == "." and (word in abbreviations or word.lstrip("([{\"'") in abbreviations)
        ):
            cuts.append(m.end())
    cuts.append(len(raw_text))
    sentences: list[tuple[str, int, int]] = []
    for start, stop in zip(cuts, cuts[1:]):
        piece = raw_text[start:stop]
        text = piece.strip()
        if text:
            begin = start + len(piece) - len(piece.lstrip())
            sentences.append((text, begin, begin + len(text) - 1))
    return sentences


def tokenize(sentence_text: str, base_offset: int = 0) -> list[Token]:
    """Whitespace-tokenize, detaching leading/trailing punctuation.

    Internal punctuation stays inside the token, so clinical terms like
    "COVID-19" or "2021-01-14" survive intact while "fever," splits into
    two tokens. Offsets are absolute via `base_offset`.
    """
    if not sentence_text:
        raise ValidationError("cannot tokenize empty text")
    return [
        Token(m.group(), base_offset + m.start(), base_offset + m.end() - 1)
        for m in _TOKEN.finditer(sentence_text)
    ]


def validate_iob(tag_sequence: list[str], scheme: str) -> list[tuple[int, str]]:
    """Return (index, reason) pairs for every scheme violation; [] if valid."""
    _check_scheme(scheme)
    guarded = "I" if scheme == "IOB2" else "B"  # IOB1's B-X only splits two X chunks
    violations: list[tuple[int, str]] = []
    prev: tuple[str, str | None] = ("O", None)
    for i, tag in enumerate(tag_sequence):
        try:
            cur = split_tag(tag)
        except ValidationError as exc:
            violations.append((i, str(exc)))
            cur = ("O", None)
        if not follows(prev, cur, guarded):
            violations.append((i, f"{tag} must follow B-{cur[1]} or I-{cur[1]}"))
        prev = cur
    return violations


def iob_spans(tag_sequence: list[str]) -> list[tuple[int, int, str]]:
    """Extract (start, end, type) chunk spans (end inclusive).

    One walk serves both schemes: an I-X right after a token of an X chunk
    extends that chunk, and any other B-X or I-X starts one. Assumes the
    sequence is valid under one of them; callers that cannot guarantee that
    should run validate_iob first.
    """
    spans: list[tuple[int, int, str]] = []
    for i, tag in enumerate(tag_sequence):
        prefix, etype = split_tag(tag)
        if prefix == "I" and spans and spans[-1][1:] == (i - 1, etype):
            spans[-1] = (spans[-1][0], i, etype)
        elif etype is not None:
            spans.append((i, i, etype))
    return spans


def spans_to_iob(
    spans: list[tuple[int, int, str]], length: int, scheme: str = "IOB2"
) -> list[str]:
    """Inverse of iob_spans for non-overlapping, in-bounds spans."""
    _check_scheme(scheme)
    tags = ["O"] * length
    prev_end: dict[int, str] = {}
    for start, end, etype in sorted(spans):
        if start < 0 or end >= length or start > end:
            raise ValidationError(f"span ({start}, {end}) out of bounds for length {length}")
        for i in range(start, end + 1):
            if tags[i] != "O":
                raise ValidationError(f"overlapping spans at token {i}")
        if scheme == "IOB2":
            first = f"B-{etype}"
        else:
            first = f"B-{etype}" if prev_end.get(start - 1) == etype else f"I-{etype}"
        tags[start] = first
        for i in range(start + 1, end + 1):
            tags[i] = f"I-{etype}"
        prev_end[end] = etype
    return tags


def convert_scheme(tag_sequence: list[str], from_scheme: str, to_scheme: str) -> list[str]:
    """Re-express a tag sequence in another scheme, preserving the chunk set."""
    violations = validate_iob(tag_sequence, from_scheme)
    if violations:
        idx, reason = violations[0]
        raise ValidationError(f"invalid {from_scheme} sequence at index {idx}: {reason}")
    spans = iob_spans(tag_sequence)
    return spans_to_iob(spans, len(tag_sequence), to_scheme)


@dataclass(frozen=True)
class ColumnSpec:
    """How many columns a line has, which holds the token and which the tag."""

    token_col: int
    tag_col: int
    n_cols: int
    sep: str | None = None  # None splits on runs of whitespace


CONLL4 = ColumnSpec(token_col=0, tag_col=3, n_cols=4)
TSV2 = ColumnSpec(token_col=0, tag_col=1, n_cols=2, sep="\t")
FORMATS: dict[str, ColumnSpec] = {"conll4": CONLL4, "tsv2": TSV2}


def synthesize_offsets(surfaces: list[str]) -> list[tuple[int, int]]:
    """Offsets for tokens joined by single spaces (CoNLL has no raw text)."""
    offsets = []
    pos = 0
    for s in surfaces:
        offsets.append((pos, pos + len(s) - 1))
        pos += len(s) + 1
    return offsets


def parse_conll(
    text: str,
    column_spec: ColumnSpec = CONLL4,
    schema: LabelSchema | None = None,
    input_scheme: str = "IOB2",
    max_seq_length: int | None = None,
) -> Corpus:
    """Parse CoNLL-style annotated text into a Corpus (canonical IOB2).

    Blank lines separate sentences; lines starting with "-DOCSTART-", even
    after an indent, begin a new document (so no token that write_conll
    writes reads back as one). Character offsets are synthesized by joining
    tokens with single spaces, per sentence. A token line with the wrong
    column count or an empty column is a ParseError as soon as it is read.
    When a sentence ends, its tags are checked in line order: a malformed tag
    is a ParseError, a tag the schema lacks a SchemaError, and then a tag
    sequence `input_scheme` forbids a ValidationError; each names its line.
    IOB1 input is converted to IOB2. With `max_seq_length` set, longer
    sentences are truncated with a warning before their tags are checked; by
    default every token is kept.
    """
    _check_scheme(input_scheme)
    known = set(schema.tags) if schema is not None else None
    sentences: list[Sentence] = []
    rows: list[tuple[str, str, int]] = []  # the current sentence's token lines
    doc_index = index = 0
    # the trailing "" ends the last sentence
    for lineno, line in enumerate([*text.splitlines(), ""], start=1):
        marker = line.lstrip().startswith("-DOCSTART-")
        if line.strip() and not marker:
            rows.append(_token_row(line, lineno, column_spec))
            continue
        if rows:
            if max_seq_length is not None and len(rows) > max_seq_length:
                log.warning(
                    "truncating sentence of %d tokens to max_seq_length=%d (doc%d sentence %d)",
                    len(rows), max_seq_length, doc_index, index,
                )
                rows = rows[:max_seq_length]
            sentences.append(_conll_sentence(rows, input_scheme, known, f"doc{doc_index}", index))
            rows, index = [], index + 1
        if marker and index > 0:
            doc_index, index = doc_index + 1, 0
    if schema is None:
        schema = LabelSchema(sorted({t[2:] for s in sentences for t in s.tags() if t != "O"}))
    return Corpus(sentences, schema)


def _token_row(line: str, lineno: int, column_spec: ColumnSpec) -> tuple[str, str, int]:
    """The (surface, tag, line number) of a token line."""
    parts = line.split(column_spec.sep)
    if len(parts) != column_spec.n_cols:
        raise ParseError(f"expected {column_spec.n_cols} columns, found {len(parts)}", line=lineno)
    surface = parts[column_spec.token_col].strip()
    if not surface:
        raise ParseError("empty token column", line=lineno)
    tag = parts[column_spec.tag_col].strip()
    if not tag:
        raise ParseError("empty tag column", line=lineno)
    return surface, tag, lineno


def _conll_sentence(
    rows: list[tuple[str, str, int]], scheme: str, known: set[str] | None, doc_id: str, index: int
) -> Sentence:
    """The IOB2 Sentence of one sentence's token rows, once its tags pass
    parse_conll's checks."""
    for _, tag, lineno in rows:
        try:
            split_tag(tag)
        except ValidationError:
            raise ParseError(f"malformed tag {tag!r}", line=lineno)
        if known is not None and tag not in known:
            raise SchemaError(f"line {lineno}: tag {tag!r} not in schema")
    surfaces = [row[0] for row in rows]
    tags = [row[1] for row in rows]
    violations = validate_iob(tags, scheme)
    if violations:
        idx, reason = violations[0]
        raise ValidationError(f"line {rows[idx][2]}: invalid {scheme}: {reason}")
    if scheme == "IOB1":
        tags = spans_to_iob(iob_spans(tags), len(tags))
    offsets = synthesize_offsets(surfaces)
    tokens = [Token(s, b, e, t) for s, (b, e), t in zip(surfaces, offsets, tags)]
    return Sentence(tokens, doc_id, index)


def write_conll(corpus: Corpus, column_spec: ColumnSpec = CONLL4, scheme: str = "IOB2") -> str:
    """Serialize a Corpus to CoNLL text with its tags in `scheme` (inverse
    of parse_conll with that input_scheme). A format whose columns whitespace
    separates takes no token or tag that holds whitespace (ValidationError)."""
    _check_scheme(scheme)
    lines: list[str] = []
    filler = "-X-"
    prev_doc: str | None = None
    for sent in corpus.sentences:
        if prev_doc is not None and sent.doc_id != prev_doc:
            lines.append("-DOCSTART-")
            lines.append("")
        prev_doc = sent.doc_id
        for token, tag in zip(sent.tokens, convert_scheme(sent.tags(), "IOB2", scheme)):
            for name, value in (("token", token.surface), ("tag", tag)):
                if column_spec.sep is None and any(c.isspace() for c in value):
                    raise ValidationError(
                        f"{sent.doc_id}[{sent.sent_index}]: {name} {value!r} holds whitespace, "
                        "which separates the columns"
                    )
            if column_spec.n_cols == 4:
                lines.append(f"{token.surface} {filler} {filler} {tag}")
            else:
                lines.append(f"{token.surface}\t{tag}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


def split_corpus(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic train/validation/test partition with exact sizes.

    Sizes are floors of n*ratio with the remainder distributed by largest
    fractional part (ties favor the earlier split).
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValidationError("ratios must be three non-negative numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(corpus)
    exact = [n * r for r in ratios]
    sizes = [int(np.floor(x)) for x in exact]
    remainder = n - sum(sizes)
    by_frac = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in range(remainder):
        sizes[by_frac[i % 3]] += 1
    perm = np.random.default_rng(seed).permutation(n)
    cuts = [sizes[0], sizes[0] + sizes[1]]
    parts = (
        sorted(perm[: cuts[0]].tolist()),
        sorted(perm[cuts[0] : cuts[1]].tolist()),
        sorted(perm[cuts[1] :].tolist()),
    )
    return tuple(corpus.subset(p) for p in parts)  # type: ignore[return-value]


@dataclass
class Vocabulary:
    """Word and character index maps with reserved PAD/UNK slots.

    Word indices are ordered by (frequency desc, lexicographic) after the
    reserved slots; characters by code point. Case is preserved: lowercase
    fallback for OOV words belongs to the embedding lookup, not here.
    """

    word_to_index: dict[str, int]
    char_to_index: dict[str, int]
    min_count: int = 1

    @property
    def num_words(self) -> int:
        return len(self.word_to_index) + 2

    @property
    def num_chars(self) -> int:
        return len(self.char_to_index) + 2

    def word_index(self, surface: str) -> int:
        return self.word_to_index.get(surface, UNK_INDEX)

    def char_indices(self, surface: str) -> list[int]:
        return [self.char_to_index.get(c, UNK_INDEX) for c in surface]

    def word_list(self) -> list[str]:
        return sorted(self.word_to_index, key=self.word_to_index.get)

    def char_list(self) -> list[str]:
        return sorted(self.char_to_index, key=self.char_to_index.get)

    @classmethod
    def from_lists(cls, words: list[str], chars: list[str], min_count: int = 1) -> "Vocabulary":
        return cls(
            {w: i + 2 for i, w in enumerate(words)},
            {c: i + 2 for i, c in enumerate(chars)},
            min_count,
        )


def build_vocab(corpus: Corpus, min_count: int = 1) -> Vocabulary:
    if not corpus.sentences:
        raise ValidationError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    chars: set[str] = set()
    for sent in corpus.sentences:
        for token in sent.tokens:
            counts[token.surface] += 1
            chars.update(token.surface)
    words = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary.from_lists(words, sorted(chars), min_count)
