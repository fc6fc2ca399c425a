"""Turn tag sequences into entity chunks with character offsets and
confidence scores, and read and write them as chunk records. Confidences
come from the posterior marginal matrix that `tag` returns; chunks decoded
without one, as from a gold corpus, have confidence 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabelSchema, Sentence, iob_spans, validate_iob
from .errors import ParseError, ValidationError

# how decode_chunks aggregates a chunk's token marginals into its confidence
CONFIDENCE_MODES = ("min", "geomean")


@dataclass
class Chunk:
    """A decoded entity span.

    `token_span` is (first, last) token index, inclusive; `begin`/`end` are
    inclusive character offsets; `surface` is the chunk tokens joined with
    single spaces. Chunks parsed back from record files have no token span.
    """

    entity_type: str
    token_span: tuple[int, int] | None
    begin: int
    end: int
    surface: str
    confidence: float
    sent_index: int = 0

    def __post_init__(self):
        if self.token_span is not None and self.token_span[0] > self.token_span[1]:
            raise ValidationError(f"bad token span {self.token_span}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValidationError(f"confidence {self.confidence} outside [0, 1]")
        if self.begin > self.end:
            raise ValidationError(f"bad character span [{self.begin}, {self.end}]")

    @property
    def span(self) -> tuple[int, int, str]:
        if self.token_span is None:
            raise ValidationError("chunk has no token span")
        return (self.token_span[0], self.token_span[1], self.entity_type)


def decode_chunks(
    sentence: Sentence,
    tag_sequence: list[str],
    marginals: np.ndarray | None = None,
    schema: LabelSchema | None = None,
    confidence_mode: str = "min",
) -> list[Chunk]:
    """Maximal B-X (I-X)* runs become chunks (input must be valid IOB2).

    `marginals` is the (N, num_tags) posterior matrix that `tag` returns,
    with columns in `schema`'s tag order. A chunk's confidence aggregates
    each token's probability of its assigned tag: the minimum by default (a
    chunk is wrong if any token is), or the geometric mean. Without
    marginals every confidence is 1.
    """
    if len(tag_sequence) != len(sentence):
        raise ValidationError("tag sequence length does not match sentence")
    violations = validate_iob(tag_sequence, "IOB2")
    if violations:
        idx, reason = violations[0]
        raise ValidationError(f"invalid IOB2 sequence at index {idx}: {reason}")

    probs: np.ndarray | None = None
    if marginals is not None:
        cols = [schema.tag_to_index[t] for t in tag_sequence]
        probs = marginals[np.arange(len(tag_sequence)), cols]

    chunks = []
    for first, last, etype in iob_spans(tag_sequence, "IOB2"):
        if probs is None:
            confidence = 1.0
        elif confidence_mode == "min":
            confidence = float(np.min(probs[first : last + 1]))
        else:
            confidence = float(np.exp(np.mean(np.log(np.maximum(probs[first : last + 1], 1e-300)))))
        tokens = sentence.tokens[first : last + 1]
        chunks.append(
            Chunk(
                entity_type=etype,
                token_span=(first, last),
                begin=tokens[0].begin,
                end=tokens[-1].end,
                surface=" ".join(t.surface for t in tokens),
                confidence=min(confidence, 1.0),
                sent_index=sentence.sent_index,
            )
        )
    return chunks


RECORD_HEADER = "# sent\tbegin\tend\tsurface\tentity\tconfidence"


def write_chunk_records(chunks: list[Chunk]) -> str:
    """Line-delimited records: sentence, offsets, surface, type, confidence.

    Confidence is rounded to two decimals, matching the report layout.
    """
    lines = [RECORD_HEADER]
    for c in chunks:
        lines.append(
            f"{c.sent_index}\t{c.begin}\t{c.end}\t{c.surface}\t{c.entity_type}\t{c.confidence:.2f}"
        )
    return "\n".join(lines) + "\n"


def parse_chunk_records(text: str) -> list[Chunk]:
    chunks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ParseError(f"expected 6 tab-separated fields, found {len(parts)}", line=lineno)
        try:
            chunks.append(
                Chunk(
                    entity_type=parts[4],
                    token_span=None,
                    begin=int(parts[1]),
                    end=int(parts[2]),
                    surface=parts[3],
                    confidence=float(parts[5]),
                    sent_index=int(parts[0]),
                )
            )
        except (ValueError, ValidationError) as exc:
            raise ParseError(f"bad chunk record: {exc}", line=lineno)
    return chunks
