"""Entity-level and tag-level scoring.

Entity scoring uses exact (type, token span) matching per sentence with
multiset semantics: each gold chunk can satisfy at most one prediction, and
duplicate predictions over the same gold chunk count as false positives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .corpus import Sentence, iob_spans, split_tag
from .errors import ValidationError

Span = tuple[int, int, str]  # (first token index, last token index, entity type)


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def entity_match_counts(
    gold_spans: list[list[Span]], pred_spans: list[list[Span]]
) -> dict[str, Counts]:
    """Per-type TP/FP/FN over aligned per-sentence span lists."""
    if len(gold_spans) != len(pred_spans):
        raise ValidationError(
            f"gold has {len(gold_spans)} sentences, predictions {len(pred_spans)}"
        )
    counts: dict[str, Counts] = {}

    def bucket(etype: str) -> Counts:
        return counts.setdefault(etype, Counts())

    for gold, pred in zip(gold_spans, pred_spans):
        remaining = Counter(gold)
        for span in pred:
            etype = span[2]
            if remaining[span] > 0:
                remaining[span] -= 1
                bucket(etype).tp += 1
            else:
                bucket(etype).fp += 1
        for span, left in remaining.items():
            bucket(span[2]).fn += left
    return counts


def micro_f1(counts: dict[str, Counts]) -> float:
    """F1 of TP/FP/FN pooled across all entity types."""
    pooled = Counts(
        sum(c.tp for c in counts.values()),
        sum(c.fp for c in counts.values()),
        sum(c.fn for c in counts.values()),
    )
    return pooled.f1


def macro_f1(counts: dict[str, Counts]) -> float:
    """Arithmetic mean of per-type F1; types absent from both sides are skipped."""
    scored = [c.f1 for c in counts.values() if c.tp or c.fp or c.fn]
    return sum(scored) / len(scored) if scored else 0.0


def _check_aligned(gold_tags: list[str], pred_tags: list[str]) -> None:
    if len(gold_tags) != len(pred_tags):
        raise ValidationError(
            f"tag sequences differ in length: {len(gold_tags)} vs {len(pred_tags)}"
        )


def token_accuracy(gold_tags: list[str], pred_tags: list[str]) -> float:
    """Fraction of positions whose tags match exactly; empty input counts as 1."""
    _check_aligned(gold_tags, pred_tags)
    if not gold_tags:
        return 1.0
    hits = sum(1 for g, p in zip(gold_tags, pred_tags) if g == p)
    return hits / len(gold_tags)


def tag_report(gold_tags: list[str], pred_tags: list[str]) -> dict[str, Counts]:
    """Token-level multi-class P/R/F1 per IOB tag (B-/I- scored separately).

    'O' is excluded, so two all-O sequences yield an empty report.
    """
    _check_aligned(gold_tags, pred_tags)
    counts: dict[str, Counts] = {}

    def bucket(tag: str) -> Counts:
        return counts.setdefault(tag, Counts())

    for g, p in zip(gold_tags, pred_tags):
        split_tag(g), split_tag(p)  # reject malformed tags
        if g == p:
            if g != "O":
                bucket(g).tp += 1
            continue
        if p != "O":
            bucket(p).fp += 1
        if g != "O":
            bucket(g).fn += 1
    return counts


@dataclass
class EvalReport:
    """Per-type entity scores plus aggregate metrics and the per-tag table."""

    per_type: dict[str, Counts]
    micro_f1: float
    macro_f1: float
    token_accuracy: float
    per_tag: dict[str, Counts] = field(default_factory=dict)

    @classmethod
    def from_sentences(cls, gold: list[Sentence], pred: list[Sentence]) -> "EvalReport":
        """Score predicted sentences against gold ones aligned one to one:
        equal sentence counts, equal token counts per pair, IOB2 tags."""
        if len(gold) != len(pred):
            raise ValidationError(
                f"gold has {len(gold)} sentences but predictions have {len(pred)}"
            )
        for g, p in zip(gold, pred):
            if len(g) != len(p):
                raise ValidationError(
                    f"sentence {g.doc_id}[{g.sent_index}] has {len(g)} tokens in gold "
                    f"but {len(p)} in predictions"
                )
        gold_tags = [s.tags() for s in gold]
        pred_tags = [s.tags() for s in pred]
        counts = entity_match_counts([iob_spans(t) for t in gold_tags],
                                     [iob_spans(t) for t in pred_tags])
        gold_flat = [t for tags in gold_tags for t in tags]
        pred_flat = [t for tags in pred_tags for t in tags]
        return cls(
            per_type=counts,
            micro_f1=micro_f1(counts),
            macro_f1=macro_f1(counts),
            token_accuracy=token_accuracy(gold_flat, pred_flat),
            per_tag=tag_report(gold_flat, pred_flat),
        )

    def to_dict(self) -> dict:
        return {
            "per_type": {
                k: {"tp": c.tp, "fp": c.fp, "fn": c.fn,
                    "precision": c.precision, "recall": c.recall, "f1": c.f1}
                for k, c in sorted(self.per_type.items())
            },
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "token_accuracy": self.token_accuracy,
            "per_tag": {
                k: {"precision": c.precision, "recall": c.recall, "f1": c.f1}
                for k, c in sorted(self.per_tag.items())
            },
        }

    def tag_table(self) -> str:
        """Aligned text table: one row per IOB tag with prec., recall, F1."""
        rows = [("Entity tagging", "prec.", "recall", "F1-score")]
        for tag in sorted(self.per_tag):
            c = self.per_tag[tag]
            rows.append((tag, f"{c.precision:.2f}", f"{c.recall:.2f}", f"{c.f1:.2f}"))
        width = max(len(r[0]) for r in rows) + 2
        return "\n".join(
            f"{r[0]:<{width}}{r[1]:>7}{r[2]:>8}{r[3]:>10}" for r in rows
        )

    def summary(self) -> str:
        lines = [
            f"entity micro-F1:  {self.micro_f1:.4f}",
            f"entity macro-F1:  {self.macro_f1:.4f}",
            f"token accuracy:   {self.token_accuracy:.4f}",
            "",
            "per-type entity scores:",
        ]
        for etype in sorted(self.per_type):
            c = self.per_type[etype]
            lines.append(
                f"  {etype}: TP={c.tp} FP={c.fp} FN={c.fn} "
                f"P={c.precision:.4f} R={c.recall:.4f} F1={c.f1:.4f}"
            )
        lines.append("")
        lines.append(self.tag_table())
        return "\n".join(lines)
