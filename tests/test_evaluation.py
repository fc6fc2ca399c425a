from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_sentence
from medner.errors import ValidationError
from medner.evaluation import (
    Counts,
    EvalReport,
    entity_match_counts,
    macro_f1,
    micro_f1,
    tag_report,
    token_accuracy,
)


def brute_force_counts(gold_spans, pred_spans):
    """Independent recount from scratch with multiset matching."""
    counts = {}
    for gold, pred in zip(gold_spans, pred_spans):
        gold_left = list(gold)
        for p in pred:
            c = counts.setdefault(p[2], [0, 0, 0])
            if p in gold_left:
                gold_left.remove(p)
                c[0] += 1
            else:
                c[1] += 1
        for g in gold_left:
            counts.setdefault(g[2], [0, 0, 0])[2] += 1
    return counts


def brute_force_micro(gold_spans, pred_spans):
    c = brute_force_counts(gold_spans, pred_spans)
    tp = sum(v[0] for v in c.values())
    fp = sum(v[1] for v in c.values())
    fn = sum(v[2] for v in c.values())
    if tp == 0:
        return 0.0
    p = Fraction(tp, tp + fp)
    r = Fraction(tp, tp + fn)
    return float(2 * p * r / (p + r))


class TestEntityCounts:
    def test_perfect(self):
        spans = [[(0, 1, "X"), (3, 3, "Y")]]
        counts = entity_match_counts(spans, spans)
        assert all(c.fp == 0 and c.fn == 0 for c in counts.values())
        assert counts["X"].tp == 1 and counts["Y"].tp == 1

    def test_empty_prediction(self):
        counts = entity_match_counts([[(0, 0, "X"), (2, 2, "X")]], [[]])
        assert counts["X"].tp == 0
        assert counts["X"].fn == 2

    def test_hand_counted(self):
        gold = [[(0, 0, "X"), (2, 3, "X"), (5, 5, "X"), (7, 8, "X")]]
        pred = [[(0, 0, "X"), (2, 3, "X"), (6, 6, "X")]]
        counts = entity_match_counts(gold, pred)
        assert (counts["X"].tp, counts["X"].fp, counts["X"].fn) == (2, 1, 2)

    def test_duplicate_prediction_is_fp(self):
        gold = [[(0, 0, "X")]]
        pred = [[(0, 0, "X"), (0, 0, "X")]]
        counts = entity_match_counts(gold, pred)
        assert (counts["X"].tp, counts["X"].fp) == (1, 1)

    def test_alignment_required(self):
        with pytest.raises(ValidationError):
            entity_match_counts([[]], [[], []])

    def test_sentence_locality(self):
        # same span in a different sentence must not match
        counts = entity_match_counts([[(0, 0, "X")], []], [[], [(0, 0, "X")]])
        assert counts["X"].tp == 0
        assert counts["X"].fp == 1
        assert counts["X"].fn == 1


class TestAggregates:
    def fixture_counts(self):
        return {"A": Counts(2, 1, 2), "B": Counts(1, 0, 0)}

    def test_documented_fixture(self):
        counts = self.fixture_counts()
        assert macro_f1(counts) == pytest.approx(11 / 14)
        assert micro_f1(counts) == pytest.approx(2 / 3)

    def test_single_perfect_type(self):
        counts = {"A": Counts(3, 0, 0)}
        assert micro_f1(counts) == 1.0
        assert macro_f1(counts) == 1.0

    def test_zero_type_scores_zero(self):
        counts = {"A": Counts(0, 0, 3)}
        assert macro_f1(counts) == 0.0
        assert micro_f1(counts) == 0.0

    def test_macro_excludes_absent_types(self):
        counts = {"A": Counts(1, 0, 0), "Pad": Counts(0, 0, 0)}
        assert macro_f1(counts) == 1.0

    def test_macro_between_min_and_max(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = {
                f"T{i}": Counts(int(rng.integers(0, 5)), int(rng.integers(0, 5)),
                                int(rng.integers(0, 5)))
                for i in range(int(rng.integers(1, 6)))
            }
            scored = [c.f1 for c in counts.values() if c.tp or c.fp or c.fn]
            if not scored:
                continue
            assert min(scored) - 1e-12 <= macro_f1(counts) <= max(scored) + 1e-12

    def test_swap_exchanges_precision_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            gold, pred = [], []
            for _ in range(4):
                g = [(int(i), int(i), "X") for i in rng.choice(10, size=rng.integers(0, 4), replace=False)]
                p = [(int(i), int(i), "X") for i in rng.choice(10, size=rng.integers(0, 4), replace=False)]
                gold.append(g)
                pred.append(p)
            a = entity_match_counts(gold, pred)
            b = entity_match_counts(pred, gold)
            for etype in set(a) | set(b):
                ca = a.get(etype, Counts())
                cb = b.get(etype, Counts())
                assert ca.precision == pytest.approx(cb.recall)
                assert ca.recall == pytest.approx(cb.precision)
                assert ca.f1 == pytest.approx(cb.f1)

    def test_micro_matches_brute_force_recount(self):
        rng = np.random.default_rng(2)
        types = ["A", "B", "C"]
        for _ in range(100):
            gold, pred = [], []
            for _ in range(int(rng.integers(1, 6))):
                def random_spans():
                    spans = []
                    for _ in range(int(rng.integers(0, 4))):
                        start = int(rng.integers(0, 8))
                        spans.append((start, start + int(rng.integers(0, 3)),
                                      types[int(rng.integers(len(types)))]))
                    return spans

                gold.append(random_spans())
                pred.append(random_spans())
            counts = entity_match_counts(gold, pred)
            assert micro_f1(counts) == pytest.approx(brute_force_micro(gold, pred), abs=1e-12)
            brute = brute_force_counts(gold, pred)
            assert {k: (v.tp, v.fp, v.fn) for k, v in counts.items()} == {
                k: tuple(v) for k, v in brute.items()
            }


class TestTagReport:
    def test_identical(self):
        tags = ["B-X", "I-X", "O", "B-Y"]
        report = tag_report(tags, tags)
        assert set(report) == {"B-X", "I-X", "B-Y"}
        for counts in report.values():
            assert counts.precision == counts.recall == counts.f1 == 1.0

    def test_all_outside_empty(self):
        assert tag_report(["O", "O"], ["O", "O"]) == {}

    def test_hand_counted(self):
        gold = ["B-X", "I-X", "O", "B-X"]
        pred = ["B-X", "O", "O", "B-X"]
        report = tag_report(gold, pred)
        assert report["B-X"].precision == 1.0
        assert report["B-X"].recall == 1.0
        assert report["I-X"].precision == 0.0
        assert report["I-X"].recall == 0.0

    def test_exact_counts(self):
        # a right tag, a wrong entity tag, an entity tag where gold has O and
        # an O where gold has an entity tag
        gold = ["B-X", "I-X", "O", "B-Y", "B-X"]
        pred = ["B-X", "B-Y", "B-X", "B-Y", "O"]
        report = tag_report(gold, pred)
        assert {t: (c.tp, c.fp, c.fn) for t, c in report.items()} == {
            "B-X": (1, 1, 1), "I-X": (0, 0, 1), "B-Y": (1, 1, 0),
        }

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            tag_report(["O"], ["O", "O"])


class TestTokenAccuracy:
    def test_identical(self):
        assert token_accuracy(["O", "B-X"], ["O", "B-X"]) == 1.0

    def test_disjoint(self):
        assert token_accuracy(["O", "O"], ["B-X", "B-Y"]) == 0.0

    def test_three_quarters(self):
        assert token_accuracy(["O"] * 4, ["O", "O", "O", "B-X"]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            token_accuracy(["O"], [])


class TestReport:
    def test_build_and_render(self):
        gold = [make_sentence(["a", "b", "c", "d"], ["B-A", "O", "B-A", "I-A"]),
                make_sentence(["e", "f"], ["O", "B-B"], idx=1)]
        pred = [gold[0].with_tags(["B-A", "O", "O", "O"]), gold[1]]
        report = EvalReport.from_sentences(gold, pred)
        assert report.per_type["A"].tp == 1
        assert report.token_accuracy == pytest.approx(4 / 6)
        table = report.tag_table()
        assert "prec." in table and "B-A" in table
        d = report.to_dict()
        assert set(d) == {"per_type", "micro_f1", "macro_f1", "token_accuracy", "per_tag"}
