"""Output checks computed apart from medner: the benchmark's own parsers,
span matcher and replay of the replacement log. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import PHI_TYPES, Document

F1_FLOOR = 0.95


def read_chunks(path: Path) -> list[tuple[int, int, str, str, float]]:
    """chunks.tsv rows as (begin, end, surface, entity type, confidence)."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        _sent, begin, end, surface, etype, conf = line.split("\t")
        rows.append((int(begin), int(end), surface, etype, float(conf)))
    return rows


def micro_f1(gold: set, pred: set) -> float:
    if not gold and not pred:
        return 1.0
    return 2 * len(gold & pred) / (len(gold) + len(pred))


def check_chunks(doc: Document, chunks_path: Path) -> tuple[float, list[str]]:
    """Entity micro-F1 against the generator's truth, plus per-record checks:
    the surface equals the text at its offsets and the confidence lies in
    [0, 1]."""
    problems = []
    rows = read_chunks(chunks_path)
    for begin, end, surface, etype, conf in rows:
        if doc.text[begin:end + 1] != surface:
            problems.append(f"{chunks_path.name}: surface {surface!r} is not the text "
                            f"at [{begin}, {end}] ({doc.text[begin:end + 1]!r})")
        if not 0.0 <= conf <= 1.0:
            problems.append(f"{chunks_path.name}: confidence {conf} outside [0, 1]")
    gold = {(s.begin, s.end, s.entity_type) for s in doc.spans}
    f1 = micro_f1(gold, {(b, e, t) for b, e, _s, t, _c in rows})
    if f1 < F1_FLOOR:
        problems.append(f"{chunks_path.name}: entity micro-F1 {f1:.4f} below {F1_FLOOR}")
    return f1, problems


def check_deid(note: Document, out_dir: Path) -> tuple[list[str], list]:
    """(problems, surviving PHI spans) for one de-identified note.

    The replay rebuilds the note from deidentified.txt and the replacement
    log; every record's original must equal the note at its offsets and be
    replaced by "<TYPE>". A truth PHI span survives when any of its
    non-space characters lies outside every replaced range.
    """
    problems = []
    deidentified = (out_dir / "deidentified.txt").read_text(encoding="utf-8")
    records = [json.loads(line) for line in
               (out_dir / "replacements.log").read_text(encoding="utf-8").splitlines() if line]
    pieces, cursor, shift = [], 0, 0
    replaced = [False] * len(note.text)
    for rec in records:
        begin, end, original = rec["begin"], rec["end"], rec["original"]
        if note.text[begin:end + 1] != original:
            problems.append(f"record original {original!r} is not the note at [{begin}, {end}]")
        expected = "<" + rec["entity_type"].upper().replace(" ", "") + ">"
        if rec["replacement"] != expected:
            problems.append(f"replacement {rec['replacement']!r} is not {expected!r}")
        start = begin + shift
        stop = start + len(rec["replacement"])
        if start < cursor or deidentified[start:stop] != rec["replacement"]:
            problems.append(f"replacement log does not match the output at [{begin}, {end}]")
            break
        pieces.append(deidentified[cursor:start])
        pieces.append(original)
        cursor = stop
        shift += len(rec["replacement"]) - (end - begin + 1)
        for k in range(begin, min(end + 1, len(replaced))):
            replaced[k] = True
    else:
        pieces.append(deidentified[cursor:])
        if "".join(pieces) != note.text:
            problems.append("replaying the replacement log does not rebuild the note")
    surviving = [
        span for span in note.spans
        if span.entity_type in PHI_TYPES and any(
            not replaced[k] and not note.text[k].isspace()
            for k in range(span.begin, span.end + 1))
    ]
    return problems, surviving
