#!/usr/bin/env python3
"""Summarise the run records in perfbench/results/.

    python3 perfbench/report.py [--seeds 1,2,3]

For each workload it prints every end-to-end metric of the untraced runs as
median, quartiles and spread (the distance between the quartiles as a share
of the median), with the share of failed operations. Where a traced run and
an untraced run share a seed, it also prints the tracing overhead: how much
slower the traced run's timed operations were.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
# The metric each workload's timed operations set, for the tracing overhead.
PRIMARY = {"train": "train_tokens_per_s", "tag-bulk": "predict_tokens_per_s",
           "deid-notes": "deid_note_p50_ms"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", help="comma-separated seeds to include (default all)")
    args = parser.parse_args()
    seeds = {int(s) for s in args.seeds.split(",")} if args.seeds else None

    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(RESULTS.glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if seeds is None or rec["seed"] in seeds:
            runs[(rec["workload"], rec["trace"])][rec["seed"]] = rec

    for workload in PRIMARY:
        plain = runs.get((workload, 0), {})
        if not plain:
            continue
        recs = list(plain.values())
        failed = {(r["failed"], r["attempted"]) for r in recs}
        print(f"\n{workload}: {len(recs)} runs, seeds {sorted(plain)}, "
              f"correct {all(r['correct'] for r in recs)}, failed/attempted {sorted(failed)}")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for metric in recs[0]["end_to_end"]:
            q1, med, q3 = quartiles([r["end_to_end"][metric] for r in recs])
            print(f"  {metric:24} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.2%}")
        traced = runs.get((workload, 1), {})
        metric = PRIMARY[workload]
        pairs = [(plain[s]["end_to_end"][metric], traced[s]["end_to_end"][metric])
                 for s in sorted(set(plain) & set(traced))]
        if pairs:
            # tokens/s falls under tracing, latency rises: both read as slowdown
            ratios = [(u / t if metric.endswith("_per_s") else t / u) for u, t in pairs]
            print(f"  tracing overhead on {metric}: {statistics.median(ratios) - 1:+.1%} "
                  f"(median of {len(pairs)} seed pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
