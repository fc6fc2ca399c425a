#!/usr/bin/env python3
"""End-to-end benchmark of the medner CLI, with an optional traced run.

    python3 perfbench/run.py --workload {train,tag-bulk,deid-notes} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a medner source tree. Each workload generates its inputs
(the documents it tags from --seed, the training corpus from a fixed seed),
sets up (input generation, plus `medner train` for the workloads that need a
model) SETUP_REPEATS times, then drives `medner.cli.main` in
process, one call after another, in whole rounds until --seconds have passed.
It checks every output and prints, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1. A full
record of the run goes to perfbench/results/.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("train", "tag-bulk", "deid-notes")
SETUP_REPEATS = 2
N_TRAIN, N_VAL, N_HELDOUT = 160, 60, 200
EPOCHS = 2
N_BULK = 2000
N_NOTES, LONG_EVERY = 200, 100
# Workloads other than deid-notes de-identify fixed probe notes in two passes
# and keep each note's faster call: on this shared machine, short bursts of
# slow calls otherwise set the tail of so few samples.
N_PROBE_NOTES, PROBE_PASSES = 60, 2
MAX_SEQ_LENGTH = 512  # medner's default, which the benchmark does not change

# The paper's dimensions (char 128, 25 filters of width 2, LSTM 200) with
# 100-d word vectors. With batch 1 and a 100-step warmup, two epochs over the
# fixed 200-sentence corpus learn every entity type (validation F1 1.0).
# Patience above the epoch count keeps early stopping from ending a run early.
TRAIN_FLAGS = (
    "--embed-dim", "100", "--char-dim", "128", "--num-filters", "25",
    "--kernel-width", "2", "--lstm-size", "200",
    "--learning-rate", "3e-3", "--batch-size", "1", "--warmup-steps", "100",
    "--dropout", "0.1", "--max-epochs", str(EPOCHS), "--patience", str(EPOCHS + 1),
    "--seed", "42",
)

TRUNCATION_FAULT = (
    f"medner.cli.ingest_raw_text truncates sentences longer than max_seq_length="
    f"{MAX_SEQ_LENGTH} with only a warning, so PHI past token {MAX_SEQ_LENGTH} is never "
    f"tagged and survives de-identification"
)

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "train_tokens_per_s": "tokens/s",
    "model_mb": "MB", "predict_tokens_per_s": "tokens/s",
    "deid_note_p50_ms": "ms", "deid_note_p95_ms": "ms",
}


class CommandFailed(RuntimeError):
    pass


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        from medner import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.setup_times: list[float] = []
        self.setup_train_tps: list[float] = []
        self.op_values: dict[str, list[float]] = {}
        self.f1: dict[str, float] = {}
        self.failed_notes = 0
        self.model: Path | None = None  # the container that predict and deidentify read

    # -- helpers ---------------------------------------------------------

    def medner(self, *args: str) -> float:
        """Run one CLI command in process; its wall time in seconds."""
        start = time.perf_counter()
        code = self.cli.main(list(args))
        elapsed = time.perf_counter() - start
        if code != 0:
            raise CommandFailed(f"medner {args[0]} exited with code {code}")
        return elapsed

    def record(self, metric: str, value: float) -> None:
        self.op_values.setdefault(metric, []).append(value)

    def train(self, d: Path, out: Path) -> tuple[float, Path]:
        """One `medner train`; returns its wall time and the model path."""
        elapsed = self.medner(
            "train", "--train", str(d / "train.tsv"), "--val", str(d / "val.tsv"),
            "--embeddings", str(d / "vectors.txt"), "--out-dir", str(out), *TRAIN_FLAGS)
        lines = (out / "metrics.log").read_text(encoding="utf-8").splitlines()
        if len(lines) != EPOCHS:
            self.problems.append(f"{out.name}/metrics.log has {len(lines)} lines, "
                                 f"expected one per epoch ({EPOCHS})")
        return elapsed, out / "model.medner"

    # -- set-up ----------------------------------------------------------

    def make_inputs(self, d: Path) -> None:
        d.mkdir(parents=True)
        fixed = inputs.Generator(inputs.TRAINING_SEED)
        self.train_tokens = inputs.write_tsv2(fixed.training_sentences(N_TRAIN), d / "train.tsv")
        inputs.write_tsv2(fixed.sentences(N_VAL), d / "val.tsv")
        words = fixed.embedding_words()
        inputs.write_embeddings(words, fixed.embedding_matrix(words), d / "vectors.txt")
        gen = inputs.Generator(self.seed)
        self.heldout = inputs.render(gen.sentences(N_HELDOUT))
        (d / "heldout.txt").write_text(self.heldout.text, encoding="utf-8")
        if self.workload == "tag-bulk":
            self.bulk = inputs.render(gen.sentences(N_BULK))
            (d / "bulk.txt").write_text(self.bulk.text, encoding="utf-8")
        if self.workload == "deid-notes":
            self.notes = inputs.notes(gen, N_NOTES, LONG_EVERY)
        else:
            self.notes = inputs.notes(inputs.Generator(inputs.PROBE_SEED), N_PROBE_NOTES)
        (d / "notes").mkdir()
        for k, note in enumerate(self.notes):
            (d / "notes" / f"{k:03d}.txt").write_text(note.text, encoding="utf-8")

    def setup(self) -> None:
        """Set up SETUP_REPEATS times from scratch; keep the last one."""
        model_hashes = set()
        for rep in range(SETUP_REPEATS):
            d = self.work / f"setup-{rep}"
            start = time.perf_counter()
            self.make_inputs(d)
            if self.workload != "train":
                elapsed, self.model = self.train(d, d / "model")
                self.setup_train_tps.append(self.train_tokens * EPOCHS / elapsed)
                model_hashes.add(sha256(self.model))
            self.setup_times.append(time.perf_counter() - start)
            if rep:
                shutil.rmtree(self.work / f"setup-{rep - 1}")
            self.inputs = d
        if len(model_hashes) > 1:
            self.problems.append("set-up trainings on the same inputs wrote different models")

    # -- timed rounds ----------------------------------------------------

    def round_train(self, r: int) -> None:
        for rep in range(2):
            out = self.work / f"train-{r}-{rep}"
            elapsed, model = self.train(self.inputs, out)
            self.attempted += 1
            self.record("train_tokens_per_s", self.train_tokens * EPOCHS / elapsed)
            digest = sha256(model)
            if self.model is None:
                self.model, self.model_digest = self.work / "model.medner", digest
                shutil.copyfile(model, self.model)
            elif digest != self.model_digest:
                self.problems.append(f"train-{r}-{rep} wrote a model that differs from "
                                     "the first one on the same inputs and seed")
            shutil.rmtree(out)

    def predict(self, doc: inputs.Document, name: str, calls: int) -> list[float]:
        """`calls` predictions of one document; tokens/s of each. Every output
        is checked, and all must be identical."""
        rates, outputs = [], set()
        for k in range(calls):
            out = self.work / f"{name}-{k}"
            elapsed = self.medner("predict", "--model", str(self.model),
                                  "--input", str(self.inputs / f"{name}.txt"),
                                  "--out-dir", str(out))
            rates.append(doc.num_tokens / elapsed)
            self.f1[name], problems = checks.check_chunks(doc, out / "chunks.tsv")
            self.problems.extend(problems)
            outputs.add((out / "chunks.tsv").read_bytes())
            shutil.rmtree(out)
        if len(outputs) > 1:
            self.problems.append(f"predictions of {name}.txt differ between calls")
        return rates

    def round_tag_bulk(self, r: int) -> None:
        for rate in self.predict(self.bulk, "bulk", 2):
            self.attempted += 1
            self.record("predict_tokens_per_s", rate)

    def deid_notes(self, latencies: list[float], count_failures: bool) -> None:
        for k, note in enumerate(self.notes):
            out = self.work / "deid" / f"{k:03d}"
            elapsed = self.medner("deidentify", "--model", str(self.model),
                                  "--input", str(self.inputs / "notes" / f"{k:03d}.txt"),
                                  "--out-dir", str(out))
            latencies.append(elapsed * 1000.0)
            problems, surviving = checks.check_deid(note, out)
            self.problems.extend(f"note {k:03d}: {p}" for p in problems)
            if not surviving:
                continue
            where = ", ".join(f"{s.entity_type}@{s.begin} (token {s.token})" for s in surviving)
            if not count_failures:
                self.problems.append(f"note {k:03d}: PHI survives de-identification: {where}")
                continue
            self.failed_notes += 1
            cause = (TRUNCATION_FAULT if all(s.token >= MAX_SEQ_LENGTH for s in surviving)
                     else "the model missed it")
            self.failures.append(f"note {k:03d}: PHI survives ({where}): {cause}")

    def round_deid_notes(self, r: int) -> None:
        latencies: list[float] = []
        self.deid_notes(latencies, count_failures=True)
        self.attempted += len(self.notes)
        self.op_values.setdefault("deid_note_ms", []).extend(latencies)

    def timed(self, seconds: float) -> int:
        """Whole rounds until `seconds` have passed; returns the round count."""
        one_round = {"train": self.round_train, "tag-bulk": self.round_tag_bulk,
                     "deid-notes": self.round_deid_notes}[self.workload]
        rounds = 0
        start = time.perf_counter()
        while True:
            one_round(rounds)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds

    # -- checks and secondary measurements, untimed --------------------

    def finish(self) -> dict[str, float]:
        """Secondary measurements, then every end-to-end metric."""
        if self.workload in ("train", "deid-notes"):
            predict_tps = self.predict(self.heldout, "heldout", 3)
        else:
            predict_tps = self.op_values["predict_tokens_per_s"]
        if self.workload == "deid-notes":
            note_ms = self.op_values["deid_note_ms"]
        else:
            passes: list[list[float]] = [[] for _ in range(PROBE_PASSES)]
            for latencies in passes:
                self.deid_notes(latencies, count_failures=False)
            note_ms = [min(calls) for calls in zip(*passes)]
        train_tps = (self.op_values["train_tokens_per_s"] if self.workload == "train"
                     else self.setup_train_tps)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": rss_kib * 1024 / 1e6,
            "train_tokens_per_s": statistics.median(train_tps),
            "model_mb": self.model.stat().st_size / 1e6,
            "predict_tokens_per_s": statistics.median(predict_tps),
            "deid_note_p50_ms": statistics.median(note_ms),
            "deid_note_p95_ms": statistics.quantiles(note_ms, n=20, method="inclusive")[18],
        }


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cores_usable": len(os.sched_getaffinity(0)),
        "cores_total": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "medner" / "cli.py").is_file():
        log(f"no medner source tree at {SRC}; run from the root of a medner checkout")
        return 2
    sys.path.insert(0, str(SRC))

    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    # A traced run traces everything the untraced run measures: set-up, the
    # timed rounds and the checking phase.
    tracer = Tracer() if args.trace else None
    bench = Bench(args.workload, args.seed, work)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            log(f"{args.workload} seed={args.seed}: set-up x{SETUP_REPEATS}"
                + (" (traced)" if tracer else ""))
            bench.setup()
            log(f"{args.workload}: timed rounds for {args.seconds:g} s")
            rounds = bench.timed(args.seconds)
            e2e = bench.finish()
            wall = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if (BENCH_DIR / "work").is_dir() and not any((BENCH_DIR / "work").iterdir()):
            (BENCH_DIR / "work").rmdir()

    failed = bench.failed_notes
    for line in bench.failures:
        log(f"FAILED {line}")
    for line in bench.problems:
        log(f"CHECK {line}")
    if tracer is not None:
        metrics = layer_metrics(tracer, wall)
        if tracer.absent:
            log("absent layers (not traced): " + "; ".join(tracer.absent))
    else:
        metrics = {name: (value, E2E_UNITS[name]) for name, value in e2e.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "wall_s": wall,
        "attempted": bench.attempted, "failed": failed,
        "failures": bench.failures, "problems": bench.problems,
        "correct": not bench.problems,
        "entity_f1": bench.f1,
        "end_to_end": e2e, "setup_times_s": bench.setup_times,
        "op_values": bench.op_values, "environment": environment(),
    }
    if tracer is not None:
        record["per_layer"] = {name: value for name, (value, _unit) in metrics.items()}
        record["absent_layers"] = tracer.absent
        tracer.write_spans(results / f"{tag}.spans.tsv")
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
