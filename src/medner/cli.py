"""Single executable wiring the pipeline stages as subcommands:
train, predict, evaluate, deidentify, convert.

Options resolve in three layers: built-in defaults, then a flat key=value
config file (--config), then command-line flags. Every TrainConfig field is
available under its own name in both the file and the flag set. A config
file key must name an option of some subcommand; any other key is a parse
error, so a misspelt setting is not silently ignored.

Exit codes: 0 success, 1 failed --min-micro-f1 gate, 2 usage, 3 parse
errors, 4 validation/schema/model-format errors, 5 numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import chunking, deid, evaluation
from .corpus import (
    DEFAULT_ABBREVIATIONS,
    FORMATS,
    Corpus,
    LabelSchema,
    Sentence,
    build_vocab,
    convert_scheme,
    parse_conll,
    sentence_split,
    split_corpus,
    tokenize,
    write_conll,
)
from .embeddings import OOV_POLICIES, load_embeddings
from .errors import (
    ModelFormatError,
    NumericError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .nercore.model import ModelParams, TrainConfig, init_model, tag
from .nercore.serialize import load_model, save_model
from .nercore.training import evaluate, fit, grid_search

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_GATE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VALIDATION = 4
EXIT_NUMERIC = 5

_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def read_text(path: str) -> str:
    """A file's UTF-8 text, newlines translated as Path.read_text does; bytes
    that are not UTF-8 raise ParseError with the path and byte offset."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_config_file(path: str) -> dict[str, tuple[str, int]]:
    """key -> (value, line number) of a flat key=value file. A key that is
    no subcommand's option name raises ParseError with its line."""
    known = _option_names()
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=lineno)
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in known:
            raise ParseError(f"unknown key {key!r}: no subcommand has this option", line=lineno)
        values[key] = (value, lineno)
    return values


def _option_names() -> set[str]:
    """The option names (argparse dests) of every subcommand."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}


def _coerce(value: str, kind: str, lineno: int):
    """A config or grid file value as its field's type; ParseError names the
    line of a value that is not one."""
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError:
        raise ParseError(f"expected {kind}, got {value!r}", line=lineno) from None
    if kind == "bool":
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ParseError(f"expected bool, got {value!r}", line=lineno)
    return value


class UsageError(ValidationError):
    """Missing or contradictory invocation options (exit code 2)."""


# non-TrainConfig keys the config file may supply
_EXTRA_KINDS = {"min_confidence": "float", "min_count": "int", "min_micro_f1": "float"}


class Options:
    """Flag > config file > default resolution for one invocation.

    Every key usable in the flat config file carries the same name as its
    command-line flag (with underscores); flags win.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file_values = read_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default=None):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.file_values:
            kind = _CONFIG_FIELDS.get(name) or _EXTRA_KINDS.get(name, "str")
            value, lineno = self.file_values[name]
            return _coerce(value, kind, lineno)
        return default

    def require(self, name: str):
        value = self.get(name)
        if value is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")
        return value

    def corpus_format(self):
        fmt = self.get("format", "tsv2")
        if fmt not in FORMATS:
            raise UsageError(f"unknown corpus format {fmt!r}, expected one of {sorted(FORMATS)}")
        return fmt

    def scheme(self):
        scheme = self.get("scheme", "IOB2")
        if scheme not in ("IOB1", "IOB2"):
            raise UsageError(f"unknown scheme {scheme!r}")
        return scheme

    def train_config(self) -> TrainConfig:
        defaults = TrainConfig()
        kwargs = {}
        for field in dataclasses.fields(TrainConfig):
            kwargs[field.name] = self.get(field.name, getattr(defaults, field.name))
        return TrainConfig(**kwargs)


# what a TrainConfig field's flag has beyond --<field-name> and its type
_FLAG_EXTRAS = {
    "word_dim": {"help": "word embedding dimension (must match the table)"},
    "max_seq_length": {"help": "truncate longer --train sentences; other inputs keep every token"},
    "early_stopping_patience": {"aliases": ("--patience",)},
    "oov_policy": {"choices": OOV_POLICIES},
    "confidence_mode": {"choices": chunking.CONFIDENCE_MODES},
}


def add_train_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, in field order."""
    group = parser.add_argument_group("model and training options")
    for name, kind in _CONFIG_FIELDS.items():
        extra = dict(_FLAG_EXTRAS.get(name, {}))
        flags = ["--" + name.replace("_", "-"), *extra.pop("aliases", ())]
        if kind == "bool":
            extra["action"] = argparse.BooleanOptionalAction
        elif kind != "str":
            extra["type"] = {"int": int, "float": float}[kind]
        group.add_argument(*flags, dest=name, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medner",
        description="Biomedical NER pipeline: train, predict, evaluate, "
                    "de-identify, and convert corpora.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    # accepted either side of the subcommand; SUPPRESS keeps the subparser
    # from clobbering a root-level --verbose
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    # path and format options stay optional at the argparse level so a
    # --config file can supply them; Options.require reports what is missing
    p_train = sub.add_parser("train", parents=[common],
                             help="train a tagger and write the model container")
    p_train.add_argument("--config", help="flat key=value config file")
    p_train.add_argument("--train", help="training corpus file")
    p_train.add_argument("--val", help="validation corpus; default splits --train 70:15:15")
    p_train.add_argument("--format", choices=sorted(FORMATS))
    p_train.add_argument("--scheme", choices=("IOB1", "IOB2"),
                         help="tagging scheme of the input files (default IOB2)")
    p_train.add_argument("--schema", help="schema file (entity types + scheme line)")
    p_train.add_argument("--embeddings", help="word vector text file")
    p_train.add_argument("--embed-dim", dest="word_dim", type=int,
                         help="expected embedding dimension")
    p_train.add_argument("--min-count", type=int)
    p_train.add_argument("--grid", help="grid file: key = v1,v2,... per line")
    p_train.add_argument("--out-dir")
    add_train_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_predict = sub.add_parser("predict", parents=[common], help="tag text and emit chunk records")
    p_predict.add_argument("--config")
    p_predict.add_argument("--model")
    p_predict.add_argument("--input")
    p_predict.add_argument("--input-format", choices=("raw", "tsv2", "conll4"))
    p_predict.add_argument("--min-confidence", type=float)
    p_predict.add_argument("--abbreviations", help="extra abbreviation file, one per line")
    p_predict.add_argument("--out-dir")
    p_predict.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", parents=[common], help="score predictions against a gold corpus")
    p_eval.add_argument("--config")
    p_eval.add_argument("--gold")
    p_eval.add_argument("--pred", help="tagged corpus of predictions")
    p_eval.add_argument("--model", help="predict on the fly instead of --pred")
    p_eval.add_argument("--format", choices=sorted(FORMATS))
    p_eval.add_argument("--scheme", choices=("IOB1", "IOB2"))
    p_eval.add_argument("--min-micro-f1", type=float,
                        help="exit 1 when entity micro-F1 falls below this gate")
    p_eval.add_argument("--out-dir")
    p_eval.set_defaults(func=cmd_evaluate)

    p_deid = sub.add_parser("deidentify", parents=[common], help="mask or substitute protected chunks")
    p_deid.add_argument("--config")
    p_deid.add_argument("--input", help="raw text file")
    p_deid.add_argument("--chunks", help="chunk records with gold spans")
    p_deid.add_argument("--model", help="tag the input instead of --chunks")
    p_deid.add_argument("--policy", help="policy file; defaults to masking the PHIPA list")
    p_deid.add_argument("--seed", type=int)
    p_deid.add_argument("--abbreviations")
    p_deid.add_argument("--out-dir")
    p_deid.set_defaults(func=cmd_deidentify)

    p_convert = sub.add_parser("convert", parents=[common], help="convert corpus formats and IOB schemes")
    p_convert.add_argument("--input", required=True)
    p_convert.add_argument("--from", dest="from_format", required=True,
                           choices=("conll4", "tsv2", "chunk-records"))
    p_convert.add_argument("--to", dest="to_format", required=True,
                           choices=("conll4", "tsv2", "chunk-records"))
    p_convert.add_argument("--from-scheme", choices=("IOB1", "IOB2"), default="IOB2")
    p_convert.add_argument("--to-scheme", choices=("IOB1", "IOB2"), default="IOB2")
    p_convert.add_argument("--out", required=True)
    p_convert.set_defaults(func=cmd_convert)

    return parser


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_abbreviations(path: str | None) -> frozenset[str]:
    if not path:
        return DEFAULT_ABBREVIATIONS
    extra = {
        line.strip()
        for line in read_text(path).splitlines()
        if line.strip()
    }
    return DEFAULT_ABBREVIATIONS | extra


def ingest_raw_text(
    text: str, abbreviations: frozenset[str] = DEFAULT_ABBREVIATIONS
) -> list[Sentence]:
    """Sentence-split and tokenize raw text; offsets stay absolute and every
    token is kept, however long the sentence."""
    return [
        Sentence(tokenize(sent_text, base_offset=begin), "doc0", index)
        for index, (sent_text, begin, _end) in enumerate(sentence_split(text, abbreviations))
    ]


def _load_corpus(path: str, fmt: str, scheme: str, schema: LabelSchema | None,
                 max_seq_length: int | None = None) -> Corpus:
    return parse_conll(
        read_text(path), FORMATS[fmt], schema=schema, input_scheme=scheme,
        max_seq_length=max_seq_length,
    )


def cmd_train(args: argparse.Namespace) -> int:
    opts = Options(args)
    config = opts.train_config()
    out = _out_dir(opts.require("out_dir"))
    fmt = opts.corpus_format()
    scheme = opts.scheme()

    schema = None
    schema_path = opts.get("schema")
    if schema_path:
        schema = LabelSchema.from_text(read_text(schema_path))
    train_corpus = _load_corpus(opts.require("train"), fmt, scheme, schema,
                                config.max_seq_length)
    if schema is None:
        schema = train_corpus.schema
    val_path = opts.get("val")
    if val_path:
        val_corpus = _load_corpus(val_path, fmt, scheme, schema)
    else:
        train_corpus, val_corpus, _unused_test = split_corpus(
            train_corpus, (0.70, 0.15, 0.15), config.seed
        )
        log.info("no --val given: split --train 70:15:15 (test part unused)")

    table = load_embeddings(opts.require("embeddings"), config.word_dim, config.oov_policy)
    vocab = build_vocab(train_corpus, min_count=opts.get("min_count", 1))

    def build_model(cfg: TrainConfig):
        return init_model(cfg, schema, vocab, table)

    grid_path = opts.get("grid")
    if grid_path:
        grid = _read_grid_file(grid_path)
        result = grid_search(grid, train_corpus, val_corpus, config, build_model)
        fit_result = result.best
        (out / "grid_results.json").write_text(
            json.dumps(
                [
                    {"config": r.config.to_dict(), "val_micro_f1": r.val_micro_f1,
                     "num_parameters": r.num_parameters}
                    for r in result.runs
                ],
                indent=2, sort_keys=True,
            ) + "\n",
            encoding="utf-8",
        )
    else:
        fit_result = fit(build_model(config), train_corpus, val_corpus)

    model = fit_result.model
    save_model(model, str(out / "model.medner"))
    (out / "metrics.log").write_text(
        "\n".join(fit_result.log_lines()) + ("\n" if fit_result.history else ""),
        encoding="utf-8",
    )
    _write_report(out, evaluate(model, val_corpus))
    log.info("model written to %s", out / "model.medner")
    return EXIT_OK


def _read_grid_file(path: str) -> dict[str, list]:
    grid: dict[str, list] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key = v1,v2,...", line=lineno)
        key, values = (p.strip() for p in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"unknown hyperparameter {key!r}", line=lineno)
        kind = _CONFIG_FIELDS[key]
        grid[key] = [_coerce(v.strip(), kind, lineno) for v in values.split(",") if v.strip()]
    if not grid:
        raise ParseError("grid file lists no hyperparameters")
    return grid


def _write_report(out: Path, report: evaluation.EvalReport) -> None:
    (out / "eval_report.txt").write_text(report.summary() + "\n", encoding="utf-8")
    (out / "eval_report.json").write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _check_known_types(model: ModelParams, entity_types) -> None:
    """Reject input whose entity types the model schema does not know."""
    unknown = set(entity_types) - set(model.schema.entity_types)
    if unknown:
        raise SchemaError(
            f"input entity types {sorted(unknown)} are unknown to the model schema "
            f"{model.schema.entity_types}"
        )


def _tag_chunks(model: ModelParams, sentences: list[Sentence]) -> list[chunking.Chunk]:
    """Tag every sentence and decode its chunks with confidences."""
    chunks = []
    for sent, (tags, marg) in zip(sentences, tag(model, sentences, marginals=True)):
        chunks.extend(
            chunking.decode_chunks(sent, tags, marg, model.schema, model.config.confidence_mode)
        )
    return chunks


def cmd_predict(args: argparse.Namespace) -> int:
    opts = Options(args)
    model = load_model(opts.require("model"))
    out = _out_dir(opts.require("out_dir"))
    text = read_text(opts.require("input"))
    input_format = opts.get("input_format", "raw")
    if input_format == "raw":
        sentences = ingest_raw_text(text, _read_abbreviations(opts.get("abbreviations")))
    else:
        corpus = parse_conll(text, FORMATS[input_format])
        _check_known_types(model, corpus.entity_types_present())
        sentences = corpus.sentences
    chunks = _tag_chunks(model, sentences)
    min_confidence = opts.get("min_confidence", 0.0)
    chunks = [c for c in chunks if c.confidence >= min_confidence]
    (out / "chunks.tsv").write_text(chunking.write_chunk_records(chunks), encoding="utf-8")
    log.info("%d chunks written to %s", len(chunks), out / "chunks.tsv")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    opts = Options(args)
    pred_path = opts.get("pred")
    model_path = opts.get("model")
    if (pred_path is None) == (model_path is None):
        raise UsageError("exactly one of --pred or --model is required")
    fmt = opts.corpus_format()
    scheme = opts.scheme()
    gold = _load_corpus(opts.require("gold"), fmt, scheme, None)
    if model_path:
        model = load_model(model_path)
        _check_known_types(model, gold.schema.entity_types)
        report = evaluate(model, gold)
    else:
        pred = _load_corpus(pred_path, fmt, scheme, None)
        report = evaluation.EvalReport.from_sentences(gold.sentences, pred.sentences)
    print(report.summary())
    out_dir = opts.get("out_dir")
    if out_dir:
        _write_report(_out_dir(out_dir), report)
    gate = opts.get("min_micro_f1")
    if gate is not None and report.micro_f1 < gate:
        log.error("micro-F1 %.4f below gate %.4f", report.micro_f1, gate)
        return EXIT_GATE
    return EXIT_OK


def cmd_deidentify(args: argparse.Namespace) -> int:
    opts = Options(args)
    chunks_path = opts.get("chunks")
    model_path = opts.get("model")
    if (chunks_path is None) == (model_path is None):
        raise UsageError("exactly one of --chunks or --model is required")
    out = _out_dir(opts.require("out_dir"))
    input_path = opts.require("input")
    text = read_text(input_path)
    policy_path = opts.get("policy")
    if policy_path:
        policy = deid.parse_policy_file(
            read_text(policy_path),
            base_dir=Path(policy_path).parent,
        )
    else:
        policy = deid.DeidPolicy()
    seed = opts.get("seed")
    if seed is not None:
        policy.seed = seed

    if chunks_path:
        chunks = chunking.parse_chunk_records(read_text(chunks_path))
    else:
        model = load_model(model_path)
        sentences = ingest_raw_text(text, _read_abbreviations(opts.get("abbreviations")))
        chunks = _tag_chunks(model, sentences)
    try:
        result = deid.apply_policy(text, chunks, policy)
    except ValidationError as exc:
        raise ValidationError(f"{input_path}: {exc}")
    (out / "deidentified.txt").write_text(result.text, encoding="utf-8")
    (out / "replacements.log").write_text(
        "\n".join(result.log_lines()) + ("\n" if result.replacements else ""),
        encoding="utf-8",
    )
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    if args.from_format == "chunk-records":
        raise ValidationError(
            "chunk-records carry no token information and cannot be a source format"
        )
    corpus = parse_conll(
        read_text(args.input), FORMATS[args.from_format], input_scheme=args.from_scheme
    )
    out_path = Path(args.out)
    if args.to_format == "chunk-records":
        chunks = []
        for sent in corpus.sentences:
            chunks.extend(chunking.decode_chunks(sent, sent.tags()))
        out_path.write_text(chunking.write_chunk_records(chunks), encoding="utf-8")
        return EXIT_OK
    if args.to_scheme == "IOB1":
        schema = LabelSchema(corpus.schema.entity_types, "IOB1")
        sentences = [
            s.with_tags(convert_scheme(s.tags(), "IOB2", "IOB1")) for s in corpus.sentences
        ]
        corpus = Corpus(sentences, schema)
    out_path.write_text(write_conll(corpus, FORMATS[args.to_format]), encoding="utf-8")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except UsageError as exc:
        log.error("usage: %s", exc)
        return EXIT_USAGE
    except ParseError as exc:
        log.error("parse error: %s", exc)
        return EXIT_PARSE
    except (SchemaError, ValidationError, ModelFormatError) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except NumericError as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
