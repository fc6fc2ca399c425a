"""Single executable wiring the pipeline stages as subcommands:
train, predict, evaluate, deidentify, convert.

Options resolve in three layers, all by argparse: a flag wins over a flat
key=value config file (--config), which wins over the option's default in
_COMMANDS. With --config, main parses argv once to find the subcommand and
the file, reads the file's values for that subcommand's options as their
flags would read them, makes them the subcommand's defaults, and parses argv
again. Every TrainConfig field is available under its own name in both the
file and the flag set. A config file key must name an option of some
subcommand; any other key is a parse error, so a misspelt setting is not
silently ignored.

Exit codes: 0 success, 1 failed --min-micro-f1 gate, 2 usage, 3 parse
errors, 4 validation/schema/model-format errors, 5 numeric failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import chunking, deid, evaluation
from .corpus import (
    DEFAULT_ABBREVIATIONS,
    FORMATS,
    SCHEMES,
    Corpus,
    LabelSchema,
    Sentence,
    build_vocab,
    key_values,
    parse_conll,
    read_text,
    sentence_split,
    split_corpus,
    tokenize,
    write_conll,
    write_files,
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
# what no --grid may vary: cmd_train reads the first three once, before the
# grid runs, and training never reads confidence_mode
_FIXED_IN_GRID = ("word_dim", "oov_policy", "max_seq_length", "confidence_mode")


class UsageError(ValidationError):
    """Missing or contradictory invocation options (exit code 2)."""


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _file_value(dest: str, kwargs: dict, value: str, lineno: int):
    """A --config or --grid value read as the option's flag would be, by its
    add_argument keywords: a value its type rejects raises ParseError naming
    the line, and one outside its choices raises UsageError."""
    if kwargs.get("action") is argparse.BooleanOptionalAction:
        if value.lower() not in _BOOL_WORDS:
            raise ParseError(f"expected bool, got {value!r}", line=lineno)
        return _BOOL_WORDS[value.lower()]
    convert = kwargs.get("type", str)
    try:
        value = convert(value)
    except ValueError:
        raise ParseError(f"expected {convert.__name__}, got {value!r}", line=lineno) from None
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise UsageError(f"unknown {dest} {value!r}, expected one of {sorted(kwargs['choices'])}")
    return value


def _required(args: argparse.Namespace, *names: str) -> None:
    """UsageError for the first of `names` that no flag or config file set:
    argparse's required= cannot see a value from the file. An empty value
    (`--model ""`, or `model =` in the file) counts as not set."""
    for name in names:
        if not getattr(args, name):
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


# what a TrainConfig field's flag has beyond --<field-name> and its type
_FLAG_EXTRAS = {
    "word_dim": {"aliases": ("--embed-dim",),
                 "help": "word embedding dimension (must match the table)"},
    "max_seq_length": {"help": "truncate longer --train sentences; other inputs keep every token"},
    "early_stopping_patience": {"aliases": ("--patience",)},
    "oov_policy": {"choices": OOV_POLICIES},
    "confidence_mode": {"choices": chunking.CONFIDENCE_MODES},
}


def _opt(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One option of a subcommand: its flags and add_argument keywords."""
    return flags, kwargs


def _train_config_options() -> list[tuple[tuple[str, ...], dict]]:
    """One option per TrainConfig field, in field order, defaulting to
    TrainConfig()'s value."""
    defaults = TrainConfig()
    options = []
    for name, kind in _CONFIG_FIELDS.items():
        extra = dict(_FLAG_EXTRAS.get(name, {}))
        flags = ("--" + name.replace("_", "-"), *extra.pop("aliases", ()))
        if kind == "bool":
            extra["action"] = argparse.BooleanOptionalAction
        elif kind != "str":
            extra["type"] = {"int": int, "float": float}[kind]
        options.append(_opt(*flags, dest=name, default=getattr(defaults, name), **extra))
    return options


def _read_abbreviations(path: str | None) -> frozenset[str]:
    extra = {line.strip() for line in read_text(path).split("\n")} if path else set()
    return DEFAULT_ABBREVIATIONS | extra - {""}


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
    """Train, or grid-search, and write every output but model.medner in one
    write_files call, then save_model: in a fresh --out-dir the model comes last."""
    _required(args, "out_dir", "train", "embeddings")
    config = TrainConfig(**{name: getattr(args, name) for name in _CONFIG_FIELDS})
    grid = _read_grid_file(args.grid) if args.grid else None

    schema = LabelSchema.from_text(read_text(args.schema)) if args.schema else None
    train_corpus = _load_corpus(args.train, args.format, args.scheme, schema,
                                config.max_seq_length)
    if schema is None:
        schema = train_corpus.schema
    if args.val:
        val_corpus = _load_corpus(args.val, args.format, args.scheme, schema)
    else:
        train_corpus, val_corpus, _unused_test = split_corpus(
            train_corpus, (0.70, 0.15, 0.15), config.seed
        )
        log.info("no --val given: split --train 70:15:15 (test part unused)")

    table = load_embeddings(args.embeddings, config.word_dim, config.oov_policy)
    vocab = build_vocab(train_corpus, min_count=args.min_count)

    def build_model(cfg: TrainConfig):
        return init_model(cfg, schema, vocab, table)

    if grid:
        result = grid_search(grid, train_corpus, val_corpus, config, build_model)
        fit_result = result.best
    else:
        fit_result = fit(build_model(config), train_corpus, val_corpus)
    report = evaluate(fit_result.model, val_corpus)

    files = _report_files(report)
    files["metrics.log"] = "\n".join(fit_result.log_lines()) + ("\n" if fit_result.history else "")
    if grid:
        runs = [{"config": r.config.to_dict(), "val_micro_f1": r.val_micro_f1,
                 "num_parameters": r.num_parameters} for r in result.runs]
        files["grid_results.json"] = json.dumps(runs, indent=2, sort_keys=True) + "\n"
    write_files(args.out_dir, files)
    model_path = Path(args.out_dir) / "model.medner"
    save_model(fit_result.model, str(model_path))
    log.info("model written to %s", model_path)
    return EXIT_OK


def _read_grid_file(path: str) -> dict[str, list]:
    options = _options_by_dest("train")
    grid: dict[str, list] = {}
    for lineno, key, values in key_values(read_text(path), "key = v1,v2,..."):
        if key not in _CONFIG_FIELDS:
            raise ParseError(f"unknown hyperparameter {key!r}", line=lineno)
        grid[key] = [_file_value(key, options[key], v.strip(), lineno)
                     for v in values.split(",") if v.strip()]
        if not grid[key]:
            raise ParseError(f"no values for {key!r}", line=lineno)
        if key in _FIXED_IN_GRID:  # after its values, so a bad one exits as its flag's would
            raise ParseError(f"a --grid cannot vary {key!r}", line=lineno)
    if not grid:
        raise ParseError("grid file lists no hyperparameters")
    return grid


def _report_files(report: evaluation.EvalReport) -> dict[str, str]:
    """The eval_report.txt and eval_report.json of `report`, by file name."""
    return {"eval_report.txt": report.summary() + "\n",
            "eval_report.json": json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"}


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
    tagged = tag(model, sentences, marginals=True)
    return chunking.decode_chunks(sentences, [t for t, _ in tagged], [m for _, m in tagged],
                                  model.schema, model.config.confidence_mode)


def cmd_predict(args: argparse.Namespace) -> int:
    _required(args, "model", "out_dir", "input")
    if not 0.0 <= args.min_confidence <= 1.0:  # NaN too: no chunk would pass it
        raise ValidationError(f"min_confidence must lie in [0, 1], got {args.min_confidence}")
    text = read_text(args.input)
    if args.input_format == "raw":
        sentences = ingest_raw_text(text, _read_abbreviations(args.abbreviations))
        entity_types = set()
    else:
        corpus = parse_conll(text, FORMATS[args.input_format])
        sentences, entity_types = corpus.sentences, corpus.entity_types_present()

    def tag_input(model: ModelParams) -> list[chunking.Chunk]:
        _check_known_types(model, entity_types)
        return _tag_chunks(model, sentences)

    chunks = load_model(args.model, use=tag_input)
    chunks = [c for c in chunks if c.confidence >= args.min_confidence]
    write_files(args.out_dir, {"chunks.tsv": chunking.write_chunk_records(chunks)})
    log.info("%d chunks written to %s", len(chunks), Path(args.out_dir) / "chunks.tsv")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    _required(args, "gold")
    if bool(args.pred) == bool(args.model):  # an empty value counts as not given
        raise UsageError("exactly one of --pred or --model is required")
    gate = args.min_micro_f1
    if gate is not None and not math.isfinite(gate):  # F1 < NaN never holds
        raise ValidationError(f"min_micro_f1 must be finite, got {gate}")
    gold = _load_corpus(args.gold, args.format, args.scheme, None)
    if args.model:

        def score(model: ModelParams) -> evaluation.EvalReport:
            _check_known_types(model, gold.schema.entity_types)
            return evaluate(model, gold)

        report = load_model(args.model, use=score)
    else:
        pred = _load_corpus(args.pred, args.format, args.scheme, None)
        report = evaluation.EvalReport.from_sentences(gold.sentences, pred.sentences)
    print(report.summary())
    if args.out_dir:
        write_files(args.out_dir, _report_files(report))
    if gate is not None and report.micro_f1 < gate:
        log.error("micro-F1 %.4f below gate %.4f", report.micro_f1, gate)
        return EXIT_GATE
    return EXIT_OK


def cmd_deidentify(args: argparse.Namespace) -> int:
    _required(args, "out_dir", "input")
    if bool(args.chunks) == bool(args.model):  # an empty value counts as not given
        raise UsageError("exactly one of --chunks or --model is required")
    text = read_text(args.input)
    if args.policy:
        policy = deid.parse_policy_file(read_text(args.policy), base_dir=Path(args.policy).parent)
    else:
        policy = deid.DeidPolicy()
    if args.seed is not None:
        policy.seed = args.seed

    if args.chunks:
        chunks = chunking.parse_chunk_records(read_text(args.chunks))
        for c in chunks:  # offsets taken from another text (say, a CRLF original) fail here
            where = f"{args.chunks}: sentence {c.sent_index}, [{c.begin}, {c.end}] {c.surface!r}"
            if not 0 <= c.begin <= c.end < len(text):
                raise ValidationError(f"{where} lies outside the text of length {len(text)}")
            found = text[c.begin : c.end + 1]  # a surface joins its tokens with spaces
            if "".join(found.split()) != "".join(c.surface.split()):
                raise ValidationError(f"{where} does not match the text there, {found!r}")
    else:
        sentences = ingest_raw_text(text, _read_abbreviations(args.abbreviations))
        chunks = load_model(args.model, use=lambda model: _tag_chunks(model, sentences))
    try:
        result = deid.apply_policy(text, chunks, policy)
    except ValidationError as exc:
        raise ValidationError(f"{args.input}: {exc}")
    log_text = "\n".join(result.log_lines()) + ("\n" if result.replacements else "")
    write_files(args.out_dir, {"deidentified.txt": result.text, "replacements.log": log_text})
    return EXIT_OK


def cmd_convert(args: argparse.Namespace) -> int:
    if args.from_format == "chunk-records":
        raise ValidationError(
            "chunk-records carry no token information and cannot be a source format"
        )
    corpus = _load_corpus(args.input, args.from_format, args.from_scheme, None)
    if args.to_format == "chunk-records":
        chunks = chunking.decode_chunks(corpus.sentences, [s.tags() for s in corpus.sentences])
        text = chunking.write_chunk_records(chunks)
    else:
        text = write_conll(corpus, FORMATS[args.to_format], args.to_scheme)
    out = Path(args.out)
    write_files(out.parent, {out.name: text})
    return EXIT_OK


# Each subcommand's help, handler and option groups (None titles its own
# options). Path options stay optional at the argparse level so a --config
# file can supply them; each handler's _required reports what is missing.
_COMMANDS = {
    "train": ("train a tagger and write the model container", cmd_train, {
        None: [
            _opt("--config", help="flat key=value config file"),
            _opt("--train", help="training corpus file"),
            _opt("--val", help="validation corpus; default splits --train 70:15:15"),
            _opt("--format", choices=sorted(FORMATS), default="tsv2"),
            _opt("--scheme", choices=SCHEMES, default="IOB2",
                 help="tagging scheme of the input files (default IOB2)"),
            _opt("--schema", help="schema file (entity types + scheme line)"),
            _opt("--embeddings", help="word vector text file"),
            _opt("--min-count", type=int, default=1),
            _opt("--grid", help="grid file: key = v1,v2,... per line"),
            _opt("--out-dir"),
        ],
        "model and training options": _train_config_options(),
    }),
    "predict": ("tag text and emit chunk records", cmd_predict, {None: [
        _opt("--config"),
        _opt("--model"),
        _opt("--input"),
        _opt("--input-format", choices=("raw", *FORMATS), default="raw"),
        _opt("--min-confidence", type=float, default=0.0),
        _opt("--abbreviations", help="extra abbreviation file, one per line"),
        _opt("--out-dir"),
    ]}),
    "evaluate": ("score predictions against a gold corpus", cmd_evaluate, {None: [
        _opt("--config"),
        _opt("--gold"),
        _opt("--pred", help="tagged corpus of predictions"),
        _opt("--model", help="predict on the fly instead of --pred"),
        _opt("--format", choices=sorted(FORMATS), default="tsv2"),
        _opt("--scheme", choices=SCHEMES, default="IOB2"),
        _opt("--min-micro-f1", type=float,
             help="exit 1 when entity micro-F1 falls below this gate"),
        _opt("--out-dir"),
    ]}),
    "deidentify": ("mask or substitute protected chunks", cmd_deidentify, {None: [
        _opt("--config"),
        _opt("--input", help="raw text file"),
        _opt("--chunks", help="chunk records with gold spans"),
        _opt("--model", help="tag the input instead of --chunks"),
        _opt("--policy", help="policy file; defaults to masking the PHIPA list"),
        _opt("--seed", type=int),
        _opt("--abbreviations"),
        _opt("--out-dir"),
    ]}),
    "convert": ("convert corpus formats and IOB schemes", cmd_convert, {None: [
        _opt("--input", required=True),
        _opt("--from", dest="from_format", required=True,
             choices=("conll4", "tsv2", "chunk-records")),
        _opt("--to", dest="to_format", required=True,
             choices=("conll4", "tsv2", "chunk-records")),
        _opt("--from-scheme", choices=SCHEMES, default="IOB2"),
        _opt("--to-scheme", choices=SCHEMES, default="IOB2"),
        _opt("--out", required=True),
    ]}),
}


def _options_by_dest(command: str) -> dict[str, dict]:
    """The add_argument keywords of each of `command`'s options, by dest."""
    return {
        kwargs.get("dest", flags[0].lstrip("-").replace("-", "_")): kwargs
        for options in _COMMANDS[command][2].values()
        for flags, kwargs in options
    }


# the keys a config file may set: every subcommand's option names (dests)
_CONFIG_KEYS = frozenset(dest for command in _COMMANDS for dest in _options_by_dest(command))


def _config_defaults(command: str, path: str) -> dict:
    """The values a flat key=value config file gives `command`'s options,
    each read as its flag would be; other subcommands' keys are not read. A
    key that is no subcommand's option name raises ParseError with its line."""
    options = _options_by_dest(command)
    defaults = {}
    for lineno, key, value in key_values(read_text(path), "key=value"):
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}: no subcommand has this option", line=lineno)
        if key in options:
            defaults[key] = _file_value(key, options[key], value, lineno)
    return defaults


def build_parser(command: str | None = None, defaults: dict | None = None
                 ) -> argparse.ArgumentParser:
    """The medner parser with every subcommand, or with `command` alone; the
    root usage names every subcommand either way. `defaults`, the config
    file's values that _config_defaults read for `command`, replace the
    option table's defaults, so flags still win over them."""
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
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None,
    )
    for name in [command] if command else _COMMANDS:
        help_text, func, groups = _COMMANDS[name]
        p_command = sub.add_parser(name, parents=[common], help=help_text)
        for title, options in groups.items():
            group = p_command.add_argument_group(title) if title else p_command
            for flags, kwargs in options:
                group.add_argument(*flags, **kwargs)
        p_command.set_defaults(func=func, **(defaults or {}))
    return parser


def _chosen_command(argv: list[str]) -> str | None:
    """The subcommand argv names after nothing but --verbose (or a prefix
    argparse takes for it), else None: help, a missing or unknown subcommand
    and any other root option need the parser with every subcommand."""
    for arg in argv:
        if not arg.startswith("-"):
            return arg if arg in _COMMANDS else None
        if len(arg) < 3 or not "--verbose".startswith(arg):
            return None
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_chosen_command(argv)).parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "config", None):
            defaults = _config_defaults(args.command, args.config)
            args = build_parser(args.command, defaults).parse_args(argv)
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
