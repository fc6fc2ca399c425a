"""The text parsers under generated input: each returns a result or raises a
MednerError subclass, which the CLI maps to its documented exit code, and
never lets another exception escape as a traceback.

Inputs are lines built from each format's own vocabulary (keywords, tags,
numbers, separators) mixed with arbitrary text, so most examples get past
the first line and reach the deeper checks; file-based parsers also get raw
bytes that need not be UTF-8. Each property runs about 100 examples.
"""

import dataclasses
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from medner.chunking import parse_chunk_records
from medner import cli
from medner.cli import _read_grid_file
from medner.corpus import FORMATS, SCHEMES, LabelSchema, parse_conll, validate_iob, write_conll
from medner.deid import parse_policy_file
from medner.errors import MednerError, ValidationError
from medner.nercore.model import TrainConfig

EXAMPLES = settings(max_examples=100, deadline=None)


def lines_of(fragments, separators):
    """Texts of up to 8 lines, each up to 6 fragments or short arbitrary
    strings, every one followed by a separator."""
    piece = st.one_of(st.sampled_from(fragments), st.text(max_size=4))
    line = st.lists(st.tuples(piece, st.sampled_from(separators)), max_size=6).map(
        lambda parts: "".join(p + s for p, s in parts)
    )
    return st.lists(line, max_size=8).map("\n".join)


def file_contents(texts):
    return st.one_of(texts.map(lambda t: t.encode("utf-8")), st.binary(max_size=40))


def parsed_or_rejected(parse):
    try:
        return parse()
    except MednerError:
        return None


CONLL = lines_of(
    ["B-Symptom", "I-Symptom", "B-Dosage", "I-Dosage", "B-Name", "O", "B-", "I-",
     "-DOCSTART-", "fever", "5mg", "-X-", "_", ""],
    ["\t", " ", "", "  ", "\t\t"],
)


@EXAMPLES
@given(CONLL, st.sampled_from(sorted(FORMATS)), st.sampled_from(["IOB1", "IOB2"]),
       st.booleans(), st.sampled_from([None, 1, 3]))
def test_parse_conll(text, fmt, scheme, with_schema, max_len):
    schema = LabelSchema(["Dosage", "Symptom"]) if with_schema else None
    corpus = parsed_or_rejected(lambda: parse_conll(
        text, FORMATS[fmt], schema=schema, input_scheme=scheme, max_seq_length=max_len
    ))
    if corpus is not None:
        for sent in corpus.sentences:
            assert 0 < len(sent) <= (max_len or len(sent))
            assert validate_iob(sent.tags(), "IOB2") == []


# token rows (indent, surface, tag), blank lines and document markers, so
# that many texts parse; render() lays a row out in a format's columns
ROWS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["", " "]),
                  st.one_of(st.sampled_from(["fever", "5mg", "-X-", "-DOCSTART-", "O"]),
                            st.text(min_size=1, max_size=4)),
                  st.sampled_from(["O", "B-Dosage", "I-Dosage", "B-Symptom", "I-Symptom"])),
        st.sampled_from(["", "-DOCSTART- -X- -X- O"]),
    ),
    max_size=12,
)


def render(rows, fmt):
    sep = "\t" if fmt == "tsv2" else " -X- -X- "
    return "\n".join(r if isinstance(r, str) else f"{r[0]}{r[1]}{sep}{r[2]}" for r in rows)


@EXAMPLES
@given(ROWS, st.sampled_from(sorted(FORMATS)), st.sampled_from(sorted(FORMATS)),
       st.sampled_from(SCHEMES), st.sampled_from(SCHEMES))
@example([("", "fever", "B-Symptom"), ("", "a b", "I-Symptom")], "tsv2", "conll4", "IOB2", "IOB2")
def test_write_conll_round_trip(rows, read_fmt, write_fmt, read_scheme, write_scheme):
    # whatever parse_conll accepts, write_conll writes in any scheme and
    # parse_conll reads back in that scheme to the same surfaces and tags;
    # only conll4, whose columns whitespace separates, rejects a token or
    # tag that holds whitespace
    corpus = parsed_or_rejected(lambda: parse_conll(render(rows, read_fmt), FORMATS[read_fmt],
                                                    input_scheme=read_scheme))
    if corpus is None:
        return
    spec = FORMATS[write_fmt]
    fields = [f for s in corpus.sentences for f in s.surfaces() + s.tags()]
    if write_fmt == "conll4" and any(c.isspace() for f in fields for c in f):
        with pytest.raises(ValidationError, match="holds whitespace"):
            write_conll(corpus, spec, write_scheme)
        return
    back = parse_conll(write_conll(corpus, spec, write_scheme), spec, input_scheme=write_scheme)
    assert [s.surfaces() for s in back.sentences] == [s.surfaces() for s in corpus.sentences]
    assert [s.tags() for s in back.sentences] == [s.tags() for s in corpus.sentences]


CHUNKS = lines_of(
    ["0", "3", "-1", "12", "1.5", "0.75", "nan", "inf", "Name", "fever", "#", "1e3"],
    ["\t", " ", ""],
)


@EXAMPLES
@given(CHUNKS)
def test_parse_chunk_records(text):
    chunks = parsed_or_rejected(lambda: parse_chunk_records(text))
    for chunk in chunks or []:
        assert 0 <= chunk.begin <= chunk.end


POLICY = lines_of(
    ["Name", "Age", "Date", "seed", "mask", "substitute", "keep", "Pat", "Sam",
     "names.txt", "bad.txt", "missing.txt", "7", "#"],
    [" ", " = ", "=", ", ", ""],
)


@EXAMPLES
@given(POLICY)
def test_parse_policy_file(text):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "names.txt").write_text("Pat\nSam\n", encoding="utf-8")
        (Path(tmp) / "bad.txt").write_bytes(b"P\xffat\n")
        policy = parsed_or_rejected(lambda: parse_policy_file(text, base_dir=tmp))
    if policy is not None:
        for etype, mode in policy.modes.items():
            assert mode != "substitute" or policy.dictionaries[etype]


FIELDS = [f.name for f in dataclasses.fields(TrainConfig)]
VALUES = ["1", "0", "-1", "3", "abc", "1e-3", "0.5", "nan", "inf", "true", "maybe",
          "lowercase_then_unk", "min", ""]
CONFIG = lines_of(FIELDS + ["min_confidence", "min_count", "model"] + VALUES,
                  [" = ", "=", " ", "", "#"])
GRID = lines_of(FIELDS + VALUES, [" = ", "=", ", ", ",", " "])


def write_then(contents, parse):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(contents)
        return parsed_or_rejected(lambda: parse(str(path)))


@EXAMPLES
@given(file_contents(CONFIG))
def test_config_file(contents):
    def parse(path):
        def args(command):  # what `medner <command> --config <path>` resolves
            defaults = cli._config_defaults(command, path)
            return cli.build_parser(command, defaults).parse_args([command])

        train = args("train")
        config = TrainConfig(**{name: getattr(train, name) for name in FIELDS})
        return config, args("predict").min_confidence, train.min_count

    result = write_then(contents, parse)
    if result is not None:
        config, min_confidence, _ = result
        assert_config_in_range(config)
        assert min_confidence is None or isinstance(min_confidence, float)


def assert_config_in_range(config):
    assert 0.0 <= config.dropout < 1.0
    assert 0.0 < config.beta1 < 1.0 and 0.0 < config.beta2 < 1.0
    for name in ("learning_rate", "epsilon", "grad_clip_norm"):
        assert 0.0 < getattr(config, name) < math.inf, name


@EXAMPLES
@given(file_contents(GRID))
def test_grid_file(contents):
    grid = write_then(contents, _read_grid_file)
    for name, values in (grid or {}).items():
        assert name in FIELDS
        assert name not in ("word_dim", "oov_policy", "max_seq_length", "confidence_mode")
        # grid_search builds each point this way (and rejects an empty list)
        for value in values:
            config = parsed_or_rejected(lambda: dataclasses.replace(TrainConfig(), **{name: value}))
            if config is not None:
                assert_config_in_range(config)
