"""Versioned model container: a text manifest followed by raw tensor payloads.

Layout:
    line 1   ``mednermodel <version> <manifest_nbytes>\\n``
    bytes    JSON manifest (dimensions, schema, vocab, embedding words,
             config snapshot, tensor directory)
    bytes    tensors concatenated in directory order, little-endian float64,
             C order, each with a sha256 checksum recorded in the directory

The embedding table is stored inside the container so a loaded model predicts
without external files, bit-identically to the saved one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from ..corpus import LabelSchema, Vocabulary
from ..embeddings import EmbeddingTable
from ..errors import (
    ChecksumError,
    ModelFormatError,
    ShapeMismatchError,
    VersionMismatchError,
)
from .layers import LstmParams
from .model import ModelParams, TrainConfig

MAGIC = "mednermodel"
FORMAT_VERSION = 1

# The JSON type of every manifest field load_model reads; [t] is a list of t.
# Types compare exactly, so a boolean never passes for an integer.
_CONFIG_TYPES = {"int": int, "float": (float, int), "bool": bool, "str": str}
_MANIFEST_TYPES = {
    "dimensions": dict.fromkeys(
        ("word_dim", "char_dim", "kernel_width", "num_filters", "lstm_size",
         "num_tags", "num_chars", "input_dim", "embed_rows"), int,
    ) | {"num_words": (int, type(None))},
    "tensors": [{"name": str, "shape": [int], "offset": int, "nbytes": int, "sha256": str}],
    "config": {f.name: _CONFIG_TYPES[f.type] for f in dataclasses.fields(TrainConfig)},
    "schema": {"entity_types": [str], "scheme": str},
    "vocab": {"words": [str], "chars": [str], "min_count": int},
    "embedding": {"words": [str], "oov_policy": str},
}


def _check_json(value, kind, where: str) -> None:
    """Raise ModelFormatError unless `value` has the type `kind` describes."""
    if isinstance(kind, dict):
        if type(value) is not dict:
            raise ModelFormatError(f"{where} is a JSON {type(value).__name__}, not an object")
        for key, sub in kind.items():
            if key not in value:
                raise ModelFormatError(f"{where} has no field {key!r}")
            _check_json(value[key], sub, f"{where}.{key}")
    elif isinstance(kind, list):
        if type(value) is not list:
            raise ModelFormatError(f"{where} is a {type(value).__name__}, not a list")
        if isinstance(kind[0], dict):
            for item in value:
                _check_json(item, kind[0], f"{where} item")
        elif any(type(item) is not kind[0] for item in value):  # one pass over word lists
            raise ModelFormatError(f"{where} holds an item that is not a {kind[0].__name__}")
    elif type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise ModelFormatError(f"{where} is a {type(value).__name__}")


def _expected_shapes(dims: dict) -> dict[str, tuple[int, ...]]:
    s = dims["lstm_size"]
    t = dims["num_tags"]
    d_in = dims["input_dim"]
    shapes = {
        "char_emb": (dims["num_chars"], dims["char_dim"]),
        "char_filters": (dims["num_filters"], dims["kernel_width"], dims["char_dim"]),
        "char_bias": (dims["num_filters"],),
        "lstm_fwd_w": (4 * s, d_in),
        "lstm_fwd_u": (4 * s, s),
        "lstm_fwd_b": (4 * s,),
        "lstm_bwd_w": (4 * s, d_in),
        "lstm_bwd_u": (4 * s, s),
        "lstm_bwd_b": (4 * s,),
        "w_c": (t, 2 * s),
        "b_c": (t,),
        "transitions": (t + 2, t + 2),
        "embed_matrix": (dims["embed_rows"], dims["word_dim"]),
        "embed_unk": (dims["word_dim"],),
    }
    if dims.get("num_words") is not None:
        shapes["word_delta"] = (dims["num_words"], dims["word_dim"])
    return shapes


def save_model(model: ModelParams, path: str) -> None:
    tensors = dict(model.tensors())
    tensors["embed_matrix"] = model.embed.matrix
    tensors["embed_unk"] = model.embed.unk_vector

    directory = []
    payload = bytearray()
    for name, arr in tensors.items():
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        directory.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": len(blob),
                "sha256": hashlib.sha256(blob).hexdigest(),
            }
        )
        payload.extend(blob)

    cfg = model.config
    dims = {
        "word_dim": model.embed.dimension,
        "char_dim": cfg.char_dim,
        "kernel_width": cfg.kernel_width,
        "num_filters": cfg.num_filters,
        "lstm_size": cfg.lstm_size,
        "num_tags": model.schema.num_tags,
        "num_chars": model.vocab.num_chars,
        "num_words": model.vocab.num_words if model.word_delta is not None else None,
        "input_dim": model.input_dim,
        "embed_rows": len(model.embed),
    }
    manifest = {
        "format_version": FORMAT_VERSION,
        "dimensions": dims,
        "schema": {"entity_types": model.schema.entity_types, "scheme": model.schema.scheme},
        "vocab": {
            "words": model.vocab.word_list(),
            "chars": model.vocab.char_list(),
            "min_count": model.vocab.min_count,
        },
        "embedding": {
            "dimension": model.embed.dimension,
            "words": model.embed.words,
            "oov_policy": model.embed.oov_policy,
        },
        "config": cfg.to_dict(),
        "tensors": directory,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {FORMAT_VERSION} {len(manifest_bytes)}\n".encode("ascii"))
        fh.write(manifest_bytes)
        fh.write(payload)


def load_model(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        data = fh.read()
    newline = data.find(b"\n")
    if newline < 0:
        raise ModelFormatError("missing container header")
    header = data[:newline].decode("ascii", errors="replace").split()
    if len(header) != 3 or header[0] != MAGIC:
        raise ModelFormatError("not a model container")
    if header[1] != str(FORMAT_VERSION):
        raise VersionMismatchError(
            f"container version {header[1]} is not supported (expected {FORMAT_VERSION})"
        )
    try:
        manifest_len = int(header[2])
    except ValueError:
        raise ModelFormatError("bad manifest length in header")
    manifest_start = newline + 1
    manifest_bytes = data[manifest_start : manifest_start + manifest_len]
    if len(manifest_bytes) != manifest_len:
        raise ChecksumError("container truncated inside the manifest")
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable manifest: {exc}")
    if isinstance(manifest, dict) and manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatchError(
            f"manifest format_version {manifest.get('format_version')!r} unsupported"
        )
    _check_json(manifest, _MANIFEST_TYPES, "manifest")

    payload = data[manifest_start + manifest_len :]
    dims = manifest["dimensions"]
    expected = _expected_shapes(dims)
    tensors: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        name = entry["name"]
        blob = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        if len(blob) != entry["nbytes"]:
            raise ChecksumError(f"tensor {name}: payload truncated")
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise ChecksumError(f"tensor {name}: checksum mismatch")
        shape = tuple(entry["shape"])
        if entry["nbytes"] != 8 * int(np.prod(shape, dtype=np.int64)):
            raise ShapeMismatchError(f"tensor {name}: shape {shape} does not fit payload")
        if name not in expected:
            raise ShapeMismatchError(f"unexpected tensor {name!r} in container")
        if shape != expected[name]:
            raise ShapeMismatchError(
                f"tensor {name}: shape {shape} does not match manifest dimensions "
                f"{expected[name]}"
            )
        tensors[name] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
    missing = set(expected) - set(tensors)
    if missing:
        raise ShapeMismatchError(f"container is missing tensors: {sorted(missing)}")

    config = TrainConfig.from_dict(manifest["config"])
    for key in ("word_dim", "char_dim", "kernel_width", "num_filters", "lstm_size"):
        if dims[key] != getattr(config, key):
            raise ShapeMismatchError(
                f"manifest dimension {key}={dims[key]} disagrees with the config "
                f"snapshot value {getattr(config, key)}"
            )
    schema = LabelSchema(
        list(manifest["schema"]["entity_types"]), manifest["schema"]["scheme"]
    )
    if schema.num_tags != dims["num_tags"]:
        raise ShapeMismatchError("schema tag count does not match manifest dimensions")
    vocab = Vocabulary.from_lists(
        list(manifest["vocab"]["words"]),
        list(manifest["vocab"]["chars"]),
        manifest["vocab"]["min_count"],
    )
    embed = EmbeddingTable(
        dims["word_dim"],
        list(manifest["embedding"]["words"]),
        tensors.pop("embed_matrix"),
        tensors.pop("embed_unk"),
        manifest["embedding"]["oov_policy"],
    )
    model = ModelParams(
        config=config,
        schema=schema,
        vocab=vocab,
        embed=embed,
        char_emb=tensors["char_emb"],
        char_filters=tensors["char_filters"],
        char_bias=tensors["char_bias"],
        lstm_fwd=LstmParams(tensors["lstm_fwd_w"], tensors["lstm_fwd_u"], tensors["lstm_fwd_b"]),
        lstm_bwd=LstmParams(tensors["lstm_bwd_w"], tensors["lstm_bwd_u"], tensors["lstm_bwd_b"]),
        w_c=tensors["w_c"],
        b_c=tensors["b_c"],
        transitions=tensors["transitions"],
        word_delta=tensors.get("word_delta"),
        transition_mask=schema.transition_mask() if config.use_transition_mask else None,
    )
    return model
