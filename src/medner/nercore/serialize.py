"""Versioned model container: a text manifest followed by raw tensor payloads.

Layout:
    line 1   ``mednermodel <version> <manifest_nbytes>\\n``
    bytes    JSON manifest (dimensions, schema, vocab, embedding words,
             config snapshot, tensor directory); the schema's ``scheme``
             is always "IOB2", the only scheme a model tags in
    bytes    tensors concatenated in directory order, little-endian float64,
             C order, each with a sha256 checksum recorded in the directory

The embedding table is stored inside the container so a loaded model predicts
without external files, bit-identically to the saved one. The trainable
tensors come first, named and ordered as model.param_shapes lays out the flat
parameter buffer; the embedding matrix and unknown-word vector follow.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from collections.abc import Callable
from concurrent.futures import Future
from typing import TypeVar

import numpy as np

from ..corpus import LabelSchema, Vocabulary
from ..embeddings import EmbeddingTable
from ..errors import (
    ChecksumError,
    MednerError,
    ModelFormatError,
    NumericError,
    ShapeMismatchError,
    ValidationError,
    VersionMismatchError,
)
from . import lane
from .model import ModelParams, TrainConfig, param_shapes

MAGIC = "mednermodel"
FORMAT_VERSION = 1
_MAX_HEADER_BYTES = 64  # "mednermodel <version> <manifest_nbytes>\n" is far shorter

T = TypeVar("T")

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
        elif not set(map(type, value)) <= {kind[0]}:  # one C-level pass over word lists
            raise ModelFormatError(f"{where} holds an item that is not a {kind[0].__name__}")
    elif type(value) not in (kind if isinstance(kind, tuple) else (kind,)):
        raise ModelFormatError(f"{where} is a {type(value).__name__}")


def _sha256(blob) -> str:
    return hashlib.sha256(blob).hexdigest()


def _dimensions(model: ModelParams) -> dict:
    """The manifest's summary of the model's sizes."""
    cfg = model.config
    return {
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


def save_model(model: ModelParams, path: str) -> None:
    """Write the container to `path` atomically: to a temporary file in the
    same directory, then os.replace'd into place; on any exception the
    temporary file is removed and `path` is left as it was."""
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
                "sha256": _sha256(blob),
            }
        )
        payload.extend(blob)

    manifest = {
        "format_version": FORMAT_VERSION,
        "dimensions": _dimensions(model),
        "schema": {"entity_types": model.schema.entity_types, "scheme": "IOB2"},
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
        "config": model.config.to_dict(),
        "tensors": directory,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    # written to a new sibling and renamed over `path`, so a reader sees the
    # old container or the new one whole, and a failed save leaves the old one
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(f"{MAGIC} {FORMAT_VERSION} {len(manifest_bytes)}\n".encode("ascii"))
            fh.write(manifest_bytes)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_container(path: str) -> tuple[dict, np.ndarray]:
    """The container's type-checked manifest and its payload. The lane's
    worker parses and checks the manifest while this thread reads the
    payload with one readinto into an aligned buffer; the readinto releases
    the GIL at once, so the worker's Python work can start. The read's
    error wins over the manifest's."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        line = fh.readline(_MAX_HEADER_BYTES)
        if not line.endswith(b"\n"):
            raise ModelFormatError("missing container header")
        header = line.decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] != MAGIC:
            raise ModelFormatError("not a model container")
        if header[1] != str(FORMAT_VERSION):
            raise VersionMismatchError(
                f"container version {header[1]} is not supported (expected {FORMAT_VERSION})"
            )
        if not header[2].isdigit():  # after the ASCII decode only 0-9 pass: no sign
            raise ModelFormatError(f"bad manifest length {header[2]!r} in header")
        manifest_len = int(header[2])
        if manifest_len > size - len(line):
            raise ChecksumError("container truncated inside the manifest")
        manifest_bytes = fh.read(manifest_len)
        if len(manifest_bytes) != manifest_len:
            raise ChecksumError("container truncated inside the manifest")
        payload = np.empty(size - fh.tell(), dtype=np.uint8)
        with lane.ahead(_checked_manifest, manifest_bytes) as manifest:
            payload = payload[: fh.readinto(payload)]
            return manifest.result(), payload


def _checked_manifest(manifest_bytes: bytes) -> dict:
    """The manifest parsed and type-checked."""
    try:
        manifest = json.loads(manifest_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable manifest: {exc}")
    if isinstance(manifest, dict) and manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatchError(
            f"manifest format_version {manifest.get('format_version')!r} unsupported"
        )
    _check_json(manifest, _MANIFEST_TYPES, "manifest")
    if manifest["schema"]["scheme"] != "IOB2":
        raise ModelFormatError(
            f"manifest scheme {manifest['schema']['scheme']!r}: models tag in IOB2 only"
        )
    return manifest


def load_model(path: str, use: Callable[[ModelParams], T] = lambda model: model) -> T:
    """Read and verify a container, and return use(model) for the verified
    model; by default, the model itself. Every tensor is a view of one
    payload buffer.

    The payload is read once into an aligned buffer and nothing is copied, so
    the tensor directory must tile it exactly as save_model writes it: its
    names in save_model's order, the first tensor at offset 0, each next one
    where the previous ends, and the last ending at the payload's end. Views
    of a gapped or aliased directory could otherwise share memory, and the
    trainable tensors, which come first, are the model's flat parameter
    buffer only in that order.

    No shape is taken from the manifest: each tensor must have the shape
    param_shapes derives from the config, schema and vocabulary, and the
    manifest's `dimensions` must equal what save_model writes for the loaded
    model. Any disagreement, a config, schema, vocabulary or embedding table
    that does not validate, a scheme other than IOB2, or a tensor that is not
    finite raises a ModelFormatError.

    The lane's worker thread (lane.ahead) works beside this one (readinto
    and hashlib release the GIL): it parses the manifest while this thread
    reads the payload, then hashes the embedding matrix, most of the
    payload, while this thread checks the config, schema and vocabulary,
    the other tensors' checksums, the embedding table and the model, and
    then runs `use`.

    So `use` runs before the embedding matrix's digest is compared: on a
    model whose every other check has passed, but whose embedding matrix
    may still turn out corrupt. It must therefore have no effect outside
    memory (no file written, nothing printed); its result is returned only
    once the digest compares equal. The digest is compared where the
    directory walk reaches it, so a MednerError raised after that point,
    by the checks or by `use`, is raised only once the embedding matrix's
    checksum has passed: a container with several faults reports the same
    first one as a walk that compares every checksum in turn. The worker is
    joined before load_model returns or raises, and an exception it raises
    reaches the caller.
    """
    with lane.held():
        manifest, payload = _read_container(path)
        # the walk reaches only the first entry named embed_matrix, and hashes
        # it only inside the payload: then this hash of the same bytes is under way
        entry = next((e for e in manifest["tensors"] if e["name"] == "embed_matrix"), None)
        if not (entry and 0 <= entry["offset"] <= entry["offset"] + entry["nbytes"] <= len(payload)):
            return _verified_model(manifest, payload, None, use)
        blob = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        with lane.ahead(_sha256, blob) as embed_digest:
            return _verified_model(manifest, payload, embed_digest, use)


def _verified_model(
    manifest: dict, payload: np.ndarray, embed_digest: Future | None,
    use: Callable[[ModelParams], T],
) -> T:
    """load_model's checks of a type-checked manifest and its payload, and
    use(model) once they pass. embed_digest is the embedding matrix's sha256
    being hashed, or None when the directory places it outside the payload,
    where the walk stops first."""
    try:
        config = TrainConfig.from_dict(manifest["config"])
        schema = LabelSchema(manifest["schema"]["entity_types"])
        vocab = Vocabulary.from_lists(
            manifest["vocab"]["words"], manifest["vocab"]["chars"], manifest["vocab"]["min_count"]
        )
    except ValidationError as exc:
        raise ModelFormatError(f"invalid manifest: {exc}")
    words = manifest["embedding"]["words"]
    expected = param_shapes(config, schema.num_tags, vocab.num_chars, vocab.num_words) | {
        "embed_matrix": (len(words), config.word_dim),
        "embed_unk": (config.word_dim,),
    }
    order = list(expected)
    tensors: dict[str, np.ndarray] = {}
    end = 0
    owed = None  # embed_matrix's recorded sha256, once the walk has reached it
    try:
        for k, entry in enumerate(manifest["tensors"]):
            name = entry["name"]
            if name != (order[k] if k < len(order) else None):
                raise ModelFormatError(
                    f"tensor {name!r} at directory entry {k} breaks save_model's order {order}"
                )
            if entry["offset"] != end:
                raise ModelFormatError(
                    f"tensor {name}: offset {entry['offset']} is not {end}, where the "
                    "previous tensor ends"
                )
            start, end = end, end + entry["nbytes"]
            if not start <= end <= len(payload):
                raise ChecksumError(f"tensor {name}: payload truncated")
            blob = payload[start:end]
            if name == "embed_matrix":
                owed = entry["sha256"]
            elif _sha256(blob) != entry["sha256"]:
                raise ChecksumError(f"tensor {name}: checksum mismatch")
            shape = tuple(entry["shape"])
            if min(shape, default=0) < 0 or entry["nbytes"] != 8 * math.prod(shape):
                raise ShapeMismatchError(f"tensor {name}: shape {shape} does not fit payload")
            if shape != expected[name]:
                raise ShapeMismatchError(
                    f"tensor {name}: shape {shape} does not match the {expected[name]} that "
                    "the config, schema and vocabulary give"
                )
            tensors[name] = blob.view("<f8").reshape(shape)
        if end != len(payload):
            raise ModelFormatError(f"{len(payload) - end} bytes follow the last tensor")
        if len(tensors) != len(order):
            raise ShapeMismatchError(f"container is missing tensors: {order[len(tensors):]}")

        try:
            embed = EmbeddingTable(
                config.word_dim, words, tensors["embed_matrix"], tensors["embed_unk"],
                manifest["embedding"]["oov_policy"],
            )
        except ValidationError as exc:
            raise ModelFormatError(str(exc))
        model = ModelParams(
            config, schema, vocab, embed,
            # the trainable tensors tile the payload up to the embedding matrix
            payload[: manifest["tensors"][order.index("embed_matrix")]["offset"]].view("<f8"),
        )
        if manifest["dimensions"] != _dimensions(model):
            raise ShapeMismatchError(
                f"manifest dimensions {manifest['dimensions']} disagree with the "
                f"{_dimensions(model)} of its config, schema, vocabulary and tensors"
            )
        try:
            model.assert_finite()  # checksums vouch for the bytes, not their values
        except NumericError as exc:
            raise ModelFormatError(str(exc))
        result = use(model)
    except MednerError:
        if owed is not None and embed_digest.result() != owed:
            raise ChecksumError("tensor embed_matrix: checksum mismatch") from None
        raise
    if embed_digest.result() != owed:
        raise ChecksumError("tensor embed_matrix: checksum mismatch")
    return result
