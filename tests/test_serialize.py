import dataclasses
import hashlib
import itertools
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import medner.corpus
from medner.cli import main
from medner.corpus import Corpus, LabelSchema, build_vocab
from medner.embeddings import EmbeddingTable, load_embeddings
from medner.errors import (
    ChecksumError,
    MednerError,
    ModelFormatError,
    ShapeMismatchError,
    ValidationError,
    VersionMismatchError,
)
from medner.nercore import lane, serialize
from medner.nercore.model import init_model, tag
from medner.nercore.serialize import load_model, save_model
from medner.nercore.training import ADAM_BLOCK

from conftest import make_sentence, tiny_config


@pytest.fixture()
def saved(trained_tiny_model, tmp_path):
    model, corpus, _ = trained_tiny_model
    path = tmp_path / "model.medner"
    save_model(model, str(path))
    return model, corpus, path


def split_container(data: bytes) -> tuple[dict, bytes]:
    """The container's manifest and payload."""
    newline = data.index(b"\n")
    start = newline + 1 + int(data[:newline].split()[2])
    return json.loads(data[newline + 1 : start]), data[start:]


def join_container(manifest, payload: bytes) -> bytes:
    return container_of(json.dumps(manifest).encode("utf-8"), payload)


def container_of(manifest: bytes, payload: bytes) -> bytes:
    """A format-2 container of these bytes, its header's digest made to match."""
    digest = hashlib.sha256(manifest).hexdigest().encode("ascii")
    return b"mednermodel 2 %d %s\n" % (len(manifest), digest) + manifest + payload


def replace_in_manifest(data: bytes, old: bytes, new: bytes) -> bytes:
    """The container with the first `old` in its manifest's bytes replaced by
    `new`, the header's digest updated to match."""
    newline = data.index(b"\n")
    start = newline + 1 + int(data[:newline].split()[2])
    return container_of(data[newline + 1 : start].replace(old, new, 1), data[start:])


def rewrite_manifest(path, edit):
    """Replace the container's manifest by edit(manifest), fixing the header."""
    manifest, payload = split_container(path.read_bytes())
    path.write_bytes(join_container(edit(manifest), payload))


def _string_config_value(manifest):
    manifest["config"]["lstm_size"] = str(manifest["config"]["lstm_size"])
    return manifest


def _aliased_tensors(manifest):
    """Point lstm_bwd_b at lstm_fwd_b's bytes, checksum included."""
    entries = {e["name"]: e for e in manifest["tensors"]}
    for key in ("offset", "sha256"):
        entries["lstm_bwd_b"][key] = entries["lstm_fwd_b"][key]
    return manifest


def _gapped_tensors(manifest):
    """Leave 8 unread bytes between char_emb and char_filters."""
    for entry in manifest["tensors"][1:]:
        entry["offset"] += 8
    return manifest


def _negative_dimensions(manifest):
    """Negate char_emb's two dimensions everywhere they are recorded."""
    dims = manifest["dimensions"]
    dims["num_chars"], dims["char_dim"] = -dims["num_chars"], -dims["char_dim"]
    manifest["config"]["char_dim"] = dims["char_dim"]
    entry = next(e for e in manifest["tensors"] if e["name"] == "char_emb")
    entry["shape"] = [dims["num_chars"], dims["char_dim"]]
    return manifest


def _vocab_longer_than_char_emb(manifest):
    """One more vocabulary character than char_emb has rows."""
    manifest["vocab"]["chars"].append("\u2603")
    return manifest


def _dimensions_disagree(manifest):
    """A dimensions block that no longer matches the tensors it describes."""
    manifest["dimensions"]["embed_rows"] += 1
    return manifest


def _config_out_of_range(manifest):
    manifest["config"]["dropout"] = 2.0
    return manifest


def _unknown_oov_policy(manifest):
    manifest["embedding"]["oov_policy"] = "bogus"
    return manifest


def _duplicate_embedding_word(manifest):
    """The second embedding row's word set to the first's, so one of the
    two rows could never be looked up."""
    words = manifest["embedding"]["words"]
    words[1] = words[0]
    return manifest


MALFORMED_MANIFESTS = {
    "no_dimensions": lambda m: {k: v for k, v in m.items() if k != "dimensions"},
    "json_list": lambda m: [m],
    "string_config_value": _string_config_value,
    "aliased_tensors": _aliased_tensors,
    "gapped_tensors": _gapped_tensors,
    "negative_dimensions": _negative_dimensions,
    "vocab_longer_than_char_emb": _vocab_longer_than_char_emb,
    "config_out_of_range": _config_out_of_range,
    "dimensions_disagree": _dimensions_disagree,
    "unknown_oov_policy": _unknown_oov_policy,
    "duplicate_embedding_word": _duplicate_embedding_word,
}


def replace_header(data: bytes, header: bytes) -> bytes:
    return header + data[data.index(b"\n") + 1 :]


def _repeated_tensor(data: bytes) -> bytes:
    """Append a second, contiguous copy of b_c: entry and bytes."""
    manifest, payload = split_container(data)
    entry = next(e for e in manifest["tensors"] if e["name"] == "b_c")
    manifest["tensors"].append(dict(entry, offset=len(payload)))
    copy = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
    return join_container(manifest, payload + copy)


def _reordered_tensors(data: bytes) -> bytes:
    """Swap char_emb and char_filters, bytes and entries, keeping the
    directory contiguous and every checksum valid."""
    manifest, payload = split_container(data)
    first, second = manifest["tensors"][:2]
    a = payload[: first["nbytes"]]
    b = payload[first["nbytes"] : first["nbytes"] + second["nbytes"]]
    manifest["tensors"][:2] = [dict(second, offset=0), dict(first, offset=len(b))]
    return join_container(manifest, b + a + payload[len(a) + len(b) :])


def _non_finite_tensor(data: bytes, name: str) -> bytes:
    """A NaN in tensor `name`'s first entry, its checksum updated to match."""
    manifest, payload = split_container(data)
    entry = next(e for e in manifest["tensors"] if e["name"] == name)
    start = entry["offset"]
    blob = np.float64(np.nan).tobytes() + payload[start + 8 : start + entry["nbytes"]]
    entry["sha256"] = hashlib.sha256(blob).hexdigest()
    return join_container(manifest, payload[:start] + blob + payload[start + entry["nbytes"] :])


def _encoded(data: bytes, name: str, encoding: str) -> bytes:
    """Tensor `name`'s directory entry claiming `encoding`, its bytes left as they are."""
    manifest, payload = split_container(data)
    next(e for e in manifest["tensors"] if e["name"] == name)["encoding"] = encoding
    return join_container(manifest, payload)


# Whole-file corruptions that no manifest edit expresses, edits of the
# manifest's bytes, and tensor encodings the reader must refuse.
MALFORMED_CONTAINERS = {
    "appended_bytes": lambda data: data + bytes(8),
    "negative_manifest_length": lambda data: replace_header(data, b"mednermodel 1 -5\n"),
    "huge_manifest_length": lambda data: replace_header(data, b"mednermodel 1 99999999999\n"),
    "repeated_tensor": _repeated_tensor,
    "reordered_tensors": _reordered_tensors,
    "non_finite_tensor": lambda data: _non_finite_tensor(data, "w_c"),
    "non_finite_embed_matrix": lambda data: _non_finite_tensor(data, "embed_matrix"),
    "non_finite_embed_unk": lambda data: _non_finite_tensor(data, "embed_unk"),
    # the header's digest updated, so every checksum still matches
    "iob1_scheme": lambda data: replace_in_manifest(
        data, b'"scheme": "IOB2"', b'"scheme": "IOB1"'),
    "decimal_encoding_on_other_tensor": lambda data: _encoded(data, "w_c", "i32e-5"),
    "ten_decimals": lambda data: _encoded(data, "embed_matrix", "i32e-10"),
    "non_digit_decimals": lambda data: _encoded(data, "embed_matrix", "i32e-x"),
    "unknown_encoding": lambda data: _encoded(data, "embed_matrix", "f32"),
    # the float64 matrix's 8 bytes a value, where int32 codes take 4
    "decimal_nbytes_off": lambda data: _encoded(data, "embed_matrix", "i32e-3"),
}


def deidentify_exit_code(model_path, tmp_path) -> int:
    note = tmp_path / "note.txt"
    note.write_text("patient took 250mg daily.", encoding="utf-8")
    return main(["deidentify", "--input", str(note), "--model", str(model_path),
                 "--out-dir", str(tmp_path / "deid")])


def container_tensors(model) -> dict[str, np.ndarray]:
    """Every tensor the container stores, by its directory name."""
    return dict(model.tensors(), embed_matrix=model.embed.matrix,
                embed_unk=model.embed.unk_vector)


def random_word(rng):
    alphabet = "abcdefg0123456789-"
    n = int(rng.integers(1, 8))
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))


class TestRoundTrip:
    def test_predictions_bit_identical(self, saved):
        model, _, path = saved
        loaded = load_model(str(path))
        rng = np.random.default_rng(0)
        for _ in range(100):
            words = [random_word(rng) for _ in range(int(rng.integers(1, 9)))]
            tags_a, marg_a = tag(model, [words], marginals=True)[0]
            tags_b, marg_b = tag(loaded, [words], marginals=True)[0]
            assert tags_a == tags_b
            np.testing.assert_array_equal(marg_a, marg_b)

    def test_tensors_bit_identical(self, saved):
        model, _, path = saved
        loaded = load_model(str(path))
        for name, tensor in model.tensors().items():
            np.testing.assert_array_equal(tensor, loaded.tensors()[name], err_msg=name)
        np.testing.assert_array_equal(model.embed.matrix, loaded.embed.matrix)
        np.testing.assert_array_equal(model.embed.unk_vector, loaded.embed.unk_vector)
        assert loaded.vocab.word_to_index == model.vocab.word_to_index
        assert loaded.schema.tags == model.schema.tags
        assert loaded.config.to_dict() == model.config.to_dict()

    def test_save_is_deterministic(self, saved, tmp_path):
        model, _, path = saved
        other = tmp_path / "again.medner"
        save_model(model, str(other))
        assert path.read_bytes() == other.read_bytes()


class TestFormatV1:
    """A committed container, saved by the format-v1 code of commit a6fc81d
    (word_dim 8, char_dim 4, 4 filters, LSTM 8, trainable word delta), with
    the tags that code gave five sentences. It guards the format against
    changes to the code that writes and reads it."""

    DATA = Path(__file__).parent / "data"

    def test_tags_unchanged(self):
        model = load_model(str(self.DATA / "tiny_v1.medner"))
        expected = json.loads((self.DATA / "tiny_v1_tags.json").read_text(encoding="utf-8"))
        tagged = tag(model, [e["words"] for e in expected], marginals=False)
        assert [tags for tags, _ in tagged] == [e["tags"] for e in expected]

    def test_resave_is_byte_identical(self, tmp_path):
        """save_model writes format 2, so a re-saved v1 container is a new
        file; every tensor must load back from it byte for byte, and the
        model must tag the same."""
        model = load_model(str(self.DATA / "tiny_v1.medner"))
        again = tmp_path / "again.medner"
        save_model(model, str(again))
        loaded = load_model(str(again))
        for name, tensor in container_tensors(model).items():
            assert container_tensors(loaded)[name].tobytes() == tensor.tobytes(), name
        expected = json.loads((self.DATA / "tiny_v1_tags.json").read_text(encoding="utf-8"))
        tagged = tag(loaded, [e["words"] for e in expected], marginals=False)
        assert [tags for tags, _ in tagged] == [e["tags"] for e in expected]


class TestFormatV2:
    """A committed format-2 container: tiny_v1's model with its embedding
    table rounded to 4 decimals and its first value set to -0.0, so that
    save_model stores the table as "i32e-4", with the tags it gives
    tiny_v1's five sentences."""

    DATA = Path(__file__).parent / "data"

    def test_tags_unchanged(self):
        model = load_model(str(self.DATA / "tiny_v2.medner"))
        expected = json.loads((self.DATA / "tiny_v2_tags.json").read_text(encoding="utf-8"))
        tagged = tag(model, [e["words"] for e in expected], marginals=False)
        assert [tags for tags, _ in tagged] == [e["tags"] for e in expected]

    def test_resave_is_byte_identical(self, tmp_path):
        path = self.DATA / "tiny_v2.medner"
        again = tmp_path / "again.medner"
        save_model(load_model(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_table_is_decimal_coded(self):
        path = self.DATA / "tiny_v2.medner"
        manifest, _ = split_container(path.read_bytes())
        encodings = {e["name"]: e["encoding"] for e in manifest["tensors"]}
        assert encodings.pop("embed_matrix") == "i32e-4"
        assert set(encodings.values()) == {"f64"}
        table = load_model(str(path)).embed
        assert table.decimals == 4 and table.rows.dtype == np.int32
        assert table.matrix[0, 0] == 0.0 and np.signbit(table.matrix[0, 0])
        assert np.signbit(table.lookup(table.words[0])[0])


class TestZeroCopyLoad:
    """load_model returns views of one payload buffer; each must act as its own array."""

    def test_tensors_contiguous_aligned_writable(self, saved):
        _, _, path = saved
        for name, tensor in container_tensors(load_model(str(path))).items():
            flags = tensor.flags
            assert flags.c_contiguous and flags.aligned and flags.writeable, name
            assert tensor.dtype == np.float64, name

    def test_no_two_tensors_share_memory(self, saved):
        _, _, path = saved
        tensors = container_tensors(load_model(str(path)))
        for (a, x), (b, y) in itertools.combinations(tensors.items(), 2):
            assert not np.shares_memory(x, y), (a, b)

    def test_resave_is_byte_identical(self, saved, tmp_path):
        _, _, path = saved
        again = tmp_path / "again.medner"
        save_model(load_model(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_mutation_stays_in_one_tensor(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        loaded = load_model(str(path))
        tensors = container_tensors(loaded)
        before = {name: t.copy() for name, t in tensors.items()}
        tensors["lstm_fwd_b"] += 1.0
        assert path.read_bytes() == data
        for name, tensor in tensors.items():
            if name != "lstm_fwd_b":
                np.testing.assert_array_equal(tensor, before[name], err_msg=name)
        np.testing.assert_array_equal(loaded.lstm_fwd.b, before["lstm_fwd_b"] + 1.0)


class TestCorruption:
    def test_truncated_payload(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        path.write_bytes(data[:-200])
        with pytest.raises(ChecksumError):
            load_model(str(path))

    def test_flipped_payload_byte(self, saved):
        _, _, path = saved
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_model(str(path))

    def test_manifest_dimension_edited(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        assert b'"lstm_size": 16' in data
        path.write_bytes(replace_in_manifest(data, b'"lstm_size": 16', b'"lstm_size": 61'))
        with pytest.raises(ShapeMismatchError):
            load_model(str(path))

    def test_version_mismatch(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        assert data.startswith(b"mednermodel 2 ")
        path.write_bytes(data.replace(b"mednermodel 2 ", b"mednermodel 9 ", 1))
        with pytest.raises(VersionMismatchError):
            load_model(str(path))

    @pytest.mark.parametrize("kind", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exits_4(self, saved, tmp_path, kind):
        _, _, path = saved
        rewrite_manifest(path, MALFORMED_MANIFESTS[kind])
        with pytest.raises(ModelFormatError):
            load_model(str(path))
        assert deidentify_exit_code(path, tmp_path) == 4

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CONTAINERS))
    def test_malformed_container_exits_4(self, saved, tmp_path, kind):
        _, _, path = saved
        path.write_bytes(MALFORMED_CONTAINERS[kind](path.read_bytes()))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError):
                load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # nothing is allocated by the header's number, only by the file's size
        assert peak < 4 * path.stat().st_size
        assert deidentify_exit_code(path, tmp_path) == 4
        assert not (tmp_path / "deid" / "deidentified.txt").exists()

    def test_rewritten_manifest_still_loads(self, saved):
        _, _, path = saved
        rewrite_manifest(path, lambda m: m)
        load_model(str(path))

    def test_wrong_magic(self, saved):
        _, _, path = saved
        path.write_bytes(b"something else entirely\n")
        with pytest.raises(ModelFormatError):
            load_model(str(path))


def flip_byte(data: bytes, name: str, at: int = 0) -> bytes:
    """Flip one byte of tensor `name`, leaving its recorded checksum."""
    manifest, payload = split_container(data)
    entry = next(e for e in manifest["tensors"] if e["name"] == name)
    index = len(data) - len(payload) + entry["offset"] + at
    return data[:index] + bytes([data[index] ^ 0xFF]) + data[index + 1 :]


def nan_embedding_row(data: bytes) -> bytes:
    """A NaN in the embedding matrix's first row, its checksum left as it was."""
    manifest, payload = split_container(data)
    entry = next(e for e in manifest["tensors"] if e["name"] == "embed_matrix")
    index = len(data) - len(payload) + entry["offset"]
    return data[:index] + np.float64(np.nan).tobytes() + data[index + 8 :]


class TestVerifyWorker:
    """load_model hashes the embedding matrix on a worker thread while this
    thread does the rest; it must report what a walk that compares every
    checksum in directory order reports, and leave no thread behind."""

    # each container has two faults; the first in directory order is reported
    TWO_FAULTS = {
        "trainable_and_embed_matrix": (
            lambda data: flip_byte(flip_byte(data, "embed_matrix", 100), "w_c"),
            "tensor w_c: checksum mismatch",
        ),
        "embed_matrix_and_truncated_embed_unk": (
            lambda data: flip_byte(data, "embed_matrix")[:-8],
            "tensor embed_matrix: checksum mismatch",
        ),
        "non_finite_row_and_embed_matrix_checksum": (
            nan_embedding_row, "tensor embed_matrix: checksum mismatch",
        ),
    }

    @pytest.mark.parametrize("kind", sorted(TWO_FAULTS))
    def test_first_fault_is_reported(self, saved, kind):
        _, _, path = saved
        corrupt, message = self.TWO_FAULTS[kind]
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(ChecksumError) as exc:
            load_model(str(path))
        assert str(exc.value) == message

    def test_non_finite_row_alone_is_the_table_error(self, saved):
        _, _, path = saved
        manifest, payload = split_container(nan_embedding_row(path.read_bytes()))
        entry = next(e for e in manifest["tensors"] if e["name"] == "embed_matrix")
        blob = payload[entry["offset"] : entry["offset"] + entry["nbytes"]]
        entry["sha256"] = hashlib.sha256(blob).hexdigest()
        path.write_bytes(join_container(manifest, payload))
        with pytest.raises(ModelFormatError, match="embedding table contains non-finite values"):
            load_model(str(path))

    def test_worker_error_reaches_the_caller(self, saved, monkeypatch):
        _, _, path = saved
        sha256 = serialize._sha256

        def fails_on_worker(blob):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker hash failed")
            return sha256(blob)

        monkeypatch.setattr(serialize, "_sha256", fails_on_worker)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="worker hash failed"):
            load_model(str(path))
        assert threading.active_count() == threads

    # a clean load, faults found while the payload is read (json_list,
    # string_config_value), before the walk and after it
    @pytest.mark.parametrize("kind", [None, "json_list", "string_config_value",
                                      "config_out_of_range", "dimensions_disagree"])
    def test_worker_is_joined(self, saved, kind):
        _, _, path = saved
        threads = threading.active_count()
        if kind is None:
            load_model(str(path))
        else:
            rewrite_manifest(path, MALFORMED_MANIFESTS[kind])
            with pytest.raises(ModelFormatError):
                load_model(str(path))
        assert threading.active_count() == threads

    @pytest.mark.lane
    def test_round_trip_under_fast_switching(self, saved):
        model, _, path = saved
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads interleave throughout the load
        try:
            loaded = load_model(str(path))
        finally:
            sys.setswitchinterval(interval)
        for name, tensor in container_tensors(model).items():
            np.testing.assert_array_equal(container_tensors(loaded)[name], tensor, err_msg=name)


class FailingRead:
    """A container file whose payload read raises OSError."""

    def __init__(self, fh):
        self.fh = fh

    def readinto(self, buffer):
        raise OSError("payload read failed")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestUse:
    """load_model(path, use) runs use(model) on this thread while the worker
    still hashes the embedding matrix, and returns its result only once that
    checksum has passed."""

    @staticmethod
    def tagger(calls):
        def use(model):
            calls.append(model)
            return tag(model, [["patient", "took", "250mg"]], marginals=True)[0]
        return use

    def test_error_of_use_reaches_the_caller(self, saved):
        _, _, path = saved

        def use(model):
            raise ValidationError("use failed")

        threads = threading.active_count()
        with pytest.raises(ValidationError, match="use failed"):
            load_model(str(path), use=use)
        assert threading.active_count() == threads

    def test_checksum_error_wins_over_the_error_of_use(self, saved):
        _, _, path = saved
        path.write_bytes(flip_byte(path.read_bytes(), "embed_matrix"))
        calls = []

        def use(model):
            calls.append(model)
            raise ValidationError("use failed")

        threads = threading.active_count()
        with pytest.raises(ChecksumError, match="^tensor embed_matrix: checksum mismatch$"):
            load_model(str(path), use=use)
        assert len(calls) == 1  # the fault was found only after use had run
        assert threading.active_count() == threads

    def test_corrupt_embed_matrix_discards_the_result_of_use(self, saved):
        _, _, path = saved
        path.write_bytes(flip_byte(path.read_bytes(), "embed_matrix"))
        calls = []
        threads = threading.active_count()
        with pytest.raises(ChecksumError, match="^tensor embed_matrix: checksum mismatch$"):
            load_model(str(path), use=self.tagger(calls))
        assert len(calls) == 1
        assert threading.active_count() == threads

    @pytest.mark.lane
    def test_returns_the_result_of_use_under_fast_switching(self, saved):
        model, _, path = saved
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # use interleaves with the worker's hash
        try:
            tags, marg = load_model(str(path), use=self.tagger(calls))
        finally:
            sys.setswitchinterval(interval)
        expected_tags, expected_marg = tag(model, [["patient", "took", "250mg"]], True)[0]
        assert len(calls) == 1 and tags == expected_tags
        np.testing.assert_array_equal(marg, expected_marg)

    # the read's error is the parent's first error even when the manifest,
    # parsed while the read runs, is malformed too
    @pytest.mark.parametrize("kind", [None, "json_list"])
    def test_read_error_reaches_the_caller(self, saved, monkeypatch, kind):
        _, _, path = saved
        if kind is not None:
            rewrite_manifest(path, MALFORMED_MANIFESTS[kind])
        opened = []

        def failing_open(*args):
            opened.append(FailingRead(open(*args)))
            return opened[-1]

        monkeypatch.setattr(serialize, "open", failing_open, raising=False)
        threads = threading.active_count()
        with pytest.raises(OSError, match="payload read failed"):
            load_model(str(path))
        assert len(opened) == 1 and opened[0].fh.closed
        assert threading.active_count() == threads


class TestAtomicSave:
    """save_model writes a temporary sibling and replaces the target with it,
    so a failed save leaves a previous container byte for byte."""

    @staticmethod
    def other_model(model):
        """`model` with one changed weight, so its container differs."""
        flat = model.flat.copy()
        flat[0] += 1.0
        return dataclasses.replace(model, flat=flat)

    @staticmethod
    def counting_open(monkeypatch, fail_at):
        """Make the fail_at-th write of files corpus.write_files opens raise OSError;
        returns the list of writes made so far."""
        writes = []

        class Counted:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(len(data))
                if len(writes) == fail_at:
                    raise OSError("disk full")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(medner.corpus, "open", lambda *args: Counted(open(*args)),
                            raising=False)
        return writes

    def test_failed_write_keeps_the_previous_container(self, saved, monkeypatch):
        model, _, path = saved
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            writes = self.counting_open(patch, fail_at=0)
            save_model(model, str(path.with_name("count.medner")))
        path.with_name("count.medner").unlink()
        assert len(writes) >= 3
        for k in range(1, len(writes) + 1):
            with monkeypatch.context() as patch:
                self.counting_open(patch, fail_at=k)
                with pytest.raises(OSError, match="disk full"):
                    save_model(self.other_model(model), str(path))
            assert path.read_bytes() == before, k
            assert [p.name for p in path.parent.iterdir()] == [path.name], k

    def test_failed_replace_keeps_the_previous_container(self, saved, monkeypatch):
        model, _, path = saved
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(medner.corpus.os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            save_model(self.other_model(model), str(path))
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_save_replaces_the_previous_container(self, saved):
        model, _, path = saved
        other = self.other_model(model)
        save_model(other, str(path))
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        np.testing.assert_array_equal(load_model(str(path)).flat, other.flat)


class TestFuzz:
    """Every corrupted container either loads or raises a MednerError."""

    @staticmethod
    def check(path, data: bytes) -> None:
        path.write_bytes(data)
        try:
            load_model(str(path))
        except MednerError:
            pass

    def test_truncated_anywhere(self, saved):
        _, _, path = saved
        data = path.read_bytes()

        @settings(max_examples=40, deadline=None)
        @given(st.integers(0, len(data) - 1))
        def run(cut):
            self.check(path, data[:cut])

        run()

    def test_byte_flipped_anywhere(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        manifest_end = len(data) - len(split_container(data)[1])

        # half the flips land in the header and manifest, which are a small
        # part of the file but hold every field the loader checks
        @settings(max_examples=80, deadline=None)
        @given(st.one_of(st.integers(0, manifest_end - 1), st.integers(0, len(data) - 1)),
               st.integers(1, 255))
        def run(index, mask):
            flipped = bytearray(data)
            flipped[index] ^= mask
            self.check(path, bytes(flipped))

        run()

    def test_header_overwritten(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        headers = st.one_of(
            st.binary(max_size=80),
            st.builds("mednermodel {} {}\n".format,
                      st.sampled_from(["1", "0", "2", "-1", "01"]),
                      st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=6))
                      ).map(lambda h: h.encode("utf-8")),
        )

        @settings(max_examples=40, deadline=None)
        @given(headers)
        def run(header):
            self.check(path, replace_header(data, header))

        run()


def model_with_table(table: EmbeddingTable):
    """An untrained model of one entity type around `table`, as small as
    its table allows."""
    corpus = Corpus([make_sentence(["a"], ["B-X"])], LabelSchema(["X"]))
    config = tiny_config(word_dim=table.dimension, lstm_size=1, use_char_features=False,
                         char_dim=1, num_filters=1)
    return init_model(config, corpus.schema, build_vocab(corpus), table)


def embed_encoding(path) -> str:
    manifest, _ = split_container(path.read_bytes())
    return next(e["encoding"] for e in manifest["tensors"] if e["name"] == "embed_matrix")


class TestManifestDigest:
    """A format-2 header carries the manifest's sha256, compared before the
    manifest is parsed, so no changed byte of the header or the manifest
    loads."""

    def test_every_bit_flip_of_header_and_manifest_is_an_error(self, tmp_path):
        table = EmbeddingTable(1, ["a"], np.array([[0.5]]), np.array([0.5]), "unk_row")
        path = tmp_path / "small.medner"
        save_model(model_with_table(table), str(path))
        data = path.read_bytes()
        manifest_end = len(data) - len(split_container(data)[1])
        loaded = []
        # the held lane keeps one worker up across the loads
        with lane.held(), open(path, "r+b") as fh:
            for index in range(manifest_end):
                for bit in range(8):
                    fh.seek(index)
                    fh.write(bytes([data[index] ^ 1 << bit]))
                    fh.flush()
                    try:
                        load_model(str(path))
                        loaded.append((index, bit))
                    except MednerError:
                        pass
                fh.seek(index)
                fh.write(data[index : index + 1])
        assert 8 * manifest_end > 20_000 and not loaded

    def test_flipped_entity_type_exits_4_and_writes_nothing(self, saved, tmp_path):
        _, _, path = saved
        data = bytearray(path.read_bytes())
        index = data.index(b'"entity_types": ["') + len(b'"entity_types": ["')
        data[index] ^= 0x20  # "Dosage" becomes "dosage", a valid schema
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError, match="^manifest: checksum mismatch$"):
            load_model(str(path))
        assert deidentify_exit_code(path, tmp_path) == 4
        assert not (tmp_path / "deid").exists()

    def test_header_and_manifest_versions_agree(self, saved):
        _, _, path = saved
        manifest, payload = split_container(path.read_bytes())
        new = json.dumps(manifest).encode("utf-8")
        path.write_bytes(b"mednermodel 1 %d\n" % len(new) + new + payload)
        with pytest.raises(VersionMismatchError, match="format_version 2 is not the header's 1$"):
            load_model(str(path))
        manifest["format_version"] = 1
        path.write_bytes(join_container(manifest, payload))
        with pytest.raises(VersionMismatchError, match="format_version 1 is not the header's 2$"):
            load_model(str(path))


def decimal(code: int | None, places: int) -> str:
    """The text of code / 10**places printed with `places` decimals; None is -0."""
    digits = str(abs(code or 0)).rjust(places + 1, "0")
    whole, frac = digits[: len(digits) - places], digits[len(digits) - places :]
    sign = "-" if code is None or code < 0 else ""
    return sign + whole + ("." + frac if places else "")


def places_needed(code: int | None, places: int) -> int:
    """The fewest decimals that print code / 10**places exactly."""
    if not code:
        return 0
    digits = str(abs(code))
    return max(0, places - (len(digits) - len(digits.rstrip("0"))))


def write_table(path, values: list[list[str]]) -> None:
    lines = [f"w{i} " + " ".join(row) for i, row in enumerate(values)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestDecimalEncoding:
    """save_model stores an embedding matrix of decimals as int32 codes with
    the fewest decimals that give back every float64 bit, and any other
    matrix as float64; either loads back bit for bit."""

    @staticmethod
    def round_trip(tmp_path, values: list[list[str]]) -> str:
        """Load `values` as a text table, save and load it; the encoding."""
        write_table(tmp_path / "vectors.txt", values)
        table = load_embeddings(str(tmp_path / "vectors.txt"), len(values[0]))
        parsed = np.array([[float(v) for v in row] for row in values])
        assert table.matrix.tobytes() == parsed.tobytes()
        path = tmp_path / "model.medner"
        save_model(model_with_table(table), str(path))
        assert load_model(str(path)).embed.matrix.tobytes() == parsed.tobytes()
        return embed_encoding(path)

    def test_decimal_tables_are_coded_exactly(self, tmp_path):
        code = st.one_of(st.integers(-999, 999), st.integers(-(2**31 - 1), 2**31 - 1),
                         st.none())  # None is -0.0

        @settings(max_examples=60, deadline=None)
        @given(st.integers(0, 9), st.integers(1, 4), st.integers(1, 4), st.data())
        def run(places, rows, dim, data):
            codes = data.draw(st.lists(st.lists(code, min_size=dim, max_size=dim),
                                       min_size=rows, max_size=rows))
            values = [[decimal(k, places) for k in row] for row in codes]
            fewest = max(places_needed(k, places) for row in codes for k in row)
            assert self.round_trip(tmp_path, values) == f"i32e-{fewest}"

        run()

    @pytest.mark.parametrize("value", [
        repr(0.1 + 0.2),   # 0.30000000000000004
        "3000000000",      # past int32 at every d
        "0.0000000001",    # needs d = 10
    ])
    def test_other_tables_are_float64(self, tmp_path, value):
        values = [["0.5", "-0", "1"], [value, "0.25", "-0.125"]]
        assert self.round_trip(tmp_path, values) == "f64"

    # each is also a MALFORMED_CONTAINERS case; here the error must name it
    @pytest.mark.parametrize("name, encoding", [
        ("w_c", "i32e-5"), ("embed_matrix", "i32e-10"), ("embed_matrix", "i32e-x"),
        ("embed_matrix", "f32"),
    ])
    def test_refused_encoding_is_named(self, saved, name, encoding):
        _, _, path = saved
        path.write_bytes(_encoded(path.read_bytes(), name, encoding))
        with pytest.raises(ModelFormatError, match=f"^tensor {name}: encoding '{encoding}' is not"):
            load_model(str(path))

    def test_flipped_code_is_a_checksum_error(self, tmp_path):
        path = tmp_path / "tiny_v2.medner"
        data = (TestFormatV2.DATA / "tiny_v2.medner").read_bytes()
        assert embed_encoding(TestFormatV2.DATA / "tiny_v2.medner") == "i32e-4"
        path.write_bytes(flip_byte(data, "embed_matrix", 13))
        with pytest.raises(ChecksumError, match="^tensor embed_matrix: checksum mismatch$"):
            load_model(str(path))

    def test_save_holds_the_codes_and_a_few_blocks(self, tmp_path):
        """save_model's peak is the 8 MB of int32 codes of a 20,000 x 100
        table, plus json.dumps's peak for the manifest, plus a few
        ADAM_BLOCK-sized float64 temporaries; a whole-matrix temporary
        (16 MB) or a copy of the payload would exceed it."""
        matrix = np.round(np.random.default_rng(0).normal(size=(20_000, 100)), 5)
        words = [f"w{i}" for i in range(len(matrix))]
        model = model_with_table(EmbeddingTable(100, words, matrix, matrix.mean(axis=0)))
        path = tmp_path / "model.medner"
        tracemalloc.start()
        try:
            save_model(model, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert embed_encoding(path) == "i32e-5"
        manifest, _ = split_container(path.read_bytes())
        tracemalloc.start()
        try:
            json.dumps(manifest, sort_keys=True).encode("utf-8")
            manifest_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * matrix.size + manifest_peak + 4 * (8 * ADAM_BLOCK)
