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
from medner.errors import (
    ChecksumError,
    MednerError,
    ModelFormatError,
    ShapeMismatchError,
    ValidationError,
    VersionMismatchError,
)
from medner.nercore import serialize
from medner.nercore.model import tag
from medner.nercore.serialize import load_model, save_model


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
    new = json.dumps(manifest).encode("utf-8")
    return b"mednermodel 1 %d\n" % len(new) + new + payload


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


# Whole-file corruptions that no manifest edit expresses, and in-place edits
# of the manifest's bytes.
MALFORMED_CONTAINERS = {
    "appended_bytes": lambda data: data + bytes(8),
    "negative_manifest_length": lambda data: replace_header(data, b"mednermodel 1 -5\n"),
    "huge_manifest_length": lambda data: replace_header(data, b"mednermodel 1 99999999999\n"),
    "repeated_tensor": _repeated_tensor,
    "reordered_tensors": _reordered_tensors,
    "non_finite_tensor": lambda data: _non_finite_tensor(data, "w_c"),
    "non_finite_embed_matrix": lambda data: _non_finite_tensor(data, "embed_matrix"),
    "non_finite_embed_unk": lambda data: _non_finite_tensor(data, "embed_unk"),
    # same length, so every checksum and the header still match
    "iob1_scheme": lambda data: data.replace(b'"scheme": "IOB2"', b'"scheme": "IOB1"', 1),
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
        path = self.DATA / "tiny_v1.medner"
        again = tmp_path / "again.medner"
        save_model(load_model(str(path)), str(again))
        assert again.read_bytes() == path.read_bytes()


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
        # same-length edit keeps the header byte count valid
        assert b'"lstm_size": 16' in data
        path.write_bytes(data.replace(b'"lstm_size": 16', b'"lstm_size": 61', 1))
        with pytest.raises(ShapeMismatchError):
            load_model(str(path))

    def test_version_mismatch(self, saved):
        _, _, path = saved
        data = path.read_bytes()
        assert data.startswith(b"mednermodel 1 ")
        path.write_bytes(data.replace(b"mednermodel 1 ", b"mednermodel 9 ", 1))
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
