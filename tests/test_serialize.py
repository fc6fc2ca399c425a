import json

import numpy as np
import pytest

from medner.cli import main
from medner.errors import (
    ChecksumError,
    ModelFormatError,
    ShapeMismatchError,
    VersionMismatchError,
)
from medner.nercore.model import predict
from medner.nercore.serialize import load_model, save_model


@pytest.fixture()
def saved(trained_tiny_model, tmp_path):
    model, corpus, _ = trained_tiny_model
    path = tmp_path / "model.medner"
    save_model(model, str(path))
    return model, corpus, path


def rewrite_manifest(path, edit):
    """Replace the container's manifest by edit(manifest), fixing the header."""
    data = path.read_bytes()
    newline = data.index(b"\n")
    magic, version, length = data[:newline].split()
    start = newline + 1
    manifest = json.loads(data[start : start + int(length)])
    new = json.dumps(edit(manifest)).encode("utf-8")
    header = b"%s %s %d\n" % (magic, version, len(new))
    path.write_bytes(header + new + data[start + int(length) :])


def _string_config_value(manifest):
    manifest["config"]["lstm_size"] = str(manifest["config"]["lstm_size"])
    return manifest


MALFORMED_MANIFESTS = {
    "no_dimensions": lambda m: {k: v for k, v in m.items() if k != "dimensions"},
    "json_list": lambda m: [m],
    "string_config_value": _string_config_value,
}


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
            tags_a, marg_a = predict(model, words)
            tags_b, marg_b = predict(loaded, words)
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
        note = tmp_path / "note.txt"
        note.write_text("patient took 250mg daily.", encoding="utf-8")
        code = main(["deidentify", "--input", str(note), "--model", str(path),
                     "--out-dir", str(tmp_path / "deid")])
        assert code == 4

    def test_rewritten_manifest_still_loads(self, saved):
        _, _, path = saved
        rewrite_manifest(path, lambda m: m)
        load_model(str(path))

    def test_wrong_magic(self, saved):
        _, _, path = saved
        path.write_bytes(b"something else entirely\n")
        with pytest.raises(ModelFormatError):
            load_model(str(path))
