import argparse
import json
import logging
import os
import threading

import numpy as np
import pytest

from conftest import (
    FILLERS,
    SPLITLINES_ONLY,
    make_sentence,
    rule_corpus,
    rule_lexicon,
    toy_table,
    write_embeddings,
)
import medner.corpus
from medner.chunking import Chunk, parse_chunk_records, write_chunk_records
from medner import cli
from medner.cli import main, read_text
from medner.corpus import TSV2, Corpus, parse_conll, write_conll
from medner.errors import NumericError
from medner.nercore.model import TrainConfig
from medner.nercore.serialize import load_model, save_model
import test_serialize
from test_serialize import flip_byte, replace_in_manifest


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(5)
    corpus = rule_corpus(rng, 36)
    table = toy_table(rule_lexicon(), 16, rng)
    train_file = tmp_path / "train.tsv"
    train_file.write_text(write_conll(corpus, TSV2), encoding="utf-8")
    emb_file = tmp_path / "vectors.txt"
    write_embeddings(table, str(emb_file))
    return tmp_path, corpus, train_file, emb_file


TRAIN_FLAGS = [
    "--embed-dim", "16", "--char-dim", "8", "--num-filters", "8",
    "--lstm-size", "16", "--learning-rate", "3e-3", "--batch-size", "16",
    "--max-epochs", "3", "--dropout", "0.0", "--warmup-steps", "5",
    "--seed", "42",
]


def run_train(tmp_path, train_file, emb_file, out_name="run", extra=()):
    out = tmp_path / out_name
    code = main(
        ["train", "--train", str(train_file), "--embeddings", str(emb_file),
         "--out-dir", str(out), *TRAIN_FLAGS, *extra]
    )
    return code, out


class TestTrain:
    def test_produces_model_and_logs(self, workdir):
        tmp_path, corpus, train_file, emb_file = workdir
        code, out = run_train(tmp_path, train_file, emb_file)
        assert code == 0
        model = load_model(str(out / "model.medner"))
        assert model.schema.tags == corpus.schema.tags
        log_lines = (out / "metrics.log").read_text().splitlines()
        assert len(log_lines) == 3
        assert (out / "eval_report.json").exists()

    def test_explicit_val_corpus(self, workdir):
        tmp_path, corpus, train_file, emb_file = workdir
        code, out = run_train(
            tmp_path, train_file, emb_file, "run_val", ("--val", str(train_file))
        )
        assert code == 0

    def test_determinism_byte_identical(self, workdir):
        tmp_path, _, train_file, emb_file = workdir
        _, out_a = run_train(tmp_path, train_file, emb_file, "run_a")
        _, out_b = run_train(tmp_path, train_file, emb_file, "run_b")
        assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()
        assert (out_a / "model.medner").read_bytes() == (out_b / "model.medner").read_bytes()

    def test_config_file_with_flag_override(self, workdir):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        cfg.write_text("max_epochs = 2\nlstm_size = 12\n", encoding="utf-8")
        out = tmp_path / "run_cfg"
        code = main(
            ["train", "--config", str(cfg), "--train", str(train_file),
             "--embeddings", str(emb_file), "--out-dir", str(out),
             "--embed-dim", "16", "--char-dim", "8", "--num-filters", "8",
             "--learning-rate", "3e-3", "--batch-size", "16", "--dropout", "0.0",
             "--warmup-steps", "5", "--seed", "42",
             "--max-epochs", "1"]  # flag wins over config file
        )
        assert code == 0
        model = load_model(str(out / "model.medner"))
        assert model.config.max_epochs == 1
        assert model.config.lstm_size == 12

    def test_grid_search(self, workdir):
        tmp_path, _, train_file, emb_file = workdir
        grid = tmp_path / "grid.conf"
        grid.write_text("learning_rate = 1e-3, 3e-3\n", encoding="utf-8")
        code, out = run_train(tmp_path, train_file, emb_file, "run_grid",
                              ("--grid", str(grid)))
        assert code == 0
        runs = json.loads((out / "grid_results.json").read_text())
        assert len(runs) == 2

    def test_missing_embeddings_is_usage_error(self, workdir):
        tmp_path, _, train_file, _ = workdir
        code = main(["train", "--train", str(train_file), "--out-dir", str(tmp_path / "x")])
        assert code == 2

    def test_paths_from_config_file(self, workdir):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "pipeline.conf"
        cfg.write_text(
            f"train = {train_file}\nembeddings = {emb_file}\n"
            f"out_dir = {tmp_path / 'run_file_cfg'}\n"
            "word_dim = 16\nchar_dim = 8\nnum_filters = 8\nlstm_size = 16\n"
            "learning_rate = 3e-3\nbatch_size = 16\nmax_epochs = 1\n"
            "dropout = 0.0\nwarmup_steps = 5\nseed = 42\n",
            encoding="utf-8",
        )
        code = main(["train", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "run_file_cfg" / "model.medner").exists()

    def test_failed_validation_scoring_leaves_no_out_dir(self, workdir, monkeypatch):
        tmp_path, _, train_file, emb_file = workdir

        def fail(*args):
            raise NumericError("validation scores are not finite")

        monkeypatch.setattr(cli, "evaluate", fail)
        code, out = run_train(tmp_path, train_file, emb_file)
        assert code == 5
        assert not out.exists()

    def test_malformed_corpus_is_parse_error(self, workdir, tmp_path):
        _, _, _, emb_file = workdir
        bad = tmp_path / "bad.tsv"
        bad.write_text("word_without_tag\n", encoding="utf-8")
        code = main(
            ["train", "--train", str(bad), "--embeddings", str(emb_file),
             "--out-dir", str(tmp_path / "y"), *TRAIN_FLAGS]
        )
        assert code == 3


@pytest.fixture()
def model_file(trained_tiny_model, tmp_path):
    model, _, _ = trained_tiny_model
    path = tmp_path / "model.medner"
    save_model(model, str(path))
    return path


class TestPredict:
    def test_raw_text(self, model_file, tmp_path):
        text = "patient took 250mg daily. fever noted since yesterday."
        inp = tmp_path / "note.txt"
        inp.write_text(text, encoding="utf-8")
        out = tmp_path / "pred"
        code = main(["predict", "--model", str(model_file), "--input", str(inp),
                     "--out-dir", str(out)])
        assert code == 0
        lines = [l for l in (out / "chunks.tsv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines, "the overfit model should find at least one chunk"
        for line in lines:
            sent, begin, end, surface, etype, conf = line.split("\t")
            assert etype in ("Dosage", "Symptom")
            assert 0.0 <= float(conf) <= 1.0
            assert text[int(begin) : int(end) + 1] == surface or " " in surface

    def test_empty_input(self, model_file, tmp_path):
        inp = tmp_path / "empty.txt"
        inp.write_text("", encoding="utf-8")
        out = tmp_path / "pred_empty"
        code = main(["predict", "--model", str(model_file), "--input", str(inp),
                     "--out-dir", str(out)])
        assert code == 0
        lines = [l for l in (out / "chunks.tsv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines == []

    def test_min_confidence_filters(self, model_file, tmp_path):
        text = "patient took 250mg daily. fever noted since yesterday."
        inp = tmp_path / "note.txt"
        inp.write_text(text, encoding="utf-8")
        out_all = tmp_path / "pred_all"
        out_high = tmp_path / "pred_high"
        main(["predict", "--model", str(model_file), "--input", str(inp),
              "--out-dir", str(out_all)])
        main(["predict", "--model", str(model_file), "--input", str(inp),
              "--min-confidence", "0.99999", "--out-dir", str(out_high)])

        def confs(p):
            return [float(l.split("\t")[5]) for l in (p / "chunks.tsv").read_text().splitlines()
                    if l and not l.startswith("#")]

        assert len(confs(out_high)) <= len(confs(out_all))

    def test_conll_input(self, model_file, trained_tiny_model, tmp_path):
        _, corpus, _ = trained_tiny_model
        inp = tmp_path / "in.tsv"
        inp.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        out = tmp_path / "pred_conll"
        code = main(["predict", "--model", str(model_file), "--input", str(inp),
                     "--input-format", "tsv2", "--out-dir", str(out)])
        assert code == 0

    def test_schema_mismatch_names_both(self, model_file, tmp_path, caplog):
        inp = tmp_path / "in.tsv"
        inp.write_text("fever\tB-Disease\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_file), "--input", str(inp),
                     "--input-format", "tsv2", "--out-dir", str(tmp_path / "x")])
        assert code == 4
        assert "Disease" in caplog.text and "Symptom" in caplog.text


class TestEvaluate:
    def test_gold_vs_itself(self, trained_tiny_model, tmp_path, capsys):
        _, corpus, _ = trained_tiny_model
        gold = tmp_path / "gold.tsv"
        gold.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        code = main(["evaluate", "--gold", str(gold), "--pred", str(gold)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "micro-F1:  1.0000" in captured

    def test_documented_fixture_scores(self, tmp_path, capsys):
        # type A: gold 4 chunks vs pred 3 (2 exact); type B: one exact match
        gold_tags = [["B-A"], ["B-A"], ["B-A"], ["B-A"], ["B-B"]]
        pred_tags = [["B-A"], ["B-A"], ["O"], ["O"], ["B-B"]]
        extra_pred = [["O"], ["O"], ["B-A"], ["O"], ["O"]]  # the off-target A
        gold_lines = []
        pred_lines = []
        for i, (g, p, e) in enumerate(zip(gold_tags, pred_tags, extra_pred)):
            gold_lines += [f"w{i}a\t{g[0]}", f"w{i}b\tO", ""]
            pred_lines += [f"w{i}a\t{p[0]}", f"w{i}b\t{e[0]}", ""]
        gold = tmp_path / "gold.tsv"
        pred = tmp_path / "pred.tsv"
        gold.write_text("\n".join(gold_lines) + "\n", encoding="utf-8")
        pred.write_text("\n".join(pred_lines) + "\n", encoding="utf-8")
        out = tmp_path / "eval"
        code = main(["evaluate", "--gold", str(gold), "--pred", str(pred),
                     "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["micro_f1"] == pytest.approx(2 / 3)
        assert report["macro_f1"] == pytest.approx(11 / 14)

    def test_alignment_mismatch(self, trained_tiny_model, tmp_path, caplog):
        _, corpus, _ = trained_tiny_model
        gold = tmp_path / "gold.tsv"
        gold.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        shorter = tmp_path / "short.tsv"
        text = write_conll(corpus, TSV2)
        first_blank = text.index("\n\n")
        shorter.write_text(text[: first_blank + 1], encoding="utf-8")
        code = main(["evaluate", "--gold", str(gold), "--pred", str(shorter)])
        assert code == 4
        # same sentence count, the last token of the first sentence dropped
        lines = text.split("\n")
        del lines[lines.index("") - 1]
        dropped = tmp_path / "dropped.tsv"
        dropped.write_text("\n".join(lines), encoding="utf-8")
        code = main(["evaluate", "--gold", str(gold), "--pred", str(dropped)])
        assert code == 4
        assert "tokens in gold" in caplog.text

    def test_micro_gate(self, trained_tiny_model, tmp_path):
        _, corpus, _ = trained_tiny_model
        gold = tmp_path / "gold.tsv"
        gold.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        code = main(["evaluate", "--gold", str(gold), "--pred", str(gold),
                     "--min-micro-f1", "1.5"])
        assert code == 1

    def test_model_on_the_fly(self, model_file, trained_tiny_model, tmp_path):
        _, corpus, _ = trained_tiny_model
        gold = tmp_path / "gold.tsv"
        gold.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        code = main(["evaluate", "--gold", str(gold), "--model", str(model_file),
                     "--min-micro-f1", "0.9"])
        assert code == 0  # the fixture model overfits its training corpus


FIGURE_TEXT = (
    "Record date : 2021-01-14 , Philips Jo , Name : Joseph , "
    "MR # 234333 Date : 01/16/1989 .\n"
    "PCP : Alicia , 54 years-old , Record date : 2012-11-04 .\n"
    "Scarborough Hospital , 0295 Keats Street , Phone 55-555-5555 .\n"
)

FIGURE_SPANS = [
    (0, "2021-01-14", "Date"),
    (0, "Philips Jo", "Name"),
    (0, "Joseph", "Name"),
    (0, "01/16/1989", "Date"),
    (1, "Alicia", "Name"),
    (1, "54", "Age"),
    (1, "2012-11-04", "Date"),
    (2, "Scarborough Hospital", "Hospital"),
    (2, "0295 Keats Street", "Street"),
]

FIGURE_EXPECTED = (
    "Record date : <DATE> , <NAME> , Name : <NAME> , MR # 234333 Date : <DATE> .\n"
    "PCP : <NAME> , <AGE> years-old , Record date : <DATE> .\n"
    "<HOSPITAL> , <STREET> , Phone 55-555-5555 .\n"
)


def figure_chunk_records() -> str:
    chunks = []
    cursor = 0
    for sent, surface, etype in FIGURE_SPANS:
        begin = FIGURE_TEXT.index(surface, cursor)
        chunks.append(Chunk(etype, None, begin, begin + len(surface) - 1,
                            surface, 1.0, sent))
        cursor = begin + len(surface)
    return write_chunk_records(chunks)


class TestDeidentify:
    def test_figure_fixture_golden(self, tmp_path):
        inp = tmp_path / "notes.txt"
        inp.write_text(FIGURE_TEXT, encoding="utf-8")
        spans = tmp_path / "gold_chunks.tsv"
        spans.write_text(figure_chunk_records(), encoding="utf-8")
        out = tmp_path / "deid"
        code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "deidentified.txt").read_text(encoding="utf-8") == FIGURE_EXPECTED
        log_lines = (out / "replacements.log").read_text().splitlines()
        assert len(log_lines) == len(FIGURE_SPANS)

    def test_empty_policy_identity(self, tmp_path):
        inp = tmp_path / "notes.txt"
        inp.write_text(FIGURE_TEXT, encoding="utf-8")
        spans = tmp_path / "gold_chunks.tsv"
        spans.write_text(figure_chunk_records(), encoding="utf-8")
        policy = tmp_path / "empty.policy"
        policy.write_text("# nothing protected\n", encoding="utf-8")
        out = tmp_path / "deid_noop"
        code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                     "--policy", str(policy), "--out-dir", str(out)])
        assert code == 0
        assert (out / "deidentified.txt").read_text(encoding="utf-8") == FIGURE_TEXT

    def test_substitution_seed_determinism(self, tmp_path):
        inp = tmp_path / "notes.txt"
        inp.write_text(FIGURE_TEXT, encoding="utf-8")
        spans = tmp_path / "gold_chunks.tsv"
        spans.write_text(figure_chunk_records(), encoding="utf-8")
        policy = tmp_path / "subst.policy"
        policy.write_text("Name = substitute Pat, Sam, Alex, Robin\nDate = mask\n",
                          encoding="utf-8")
        outputs = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                         "--policy", str(policy), "--seed", "7", "--out-dir", str(out)])
            assert code == 0
            outputs.append((out / "deidentified.txt").read_bytes())
        assert outputs[0] == outputs[1]

    def test_overlapping_spans_error(self, tmp_path):
        inp = tmp_path / "notes.txt"
        inp.write_text("Alicia Alicia", encoding="utf-8")
        chunks = [
            Chunk("Name", None, 0, 7, "Alicia A", 1.0, 0),
            Chunk("Name", None, 5, 12, "a Alicia", 1.0, 0),
        ]
        spans = tmp_path / "bad_chunks.tsv"
        spans.write_text(write_chunk_records(chunks), encoding="utf-8")
        code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                     "--out-dir", str(tmp_path / "deid_bad")])
        assert code == 4

    @pytest.mark.parametrize("record,message", [
        ("0\t3\t9\tAlicia\tName\t1.00",
         "sentence 0, [3, 9] 'Alicia' does not match the text there, 'n by Dr'"),
        ("0\t45\t55\t2021-01-14\tDate\t1.00",
         "sentence 0, [45, 55] '2021-01-14' lies outside the text of length 51"),
    ], ids=["off_its_surface", "outside_the_text"])
    def test_record_off_its_surface_exits_4(self, tmp_path, caplog, record, message):
        inp = tmp_path / "note.txt"
        inp.write_text("Seen by Dr Alicia at Mercy Hospital on 2021-01-14 .", encoding="utf-8")
        spans = tmp_path / "chunks.tsv"
        spans.write_text(record + "\n", encoding="utf-8")
        out = tmp_path / "deid"
        code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                     "--out-dir", str(out)])
        assert code == 4
        assert f"{spans}: {message}" in caplog.text
        assert not out.exists()

    def test_model_driven(self, model_file, tmp_path):
        policy = tmp_path / "dose.policy"
        policy.write_text("Dosage = mask\n", encoding="utf-8")
        # the second note is one sentence whose dosage is its 601st token
        long_note = " ".join(FILLERS[i % len(FILLERS)] for i in range(600)) + " 250mg daily."
        for index, note in enumerate(["patient took 250mg daily.", long_note]):
            inp = tmp_path / f"notes{index}.txt"
            inp.write_text(note, encoding="utf-8")
            out = tmp_path / f"deid_model{index}"
            code = main(["deidentify", "--input", str(inp), "--model", str(model_file),
                         "--policy", str(policy), "--out-dir", str(out)])
            assert code == 0
            text = (out / "deidentified.txt").read_text(encoding="utf-8")
            assert "<DOSAGE>" in text

    def test_non_finite_model_exits_4(self, model_file, tmp_path, caplog):
        # the checksums match the NaN, so only the load's finiteness check sees it
        model = load_model(str(model_file))
        model.w_c[0, 0] = np.nan
        bad = tmp_path / "nan.medner"
        save_model(model, str(bad))
        inp = tmp_path / "note.txt"
        inp.write_text("patient took 250mg daily.", encoding="utf-8")
        out = tmp_path / "deid"
        code = main(["deidentify", "--input", str(inp), "--model", str(bad),
                     "--out-dir", str(out)])
        assert code == 4
        assert "tensor w_c contains non-finite values" in caplog.text
        assert not (out / "deidentified.txt").exists()

    def test_iob1_container_leaves_no_out_dir(self, model_file, tmp_path, caplog):
        # the header's digest updated, so every checksum still passes: the
        # load rejects the scheme
        data = model_file.read_bytes()
        model_file.write_bytes(replace_in_manifest(data, b'"scheme": "IOB2"', b'"scheme": "IOB1"'))
        inp = tmp_path / "note.txt"
        inp.write_text("patient took 250mg daily.", encoding="utf-8")
        out = tmp_path / "deid"
        code = main(["deidentify", "--input", str(inp), "--model", str(model_file),
                     "--out-dir", str(out)])
        assert code == 4
        assert "'IOB1'" in caplog.text
        assert not out.exists()

    def test_chunks_and_model_is_usage_error(self, model_file, tmp_path, caplog):
        inp = tmp_path / "notes.txt"
        inp.write_text(FIGURE_TEXT, encoding="utf-8")
        spans = tmp_path / "gold_chunks.tsv"
        spans.write_text(figure_chunk_records(), encoding="utf-8")
        out = tmp_path / "deid"
        code = main(["deidentify", "--input", str(inp), "--chunks", str(spans),
                     "--model", str(model_file), "--out-dir", str(out)])
        assert code == 2
        assert "exactly one of --chunks or --model" in caplog.text
        assert not out.exists()


class TestVerifiedOutputs:
    """Each --model command tags or scores while the embedding matrix is
    still being hashed, and writes nothing unless that checksum passes."""

    @staticmethod
    def argv(command, model, tmp_path, corpus):
        note = tmp_path / "note.txt"
        note.write_text("patient took 250mg daily.", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        out = str(tmp_path / "out")
        return {
            "predict": ["predict", "--model", model, "--input", str(note), "--out-dir", out],
            "evaluate": ["evaluate", "--gold", str(gold), "--model", model, "--out-dir", out],
            "deidentify": ["deidentify", "--input", str(note), "--model", model,
                           "--out-dir", out],
        }[command]

    @pytest.mark.parametrize("command,spied", [
        ("predict", "_tag_chunks"), ("evaluate", "evaluate"), ("deidentify", "_tag_chunks"),
    ])
    def test_corrupt_embed_matrix_writes_nothing(
        self, model_file, trained_tiny_model, tmp_path, monkeypatch, caplog, capsys,
        command, spied,
    ):
        model_file.write_bytes(flip_byte(model_file.read_bytes(), "embed_matrix"))
        calls = []
        work = getattr(cli, spied)

        def spy(*args):
            calls.append(args)
            return work(*args)

        monkeypatch.setattr(cli, spied, spy)
        threads = threading.active_count()
        argv = self.argv(command, str(model_file), tmp_path, trained_tiny_model[1])
        assert main(argv) == 4
        assert "tensor embed_matrix: checksum mismatch" in caplog.text
        assert len(calls) == 1  # the work ran inside the load, before the digest was compared
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().out == ""
        assert threading.active_count() == threads

    @pytest.mark.parametrize("command", ["predict", "evaluate", "deidentify"])
    def test_clean_container_writes_outputs(
        self, model_file, trained_tiny_model, tmp_path, command
    ):
        argv = self.argv(command, str(model_file), tmp_path, trained_tiny_model[1])
        assert main(argv) == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == {
            "predict": ["chunks.tsv"],
            "evaluate": ["eval_report.json", "eval_report.txt"],
            "deidentify": ["deidentified.txt", "replacements.log"],
        }[command]


class TestConvert:
    def test_conll4_tsv2_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        corpus = rule_corpus(rng, 10)
        long_words = ["word"] * 600 + ["250mg"]
        long_sentence = make_sentence(long_words, ["O"] * 600 + ["B-Dosage"], idx=10)
        corpus = Corpus(corpus.sentences + [long_sentence], corpus.schema)
        src = tmp_path / "src.conll"
        src.write_text(write_conll(corpus, TSV2), encoding="utf-8")
        mid = tmp_path / "mid.conll4"
        back = tmp_path / "back.tsv"
        assert main(["convert", "--input", str(src), "--from", "tsv2",
                     "--to", "conll4", "--out", str(mid)]) == 0
        assert main(["convert", "--input", str(mid), "--from", "conll4",
                     "--to", "tsv2", "--out", str(back)]) == 0
        original = parse_conll(src.read_text(), TSV2)
        final = parse_conll(back.read_text(), TSV2)
        for a, b in zip(original.sentences, final.sentences):
            assert a.surfaces() == b.surfaces()
            assert a.tags() == b.tags()
        assert final.sentences[-1].tags()[-1] == "B-Dosage"
        assert len(final.sentences[-1]) == len(long_words)

    def test_iob1_to_iob2_same_chunks(self, tmp_path):
        src = tmp_path / "iob1.tsv"
        src.write_text("a\tI-X\nb\tI-X\nc\tB-X\n\n", encoding="utf-8")
        out = tmp_path / "iob2.tsv"
        assert main(["convert", "--input", str(src), "--from", "tsv2",
                     "--to", "tsv2", "--from-scheme", "IOB1",
                     "--to-scheme", "IOB2", "--out", str(out)]) == 0
        converted = parse_conll(out.read_text(), TSV2)
        assert converted.sentences[0].tags() == ["B-X", "I-X", "B-X"]

    def test_iob2_to_iob1_same_chunks(self, tmp_path):
        src = tmp_path / "iob2.tsv"
        src.write_text("a\tB-X\nb\tI-X\nc\tB-X\nd\tB-Y\n\n", encoding="utf-8")
        out = tmp_path / "iob1.conll4"
        assert main(["convert", "--input", str(src), "--from", "tsv2", "--to", "conll4",
                     "--to-scheme", "IOB1", "--out", str(out)]) == 0
        assert out.read_text() == (
            "a -X- -X- I-X\nb -X- -X- I-X\nc -X- -X- B-X\nd -X- -X- I-Y\n\n"
        )

    # conll4 separates its columns by whitespace, so a tsv2 token or tag
    # that holds some cannot be written there
    @pytest.mark.parametrize("line, field", [("a b\tI-Symptom", "token 'a b'"),
                                             ("a\tB-patient id", "tag 'B-patient id'")])
    def test_whitespace_in_a_conll4_field_exits_4(self, tmp_path, caplog, line, field):
        src = tmp_path / "src.tsv"
        src.write_text(f"fever\tB-Symptom\n{line}\n", encoding="utf-8")
        out = tmp_path / "out.conll4"
        assert main(["convert", "--input", str(src), "--from", "tsv2", "--to", "conll4",
                     "--out", str(out)]) == 4
        assert f"doc0[0]: {field} holds whitespace" in caplog.text
        assert not out.exists()

    def test_to_chunk_records(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("fever\tB-Symptom\n\n", encoding="utf-8")
        out = tmp_path / "chunks.tsv"
        assert main(["convert", "--input", str(src), "--from", "tsv2",
                     "--to", "chunk-records", "--out", str(out)]) == 0
        assert "fever\tSymptom\t1.00" in out.read_text()

    def test_unknown_format_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["convert", "--input", "x", "--from", "xml", "--to", "tsv2",
                  "--out", "y"])
        assert err.value.code == 2

    def test_chunk_records_source_rejected(self, tmp_path):
        src = tmp_path / "chunks.tsv"
        src.write_text("# header\n", encoding="utf-8")
        code = main(["convert", "--input", str(src), "--from", "chunk-records",
                     "--to", "tsv2", "--out", str(tmp_path / "out.tsv")])
        assert code == 4


def files_in(directory) -> dict[str, bytes]:
    """Every file in `directory`, temporaries included, by name."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


# counting_open(patch, fail_at) makes the fail_at-th write of the files that
# corpus.write_files opens raise OSError, and returns the writes made
counting_open = test_serialize.TestAtomicSave.counting_open


def failing_replace(patch, fail_at) -> None:
    """Make the fail_at-th os.replace that corpus.write_files makes raise."""
    real, calls = os.replace, []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == fail_at:
            raise OSError("replace failed")
        real(src, dst)

    patch.setattr(medner.corpus.os, "replace", replace)


class TestFailedWrites:
    """A command writes its outputs through corpus.write_files: when a write
    or a rename fails, every output holds its old bytes or its new ones whole,
    and no temporary file is left beside them."""

    GOLD = "w0a\tB-A\nw0b\tO\n\nw1a\tB-B\nw1b\tO\n\n"
    PRED = "w0a\tB-A\nw0b\tO\n\nw1a\tO\nw1b\tB-A\n\n"

    @classmethod
    def argv(cls, command, run, out, inputs, model_file, corpus):
        """`command`'s argv on its first (run 0) or second (run 1) inputs,
        which give other outputs, writing to `out`; inputs go in `inputs`."""
        inputs.mkdir(exist_ok=True)
        note, chunks = inputs / "note.txt", inputs / "chunks.tsv"
        gold, pred = inputs / "gold.tsv", inputs / "pred.tsv"
        if command == "predict":
            sentences = corpus.sentences[5 * run : 5 * run + 5]
            note.write_text("".join(" ".join(t.surface for t in s.tokens) + "\n"
                                    for s in sentences), encoding="utf-8")
            return ["predict", "--model", str(model_file), "--input", str(note),
                    "--out-dir", str(out)]
        if command == "deidentify":
            records = parse_chunk_records(figure_chunk_records())[: 9 - 4 * run]
            note.write_text(FIGURE_TEXT, encoding="utf-8")
            chunks.write_text(write_chunk_records(records), encoding="utf-8")
            return ["deidentify", "--input", str(note), "--chunks", str(chunks),
                    "--out-dir", str(out)]
        gold.write_text(cls.GOLD, encoding="utf-8")
        pred.write_text([cls.GOLD, cls.PRED][run], encoding="utf-8")
        if command == "evaluate":
            return ["evaluate", "--gold", str(gold), "--pred", str(pred), "--out-dir", str(out)]
        return ["convert", "--input", str(pred), "--from", "tsv2", "--to", "conll4",
                "--out", str(out)]

    @pytest.fixture(params=["predict", "deidentify", "evaluate", "convert"])
    def runs(self, request, model_file, trained_tiny_model, tmp_path, monkeypatch):
        """A command's first run into an output directory, which it makes, and
        a clean second run into another: (the argv of the second run into the
        first directory, that directory, its files after the first run, the
        second run's files, the number of writes the second run makes)."""
        command, corpus = request.param, trained_tiny_model[1]
        out, ref = tmp_path / "out", tmp_path / "ref"
        out_file = "data.conll4" if command == "convert" else None  # --out names the file

        def argv(run, directory):
            target = directory / out_file if out_file else directory
            return self.argv(command, run, target, tmp_path / f"inputs{run}", model_file, corpus)

        assert main(argv(0, out)) == 0
        with monkeypatch.context() as patch:
            writes = counting_open(patch, fail_at=0)
            assert main(argv(1, ref)) == 0
        before, after = files_in(out), files_in(ref)
        assert before.keys() == after.keys()
        assert all(before[name] != after[name] for name in before)
        assert len(writes) >= len(before)  # all through write_files
        return argv(1, out), out, before, after, len(writes)

    def test_failed_write_keeps_every_output(self, runs, monkeypatch):
        argv, out, before, _, num_writes = runs
        for k in range(1, num_writes + 1):
            with monkeypatch.context() as patch:
                counting_open(patch, fail_at=k)
                assert main(argv) == 4, k
            assert files_in(out) == before, k

    def test_failed_replace_leaves_each_output_whole(self, runs, monkeypatch):
        argv, out, before, after, _ = runs
        for k in range(1, len(before) + 1):
            for name, data in before.items():
                (out / name).write_bytes(data)
            with monkeypatch.context() as patch:
                failing_replace(patch, k)
                assert main(argv) == 4, k
            files = files_in(out)
            assert files.keys() == before.keys(), k
            assert all(files[name] in (before[name], after[name]) for name in files), k

    def test_train_writes_its_reports_then_its_model(self, workdir, monkeypatch):
        """A fault in train's one write_files call leaves the out-dir as it
        was; a fault in save_model, which comes after, leaves the new reports
        beside the old model.medner."""
        tmp_path, _, train_file, emb_file = workdir
        second = ("--val", str(train_file))  # another split, so every output differs
        _, out = run_train(tmp_path, train_file, emb_file)
        with monkeypatch.context() as patch:
            writes = counting_open(patch, fail_at=0)
            code, ref = run_train(tmp_path, train_file, emb_file, "ref", second)
        assert code == 0
        before, after = files_in(out), files_in(ref)
        assert before.keys() == after.keys()
        assert all(before[name] != after[name] for name in before)
        assert len(writes) >= len(before)  # all through write_files
        text_writes = len(before) - 1  # one per text file, then save_model's
        for k in range(1, len(writes) + 1):
            for name, data in before.items():
                (out / name).write_bytes(data)
            with monkeypatch.context() as patch:
                counting_open(patch, fail_at=k)
                assert run_train(tmp_path, train_file, emb_file, extra=second)[0] == 4, k
            expected = before if k <= text_writes else {
                **after, "model.medner": before["model.medner"]}
            assert files_in(out) == expected, k


NOT_UTF8 = b"\xff fever\n"

# every text file a subcommand reads, by flag; the model container is
# binary and exits 4 when malformed (test_serialize fuzzes it)
TEXT_FILE_FLAGS = [
    ("train", "--config"), ("train", "--train"), ("train", "--val"),
    ("train", "--schema"), ("train", "--embeddings"), ("train", "--grid"),
    ("predict", "--config"), ("predict", "--input"), ("predict", "--abbreviations"),
    ("evaluate", "--config"), ("evaluate", "--gold"), ("evaluate", "--pred"),
    ("deidentify", "--config"), ("deidentify", "--input"), ("deidentify", "--chunks"),
    ("deidentify", "--policy"),
    ("convert", "--input"),
]


class TestUnreadableInputs:
    @staticmethod
    def valid_argv(command, workdir, model_file):
        tmp_path, _, train_file, emb_file = workdir
        note = tmp_path / "note.txt"
        note.write_text(FIGURE_TEXT, encoding="utf-8")
        chunks = tmp_path / "chunks.tsv"
        chunks.write_text(figure_chunk_records(), encoding="utf-8")
        out = str(tmp_path / "out")
        return {
            "train": ["--train", str(train_file), "--embeddings", str(emb_file),
                      "--out-dir", out, *TRAIN_FLAGS],
            "predict": ["--model", str(model_file), "--input", str(note), "--out-dir", out],
            "evaluate": ["--gold", str(train_file), "--pred", str(train_file)],
            "deidentify": ["--input", str(note), "--chunks", str(chunks), "--out-dir", out],
            "convert": ["--input", str(train_file), "--from", "tsv2", "--to", "conll4",
                        "--out", str(tmp_path / "converted.txt")],
        }[command]

    @pytest.mark.parametrize("command,flag", TEXT_FILE_FLAGS)
    def test_non_utf8_file_is_parse_error(self, workdir, model_file, command, flag, caplog):
        bad = workdir[0] / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        argv = self.valid_argv(command, workdir, model_file)
        if flag in argv:
            argv[argv.index(flag) + 1] = str(bad)
        else:
            argv += [flag, str(bad)]
        assert main([command, *argv]) == 3
        assert f"{bad} is not UTF-8 text" in caplog.text or "at byte 0" in caplog.text
        assert not (workdir[0] / "out").exists()

    def test_non_utf8_policy_dictionary_is_parse_error(self, tmp_path, caplog):
        (tmp_path / "names.txt").write_bytes(b"Pat\nS\xe9m\n")
        policy = tmp_path / "policy.txt"
        policy.write_text("Name = substitute names.txt\n", encoding="utf-8")
        note = tmp_path / "note.txt"
        note.write_text(FIGURE_TEXT, encoding="utf-8")
        chunks = tmp_path / "chunks.tsv"
        chunks.write_text(figure_chunk_records(), encoding="utf-8")
        code = main(["deidentify", "--input", str(note), "--chunks", str(chunks),
                     "--policy", str(policy), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "line 1" in caplog.text and "at byte 5" in caplog.text

    def test_newlines_read_as_path_read_text(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_bytes("a\r\nb\rc\né".encode("utf-8"))
        assert read_text(str(path)) == path.read_text(encoding="utf-8")


class TestLineRule:
    """Config, grid and abbreviation files end a line at '\\n' alone, and a
    token holding another splitlines() break goes from tsv2 through chunk
    records to de-identification."""

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_config_value(self, tmp_path, char):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"out_dir = o{char}ut\nmax_epochs = 3\n", encoding="utf-8")
        assert cli._config_defaults("train", str(cfg)) == {"out_dir": f"o{char}ut",
                                                            "max_epochs": 3}

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_grid_values(self, tmp_path, char):
        grid = tmp_path / "grid.txt"
        grid.write_text(f"learning_rate = 0.1,{char}0.2\nbatch_size = 2\n", encoding="utf-8")
        assert cli._read_grid_file(str(grid)) == {"learning_rate": [0.1, 0.2],
                                                  "batch_size": [2]}

    @pytest.mark.parametrize("char", SPLITLINES_ONLY)
    def test_abbreviation(self, tmp_path, char):
        path = tmp_path / "abbreviations.txt"
        path.write_text(f"Pt{char}x.\n\nApprox.\n", encoding="utf-8")
        extra = cli._read_abbreviations(str(path)) - cli.DEFAULT_ABBREVIATIONS
        assert extra == {f"Pt{char}x.", "Approx."}

    def test_token_from_tsv2_to_deidentified_text(self, tmp_path):
        src = tmp_path / "src.tsv"
        src.write_text("Seen\tO\nby\tO\nAl\u2028ex\tB-Name\ntoday\tO\n", encoding="utf-8")
        chunks = tmp_path / "chunks.tsv"
        assert main(["convert", "--input", str(src), "--from", "tsv2",
                     "--to", "chunk-records", "--out", str(chunks)]) == 0
        note = tmp_path / "note.txt"
        note.write_text("Seen by Al\u2028ex today\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["deidentify", "--input", str(note), "--chunks", str(chunks),
                     "--out-dir", str(out)]) == 0
        assert (out / "deidentified.txt").read_text(encoding="utf-8") == "Seen by <NAME> today\n"


class TestBadValues:
    def test_config_value_is_parse_error(self, workdir, caplog):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        cfg.write_text("max_epochs = 1\ngrad_clip_norm = abc\n", encoding="utf-8")
        code, _ = run_train(tmp_path, train_file, emb_file, extra=("--config", str(cfg)))
        assert code == 3
        assert "line 2" in caplog.text and "'abc'" in caplog.text

    def test_config_typo_is_parse_error(self, workdir, caplog):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        cfg.write_text("lstm_size = 12\nmax_epocs = 1\n", encoding="utf-8")
        code, out = run_train(tmp_path, train_file, emb_file, extra=("--config", str(cfg)))
        assert code == 3
        assert "line 2" in caplog.text and "'max_epocs'" in caplog.text
        assert not (out / "model.medner").exists()

    def test_config_key_of_another_subcommand_accepted(self, workdir):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        # predict's options: train reads neither
        cfg.write_text("model = unused.medner\nmin_confidence = 0.5\n", encoding="utf-8")
        code, out = run_train(tmp_path, train_file, emb_file, extra=("--config", str(cfg)))
        assert code == 0
        assert (out / "model.medner").exists()

    def test_config_boolean_is_parse_error(self, workdir, caplog):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        cfg.write_text("use_char_features = maybe\n", encoding="utf-8")
        code, _ = run_train(tmp_path, train_file, emb_file, extra=("--config", str(cfg)))
        assert code == 3
        assert "line 1" in caplog.text

    @pytest.mark.parametrize("flag,value", [
        ("--beta1", "1"), ("--beta2", "1.5"), ("--learning-rate", "nan"),
        ("--epsilon", "nan"), ("--grad-clip-norm", "inf"),
    ])
    def test_out_of_range_optimizer_value_exits_4(self, workdir, caplog, flag, value):
        tmp_path, _, train_file, emb_file = workdir
        code, _ = run_train(tmp_path, train_file, emb_file, extra=(flag, value))
        assert code == 4
        assert flag[2:].replace("-", "_") in caplog.text

    def test_iob1_schema_file_is_parse_error(self, workdir, caplog):
        tmp_path, corpus, train_file, emb_file = workdir
        schema = tmp_path / "schema.txt"
        schema.write_text("scheme: IOB1\n" + "\n".join(corpus.schema.entity_types) + "\n",
                          encoding="utf-8")
        code, _ = run_train(tmp_path, train_file, emb_file, extra=("--schema", str(schema)))
        assert code == 3
        assert "line 1" in caplog.text and "--scheme IOB1" in caplog.text

    def test_grid_value_is_parse_error(self, workdir, caplog):
        tmp_path, _, train_file, emb_file = workdir
        grid = tmp_path / "grid.txt"
        grid.write_text("# sizes\nlstm_size = 2,x\n", encoding="utf-8")
        code, _ = run_train(tmp_path, train_file, emb_file, extra=("--grid", str(grid)))
        assert code == 3
        assert "line 2" in caplog.text and "'x'" in caplog.text

    # read while the grid file is, so before the corpora and embeddings
    @pytest.mark.parametrize("line", ["learning_rate =", "batch_size = ,", "lstm_size=, ,"])
    def test_grid_key_without_values_is_parse_error(self, workdir, caplog, line):
        tmp_path, _, train_file, _ = workdir
        grid = tmp_path / "grid.txt"
        grid.write_text(f"dropout = 0.0\n{line}\n", encoding="utf-8")
        code, out = run_train(tmp_path, train_file, tmp_path / "missing.txt",
                              extra=("--grid", str(grid)))
        assert code == 3
        assert f"line 2: no values for {line.split('=')[0].strip()!r}" in caplog.text
        assert not out.exists()

    # cmd_train reads the first three once, before the grid runs, and training
    # never reads confidence_mode, so no grid point could differ by them
    @pytest.mark.parametrize("line", [
        "word_dim = 16, 8", "oov_policy = zero, lowercase_then_unk",
        "max_seq_length = 3, 512", "confidence_mode = min, geomean",
    ])
    def test_grid_key_that_no_point_can_vary_is_parse_error(self, workdir, caplog, line):
        tmp_path, _, train_file, _ = workdir
        grid = tmp_path / "grid.txt"
        grid.write_text(f"dropout = 0.0\n{line}\n", encoding="utf-8")
        code, out = run_train(tmp_path, train_file, tmp_path / "missing.txt",
                              extra=("--grid", str(grid)))
        assert code == 3
        assert f"line 2: a --grid cannot vary {line.split('=')[0].strip()!r}" in caplog.text
        assert not out.exists()

    def test_grid_value_outside_choices_exits_2(self, workdir, caplog, monkeypatch):
        tmp_path, _, train_file, emb_file = workdir
        grid = tmp_path / "grid.txt"
        grid.write_text("oov_policy = lowercase_then_unk, bogus\n", encoding="utf-8")

        def no_fit(*args):
            raise AssertionError("grid_search ran")

        monkeypatch.setattr(cli, "grid_search", no_fit)
        code, out = run_train(tmp_path, train_file, emb_file, extra=("--grid", str(grid)))
        assert code == 2
        assert "unknown oov_policy 'bogus'" in caplog.text
        assert not out.exists()

    def test_grid_is_read_before_the_embeddings(self, workdir, caplog):
        tmp_path, _, train_file, _ = workdir
        grid = tmp_path / "grid.txt"
        grid.write_text("confidence_mode = bogus\n", encoding="utf-8")
        code, _ = run_train(tmp_path, train_file, tmp_path / "missing.txt",
                            extra=("--grid", str(grid)))
        assert code == 2
        assert "unknown confidence_mode 'bogus'" in caplog.text

    # an empty path value, from a flag or from the config file, is no value
    @pytest.mark.parametrize("command,argv,config,message", [
        ("deidentify", ["--chunks", ""], None, "exactly one of --chunks or --model"),
        ("evaluate", ["--model", ""], None, "exactly one of --pred or --model"),
        ("deidentify", [], "chunks =", "exactly one of --chunks or --model"),
        ("evaluate", [], "model =", "exactly one of --pred or --model"),
        ("predict", [], "model =", "missing required option --model"),
    ])
    def test_empty_path_value_is_usage_error(
        self, workdir, caplog, command, argv, config, message
    ):
        tmp_path, _, train_file, _ = workdir
        note = tmp_path / "note.txt"
        note.write_text("patient took 250mg daily.", encoding="utf-8")
        out = tmp_path / "out"
        inputs = {"deidentify": ["--input", str(note)], "evaluate": ["--gold", str(train_file)],
                  "predict": ["--input", str(note)]}[command]
        if config is not None:
            cfg = tmp_path / "run.conf"
            cfg.write_text(config + "\n", encoding="utf-8")
            argv = [*argv, "--config", str(cfg)]
        assert main([command, *inputs, *argv, "--out-dir", str(out)]) == 2
        assert message in caplog.text
        assert not out.exists()

    def test_config_value_is_read_when_a_flag_overrides_it(self, workdir, caplog):
        tmp_path, _, train_file, emb_file = workdir
        cfg = tmp_path / "run.conf"
        cfg.write_text("max_epochs = abc\n", encoding="utf-8")
        assert "--max-epochs" in TRAIN_FLAGS
        code, out = run_train(tmp_path, train_file, emb_file, extra=("--config", str(cfg)))
        assert code == 3
        assert "line 1" in caplog.text and "'abc'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("command,option", [
        ("train", "format"), ("train", "scheme"),
        ("train", "oov_policy"), ("train", "confidence_mode"),
        ("evaluate", "format"), ("evaluate", "scheme"), ("predict", "input_format"),
    ])
    def test_config_value_outside_choices_exits_2(
        self, workdir, model_file, caplog, command, option
    ):
        argv = TestUnreadableInputs.valid_argv(command, workdir, model_file)
        cfg = workdir[0] / "run.conf"
        cfg.write_text(f"{option} = bogus\n", encoding="utf-8")
        assert main([command, *argv, "--config", str(cfg)]) == 2
        assert f"unknown {option} 'bogus'" in caplog.text
        assert not (workdir[0] / "out").exists()

    @pytest.mark.parametrize("command,option,value", [
        ("predict", "min_confidence", "nan"),
        ("predict", "min_confidence", "1.5"),
        ("predict", "min_confidence", "-0.1"),
        ("evaluate", "min_micro_f1", "nan"),
        ("evaluate", "min_micro_f1", "-inf"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_threshold_out_of_range_exits_4(
        self, workdir, model_file, caplog, command, option, value, source
    ):
        # no chunk passes `confidence >= nan` or `>= 1.5`, and `f1 < nan` never
        # fails the gate: each would exit 0 having silently done nothing
        argv = TestUnreadableInputs.valid_argv(command, workdir, model_file)
        if source == "flag":
            argv.append(f"--{option.replace('_', '-')}={value}")  # -inf is no flag
        else:
            cfg = workdir[0] / "run.conf"
            cfg.write_text(f"{option} = {value}\n", encoding="utf-8")
            argv += ["--config", str(cfg)]
        assert main([command, *argv]) == 4
        assert option in caplog.text
        assert not (workdir[0] / "out").exists()


# every option string of each subcommand, in the order its help lists them
OPTION_STRINGS = {
    "train": [
        "-h", "--help", "--verbose", "--config", "--train", "--val", "--format", "--scheme",
        "--schema", "--embeddings", "--min-count", "--grid", "--out-dir", "--word-dim",
        "--embed-dim", "--char-dim", "--kernel-width", "--num-filters", "--lstm-size",
        "--use-char-features", "--no-use-char-features", "--train-word-delta",
        "--no-train-word-delta", "--max-seq-length", "--use-transition-mask",
        "--no-use-transition-mask", "--learning-rate", "--batch-size", "--max-epochs",
        "--dropout", "--beta1", "--beta2", "--epsilon", "--warmup-steps",
        "--early-stopping-patience", "--patience", "--grad-clip-norm", "--seed",
        "--oov-policy", "--confidence-mode",
    ],
    "predict": [
        "-h", "--help", "--verbose", "--config", "--model", "--input", "--input-format",
        "--min-confidence", "--abbreviations", "--out-dir",
    ],
    "evaluate": [
        "-h", "--help", "--verbose", "--config", "--gold", "--pred", "--model", "--format",
        "--scheme", "--min-micro-f1", "--out-dir",
    ],
    "deidentify": [
        "-h", "--help", "--verbose", "--config", "--input", "--chunks", "--model", "--policy",
        "--seed", "--abbreviations", "--out-dir",
    ],
    "convert": [
        "-h", "--help", "--verbose", "--input", "--from", "--to", "--from-scheme",
        "--to-scheme", "--out",
    ],
}


def subcommand_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


class TestParser:
    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        listed = capsys.readouterr().out
        for name in OPTION_STRINGS:
            assert f"    {name} " in listed, name

    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_option_strings(self, command):
        full = subcommand_parsers(cli.build_parser())[command]
        (alone,) = subcommand_parsers(cli.build_parser(command)).values()
        for parser in (full, alone):
            assert [s for a in parser._actions for s in a.option_strings] == \
                OPTION_STRINGS[command]

    def test_one_subcommand_keeps_the_root_usage(self):
        assert cli.build_parser("convert").format_usage() == cli.build_parser().format_usage()

    @pytest.mark.parametrize("argv", [
        ["--verbose", "convert"], ["convert", "--verbose"], ["--verb", "convert"],
    ])
    def test_verbose_either_side(self, tmp_path, monkeypatch, argv):
        levels = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
        src = tmp_path / "src.tsv"
        src.write_text("fever\tB-Symptom\n\n", encoding="utf-8")
        assert main([*argv, "--input", str(src), "--from", "tsv2", "--to", "tsv2",
                     "--out", str(tmp_path / "out.tsv")]) == 0
        assert levels == [logging.INFO]

    # the option table's defaults, which a subcommand parsed with no options keeps
    TABLE_DEFAULTS = {
        "train": {"format": "tsv2", "scheme": "IOB2", "min_count": 1, **TrainConfig().to_dict()},
        "predict": {"input_format": "raw", "min_confidence": 0.0},
        "evaluate": {"format": "tsv2", "scheme": "IOB2"},
    }

    @pytest.mark.parametrize("command", sorted(TABLE_DEFAULTS))
    def test_table_defaults(self, command):
        args = vars(cli.build_parser(command).parse_args([command]))
        defaults = self.TABLE_DEFAULTS[command]
        assert {name: args[name] for name in defaults} == defaults
        assert all(args[name] is None for name in (args.keys() - defaults.keys()) & cli._CONFIG_KEYS)

    def test_embed_dim_alias(self):
        args = cli.build_parser("train").parse_args(["train", "--embed-dim", "7"])
        assert args.word_dim == 7

    @pytest.mark.parametrize("argv", [[], ["--verbose"], ["bogus"], ["deid"], ["--", "train"]])
    def test_missing_or_unknown_subcommand_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "{train,predict,evaluate,deidentify,convert}" in capsys.readouterr().err

    def test_config_keys_are_the_subcommands_options(self):
        shared = {"help", "verbose"}  # -h and --verbose belong to every subcommand
        dests = {a.dest for parser in subcommand_parsers(cli.build_parser()).values()
                 for a in parser._actions if a.option_strings}
        assert cli._CONFIG_KEYS == dests - shared

    @pytest.mark.parametrize("key", ["verbose", "help", "embed_dim", "lstm"])
    def test_config_key_no_option_names_exits_3(self, tmp_path, caplog, key):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        note = tmp_path / "note.txt"
        note.write_text(FIGURE_TEXT, encoding="utf-8")
        chunks = tmp_path / "chunks.tsv"
        chunks.write_text(figure_chunk_records(), encoding="utf-8")
        code = main(["deidentify", "--input", str(note), "--chunks", str(chunks),
                     "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert f"unknown key {key!r}" in caplog.text
        assert not (tmp_path / "out").exists()
