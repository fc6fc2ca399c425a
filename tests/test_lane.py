"""The lane's two primitives, and the training routines that run on it
against their one-thread runs, bit for bit."""

import sys
import threading

import numpy as np
import pytest

from conftest import InlineLane, rule_corpus, rule_lexicon, tiny_config, toy_table
from medner import cli
from medner.corpus import build_vocab
from medner.errors import NumericError
from medner.nercore import layers, model as model_module, serialize, training
from medner.nercore.lane import Lane
from medner.nercore.model import batch_nll_and_grads, init_model
from medner.nercore.serialize import save_model

pytestmark = pytest.mark.lane

TIMEOUT = 30


def bounded(fn):
    """fn() on a helper thread, joined with a timeout, so a deadlock fails
    the test instead of hanging it; returns fn's result or raises its error."""
    out = {}

    def target():
        try:
            out["value"] = fn()
        except BaseException as exc:
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(TIMEOUT)
    assert not thread.is_alive(), "deadlock"
    if "error" in out:
        raise out["error"]
    return out["value"]


def lane_threads():
    return [t for t in threading.enumerate() if t.name == "medner-lane"]


class TestShare:
    def test_every_item_once_on_both_threads(self):
        lane, seen = Lane(), []
        worker_took = threading.Event()

        def fn(item):
            if lane.on_worker():
                worker_took.set()
            else:  # the caller's first item waits until the worker has one
                assert worker_took.wait(TIMEOUT)
            seen.append((item, lane.on_worker()))

        bounded(lambda: lane.share(range(50), fn))
        assert sorted(item for item, _ in seen) == list(range(50))
        assert {on_worker for _, on_worker in seen} == {True, False}
        assert lane_threads() == []

    def test_one_item_runs_on_the_caller(self):
        lane, seen = Lane(), []
        lane.share([7], lambda item: seen.append((item, threading.current_thread())))
        assert seen == [(7, threading.current_thread())]

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_of_either_thread_reaches_the_caller(self, failing):
        lane, done = Lane(), []
        worker_took = threading.Event()

        def fn(item):
            on_worker = lane.on_worker()
            if on_worker:
                worker_took.set()
            else:
                assert worker_took.wait(TIMEOUT)
            if on_worker == (failing == "worker"):
                raise ValueError(f"failed on the {failing}")
            done.append(item)

        with pytest.raises(ValueError, match=f"failed on the {failing}"):
            bounded(lambda: lane.share(range(20), fn))
        assert lane_threads() == []

    def test_the_callers_error_wins(self):
        lane = Lane()
        worker_failed = threading.Event()

        def fn(item):
            if lane.on_worker():
                worker_failed.set()
                raise ValueError("worker")
            assert worker_failed.wait(TIMEOUT)
            raise KeyError("caller")

        with pytest.raises(KeyError, match="caller"):
            bounded(lambda: lane.share(range(4), fn))
        assert lane_threads() == []


class TestAhead:
    def test_result(self):
        lane = Lane()

        def run():
            with lane.ahead(lambda a, b: (a + b, lane.on_worker()), 2, 3) as job:
                return job.result()

        assert bounded(run) == (5, True)
        assert lane_threads() == []

    def test_error_is_raised_by_result(self):
        lane = Lane()

        def fails():
            raise ValueError("job failed")

        def run():
            with lane.ahead(fails) as job:
                job.result()

        with pytest.raises(ValueError, match="job failed"):
            bounded(run)
        assert lane_threads() == []

    def test_a_callers_error_still_joins_the_job(self):
        lane, finished = Lane(), []
        started = threading.Event()

        def slow():
            started.set()
            threading.Event().wait(0.05)
            finished.append(True)

        def run():
            with lane.ahead(slow):
                assert started.wait(TIMEOUT)
                raise KeyError("caller")

        with pytest.raises(KeyError, match="caller"):
            bounded(run)
        assert finished == [True]
        assert lane_threads() == []

    def test_a_busy_worker_queues_the_next_job(self):
        lane, ran = Lane(), []
        release = threading.Event()

        def first():
            assert release.wait(TIMEOUT)
            ran.append(("first", threading.current_thread()))

        def second():
            ran.append(("second", threading.current_thread()))

        def run():
            with lane.ahead(first):
                with lane.ahead(second) as job:
                    assert len(lane_threads()) == 1
                    release.set()
                    job.result()

        bounded(run)
        assert [name for name, _ in ran] == ["first", "second"]
        assert ran[0][1] is ran[1][1] and ran[0][1].name == "medner-lane"
        assert lane_threads() == []

    def test_calls_on_the_worker_run_inline(self):
        lane = Lane()

        def nested():
            on_worker = []
            lane.share(range(5), lambda item: on_worker.append(lane.on_worker()))
            with lane.ahead(lambda: lane.on_worker()) as job:
                on_worker.append(job.result())
            with lane.held():
                on_worker.append(lane.on_worker())
            return on_worker

        def run():
            with lane.ahead(nested) as job:
                return job.result()

        assert bounded(run) == [True] * 7
        assert lane_threads() == []


class TestOneWorker:
    """The process never runs more than the caller and one lane worker."""

    def test_at_most_one_worker_in_train_and_predict(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        corpus = rule_corpus(rng, 12)
        table = toy_table(rule_lexicon(), 16, rng)
        model = init_model(tiny_config(max_epochs=2, batch_size=4), corpus.schema,
                           build_vocab(corpus), table)
        seen = []

        def spy(fn):
            def counted(*args, **kwargs):
                seen.append(len(lane_threads()))
                return fn(*args, **kwargs)
            return counted

        # tag and training both run their LSTM through model's lstm_batch
        monkeypatch.setattr(model_module, "lstm_batch", spy(layers.lstm_batch))
        monkeypatch.setattr(serialize, "_sha256", spy(serialize._sha256))
        training.fit(model, corpus, corpus)
        path = tmp_path / "model.medner"
        save_model(model, str(path))
        note = tmp_path / "note.txt"
        note.write_text("patient took 250mg daily. " * 40, encoding="utf-8")
        argv = ["predict", "--model", str(path), "--input", str(note),
                "--out-dir", str(tmp_path / "out")]
        monkeypatch.setattr(model_module, "BATCH_TOKENS", 12)  # many buckets to share
        assert cli.main(argv) == 0
        assert seen and max(seen) == 1
        assert lane_threads() == []


def fast_switching(fn):
    """fn() under a 1 µs switch interval, so the threads interleave often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return fn()
    finally:
        sys.setswitchinterval(interval)


def fresh_model(seed=5, **overrides):
    rng = np.random.default_rng(seed)
    corpus = rule_corpus(rng, 10)
    table = toy_table(rule_lexicon(), 16, rng)
    model = init_model(tiny_config(**overrides), corpus.schema, build_vocab(corpus), table)
    return model, corpus


class TestAdamOnTheLane:
    @staticmethod
    def steps(model, corpus):
        """Five Adam steps from a fresh state; the gradient is checked all
        zero after each."""
        state = training.TrainState.for_model(model)
        for step in range(5):
            _, grads = batch_nll_and_grads(model, corpus.sentences[step:step + 3], step=step)
            training.adam_step(model, grads.flat, state)
            assert not grads.flat.any()
        return state

    def test_equals_inline_run_bitwise(self, monkeypatch):
        monkeypatch.setattr(training, "ADAM_BLOCK", 7)  # many blocks, a ragged last one
        threaded, corpus = fresh_model()
        assert threaded.flat.size % 7 != 0
        inline, _ = fresh_model()
        got = fast_switching(lambda: self.steps(threaded, corpus))
        InlineLane.install(monkeypatch)
        want = self.steps(inline, corpus)
        assert InlineLane.submitted > 0
        assert np.array_equal(threaded.flat, inline.flat)
        assert np.array_equal(got.m, want.m)
        assert np.array_equal(got.v, want.v)

    def test_nan_in_the_last_block_names_the_last_tensor(self, monkeypatch):
        monkeypatch.setattr(training, "ADAM_BLOCK", 7)
        model, corpus = fresh_model()
        state = training.TrainState.for_model(model)
        _, grads = batch_nll_and_grads(model, corpus.sentences[:3])
        last = list(model.tensors())[-1]
        grads.flat[-1] = np.nan
        with pytest.raises(NumericError, match=f"tensor {last} contains non-finite"):
            fast_switching(lambda: training.adam_step(model, grads.flat, state))


class TestGradientsOnTheLane:
    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    def test_equals_inline_run_bitwise(self, monkeypatch, batch, dropout):
        model, corpus = fresh_model(dropout=dropout)
        sentences = corpus.sentences[:batch]
        loss, grads = fast_switching(lambda: batch_nll_and_grads(model, sentences, step=3))
        InlineLane.install(monkeypatch)
        want_loss, want = batch_nll_and_grads(model, sentences, step=3)
        buckets = model_module._buckets(np.array([len(s) for s in sentences]))
        assert InlineLane.submitted == 2 * len(list(buckets))  # one per direction and pass
        assert loss == want_loss
        for name in want:
            assert np.array_equal(grads[name], want[name]), name
