"""One worker thread beside the caller: the only second thread nercore runs.

Training, `tag` and `load_model` hand work to it through two primitives:

- share(items, fn): the caller and the worker each call fn on the next of
  `items` until none are left;
- ahead(fn, *args): a context manager that runs fn(*args) on the worker
  while its block runs on the caller, and joins the call when the block is
  left, whether it returns or raises.

The worker thread starts when the first primitive (or `held`) is entered,
not on import, and is stopped and joined when the last one is left, so
nothing the lane starts outlives the call that started it; `held` keeps it
up across the many short calls of a training run. Work that finds the
worker busy waits in its queue behind what is there: it does not fall back
to the caller alone. A primitive called on the worker's own thread runs its
work inline there, so no call waits on itself.

numpy releases the GIL in its products and elementwise passes, so the two
threads use two cores when each BLAS call runs on one thread
(OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import Future, wait
from contextlib import contextmanager

_DONE = object()


def _run(future: Future, fn: Callable, args: tuple) -> None:
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # future.result() raises it in the caller
        future.set_exception(exc)


def _serve(jobs: queue.SimpleQueue) -> None:
    while (job := jobs.get()) is not None:
        _run(*job)


class Lane:
    """A caller's one worker thread; see the module docstring."""

    def __init__(self):
        self._lock = threading.Lock()
        self._users = 0
        self._jobs: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None

    def on_worker(self) -> bool:
        """Whether this is the worker's thread, which runs lane calls inline."""
        # the worker runs a job only while its submitter holds the lane, so
        # _thread cannot change under a call made from a job
        return threading.current_thread() is self._thread

    @contextmanager
    def held(self) -> Iterator[None]:
        """Keep the worker up for the block; the first holder starts it and
        the last one to leave stops and joins it."""
        with self._lock:
            if self._users == 0:
                jobs = queue.SimpleQueue()
                thread = threading.Thread(target=_serve, args=(jobs,), name="medner-lane",
                                          daemon=True)
                thread.start()
                self._jobs, self._thread = jobs, thread
            self._users += 1
        try:
            yield
        finally:
            with self._lock:
                self._users -= 1
                if self._users == 0:
                    # every holder has waited for its jobs, so the worker is idle
                    self._jobs.put(None)
                    self._thread.join()
                    self._jobs = self._thread = None

    def submit(self, fn: Callable, *args) -> Future:
        """Queue fn(*args) for the worker. The caller holds the lane until
        the call is done."""
        future = Future()
        self._jobs.put((future, fn, args))
        return future

    @contextmanager
    def ahead(self, fn: Callable, *args) -> Iterator[Future]:
        """Run fn(*args) on the worker during the block, which gets its
        Future; the call is joined when the block is left, by any path."""
        if self.on_worker():
            future = Future()
            _run(future, fn, args)
            yield future
            return
        with self.held():
            future = self.submit(fn, *args)
            try:
                yield future
            finally:
                wait((future,))

    def share(self, items: Sequence, fn: Callable) -> None:
        """Call fn(item) for every item: the caller and the worker each take
        the next item until none are left, so fn must only write what its
        item owns. Fewer than two items run on the caller. The worker's
        error is raised once both have stopped; the caller's wins over it."""
        pending = iter(items)
        lock = threading.Lock()

        def take() -> None:
            while True:
                with lock:
                    item = next(pending, _DONE)
                if item is _DONE:
                    return
                fn(item)

        if len(items) < 2 or self.on_worker():
            take()
            return
        with self.ahead(take) as worker:
            take()
            worker.result()


_LANE = Lane()
share, ahead, held, on_worker = _LANE.share, _LANE.ahead, _LANE.held, _LANE.on_worker
