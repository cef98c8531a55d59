"""Forked processes that keep a second CPU busy.

Child is the one way this package forks.  gc is frozen across the fork,
so the child never collects, and never finalizes, the parent's objects.
The child leaves through os._exit, so it never runs the parent's cleanup
code: with 0 when its work returns, and with 1 after it has written the
exception its work raised, pickled, to a pipe.  Child.join reads that
pipe, then reaps the child; each caller joins on every way out.  Every
caller forks only where available_cpus() is 2 or more, and no output
depends on whether it does:

- run_pretrain forks one DirectionHelper per seed.  The symmetrized loss
  L(a, b) + L(b, a) is two gradient passes that share nothing until
  their sum, and on every step sampler.posterior_grad has the helper
  compute L(view_b, view_a) while it computes L(view_a, view_b) itself.
  Each online weight gets one gradient per direction and IEEE addition
  commutes, so the sum has the bits of one tape over both directions.
  The helper also draws and augments every step's views, from the view
  iterator the run forked it with, in the window where it would idle
  through the parent's update; the run draws from the same iterator
  itself where it has no helper, so the views are the same either way.
- run_finetune forks one child per seed, which fits some of the (label
  fraction, snapshot range) units and writes their member files while
  the parent fits the rest; both write the losses into a shared_array.
- run_eval and run_ood fork one child per seed (pipeline._sweep) for the
  later half of its snapshots.  This and run_finetune fork by run_split.

The helper's protocol is one round per step, over two pipes and one
shared anonymous mmap, which holds the model's online and target arrays
(moved there before the fork, TwinModel.move_to), two views of up to
max_rows rows and a gradient flat.  The parent writes the weights (the
sampler step, the EMA) only between a DONE and the next REQUEST; the
helper reads them in place only between a REQUEST and its DONE.  The
helper writes a step's two views and their row count into the mmap and
answers VIEWS; it does so first on start and then right after each DONE,
for the next step.  The parent copies the views out and sends one
REQUEST byte.  The helper computes L(view_b, view_a) on the views it
drew, writes the gradient flat and the loss back and answers DONE.
When its views run out it exits with 0.  It holds no write end of its
own request pipe, so the parent's close or death reads as EOF, on which
it exits with 0 too.  A helper that raises exits, so the parent reads
EOF where it waits for VIEWS or DONE and learns why from Child.join: an
error raised while drawing views is the parent's as itself, as it would
be where the parent draws them.
"""

from __future__ import annotations

import contextlib
import gc
import math
import mmap
import os
import pickle
from typing import Callable, Iterator

import numpy as np

from .errors import ContractError, DimensionError, HelperError, McbyolError
from .model import TwinModel, check_views
from .sampler import direction_grad

REQUEST, DONE, VIEWS = b"r", b"d", b"v"


def available_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork, cannot tell,
    or runs other threads already: a multi-threaded BLAS keeps the other
    CPUs busy (a helper beside it made pretraining 6 times slower on 2
    CPUs), and fork copies only the calling thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return cpus if threads == 1 and hasattr(os, "fork") else 1


class Child:
    """A forked process that runs work() and exits; what names it in the
    errors that join() returns."""

    def __init__(self, what: str, work: Callable[[], object]):
        self.what = what
        self._reports, reports = os.pipe()
        gc.freeze()
        try:
            self.pid = os.fork()
        except OSError:
            gc.unfreeze()
            os.close(self._reports)
            os.close(reports)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._reports)
                code = _run(work, reports)
            finally:
                os._exit(code)
        gc.unfreeze()
        os.close(reports)

    def join(self) -> Exception | None:
        """Waits for the child to exit and reaps it.  Returns None when it
        exited with 0, or was joined or reaped already; the exception its
        work raised, or a HelperError with that exception's type and
        message where it does not unpickle; or a HelperError saying how
        the child ended without a report."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        with os.fdopen(self._reports, "rb") as reports:
            report = reports.read()  # to EOF, which comes when the child exits
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:
            status = None
        if report:
            text, raised = pickle.loads(report)
            try:
                return pickle.loads(raised)
            except Exception:
                return HelperError(f"{self.what} failed: {text}")
        if not status:
            return None
        if os.WIFSIGNALED(status):
            return HelperError(f"{self.what} was killed by signal {os.WTERMSIG(status)}")
        return HelperError(f"{self.what} exited with code {os.waitstatus_to_exitcode(status)}")


def run_split(what: str, work: Callable[[list[int]], object], mine: list[int],
              theirs: list[int]) -> None:
    """Runs work(theirs) in a forked Child named what while this process
    runs work(mine), or work(sorted(mine + theirs)) here alone where theirs
    is empty or fewer than 2 CPUs are available; returns or raises once the
    child is reaped.  This process's error wins; the child's raises as
    itself where it is a McbyolError or OSError, else as a HelperError."""
    if not theirs or available_cpus() < 2:
        work(sorted(mine + theirs))
        return
    child = Child(what, lambda: work(theirs))
    try:
        work(mine)
    finally:
        error = child.join()
    if isinstance(error, (McbyolError, OSError)):
        raise error
    if error is not None:
        raise HelperError(f"{what} failed: {type(error).__name__}: {error}")


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array over an anonymous shared mmap, so that a child
    forked after this call writes into this process's pages; a plain empty
    array where shape holds no element, which mmap cannot map."""
    size = math.prod(shape)
    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * size)) if size else np.empty(shape)


def _run(work: Callable[[], object], reports: int) -> int:
    """The child's body: runs work() and returns the exit code, writing
    (type and message, pickled exception) to reports when work raises."""
    try:
        work()
        return 0
    except Exception as exc:
        try:
            raised = pickle.dumps(exc)
        except Exception:
            raised = b""
        with os.fdopen(reports, "wb") as out:
            out.write(pickle.dumps((f"{type(exc).__name__}: {exc}", raised)))
        return 1


class DirectionHelper:
    """The parent's end of one forked helper: views() takes a step's views,
    send() starts the helper's direction on them, receive() takes its
    gradient and loss, close() reaps the process."""

    def __init__(self, model: TwinModel, max_rows: int,
                 views: Iterator[tuple[np.ndarray, np.ndarray]]):
        dim, width = model.online_dim, model.input_dim
        sizes = [dim, model.target.size, max_rows * width, max_rows * width, dim + 1]
        self._mm = mmap.mmap(-1, 8 + 8 * sum(sizes))  # MAP_SHARED: the fork sees writes
        self._rows = np.frombuffer(self._mm, dtype=np.int64, count=1)
        floats = np.split(np.frombuffer(self._mm, dtype=np.float64, offset=8),
                          np.cumsum(sizes)[:-1])
        model.move_to(floats[0], floats[1])
        self._view_a, self._view_b = (v.reshape(max_rows, width) for v in floats[2:4])
        self._grad, self._loss = floats[4][:-1], floats[4][-1:]
        self._drawn: tuple[np.ndarray, np.ndarray] | None = None  # what views() last returned
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()

        def serve() -> None:
            os.close(self._requests)
            os.close(self._replies)
            self._serve(model, views, requests, replies)

        try:
            self._child = Child("the gradient helper process", serve)
        except OSError:
            os.close(self._requests)
            os.close(self._replies)
            raise
        finally:
            os.close(requests)
            os.close(replies)

    @property
    def pid(self) -> int | None:
        """The helper's process id, or None once it is closed."""
        return self._child.pid

    def _serve(self, model: TwinModel, views: Iterator[tuple[np.ndarray, np.ndarray]],
               requests: int, replies: int) -> None:
        """The helper's loop, until the views run out or the parent hangs up."""
        capacity, width = self._view_a.shape
        for view_a, view_b in views:
            a, b = check_views(model, view_a, view_b)
            if a.shape[0] > capacity:
                raise DimensionError(f"helper views must be equal (1..{capacity}, {width}) "
                                     f"batches, got {a.shape} and {b.shape}")
            rows = a.shape[0]
            self._rows[0] = rows
            self._view_a[:rows] = a
            self._view_b[:rows] = b
            os.write(replies, VIEWS)
            if os.read(requests, 1) != REQUEST:
                return
            grad, loss = direction_grad(model, b, a)
            self._grad[:] = grad
            self._loss[0] = loss
            os.write(replies, DONE)

    def _check_open(self) -> None:
        if self.pid is None:
            raise HelperError("the gradient helper process is closed")

    def views(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the next step's two views, once the helper has drawn
        them.  An error the helper raised while drawing them raises here as
        itself."""
        self._check_open()
        if os.read(self._replies, 1) != VIEWS:
            raise self._lost(as_itself=True)
        rows = int(self._rows[0])
        self._drawn = (self._view_a[:rows].copy(), self._view_b[:rows].copy())
        return self._drawn

    def send(self, view_a: np.ndarray, view_b: np.ndarray) -> None:
        """Start L(view_b, view_a) at the weights in the mmap, where view_a
        and view_b are the arrays views() last returned."""
        self._check_open()
        drawn = self._drawn
        if drawn is None or view_a is not drawn[0] or view_b is not drawn[1]:
            raise ContractError("the gradient helper computes on the views it drew: "
                                "pass the arrays its views() last returned")
        self._drawn = None  # each step's views go out once
        try:
            os.write(self._requests, REQUEST)
        except BrokenPipeError:
            raise self._lost() from None

    def receive(self) -> tuple[np.ndarray, float]:
        """The gradient flat and loss of the direction send() started."""
        self._check_open()
        if os.read(self._replies, 1) == DONE:
            return self._grad.copy(), float(self._loss[0])
        raise self._lost()

    def _lost(self, as_itself: bool = False) -> Exception:
        """The error for a helper that hung up unasked; reaps it to say why.
        An error the helper raised is a HelperError naming it, or itself
        where as_itself is set and it unpickled."""
        error = self.close()
        if error is None:
            return HelperError("the gradient helper process ended")
        if isinstance(error, HelperError) or as_itself:
            return error
        return HelperError(f"the gradient helper process failed: "
                           f"{type(error).__name__}: {error}")

    def close(self) -> Exception | None:
        """Hang up and reap the helper; returns what Child.join returns.  A
        helper computing a reply finishes it, fails to write it and exits."""
        if self.pid is None:
            return None
        os.close(self._requests)
        os.close(self._replies)
        return self._child.join()


@contextlib.contextmanager
def direction_helper(model: TwinModel, max_rows: int,
                     views: Iterator[tuple[np.ndarray, np.ndarray]]):
    """Yields a DirectionHelper forked from this process, which draws every
    step's views, of up to max_rows rows, from views; or None where fewer
    than 2 CPUs are available (the caller then draws from views, and
    posterior_grad runs both directions here).  Reaps the helper on every
    way out."""
    helper = DirectionHelper(model, max_rows, views) if available_cpus() >= 2 else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
