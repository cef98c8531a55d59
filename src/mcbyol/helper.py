"""Forked processes that keep a second CPU busy.

Child is the one way this package forks.  gc is frozen across the fork,
so the child never collects, and never finalizes, the parent's objects.
The child leaves through os._exit, so it never runs the parent's cleanup
code: with 0 when its work returns, and with 1 after it has written the
exception its work raised, pickled, to a pipe.  Child.join reads that
pipe, then reaps the child; each caller joins on every way out.  Both
callers fork only where available_cpus() is 2 or more, and no output
depends on whether they do:

- run_pretrain forks one DirectionHelper per seed.  The symmetrized loss
  L(a, b) + L(b, a) is two tape passes that share no record until their
  sum, and on every step sampler.posterior_grad hands the helper
  L(view_b, view_a) while it computes L(view_a, view_b) itself.  Each
  online weight gets one adjoint per direction and IEEE addition
  commutes, so the sum of the two gradients has the bits of one tape
  over both directions.
- run_finetune forks one child per seed, which fits some of the label
  fractions and writes their files while the parent fits the rest.

The helper's protocol is stateless per step.  The parent writes the
online flat, the target encoder and projector flats, both views and
their row count into one shared anonymous mmap sized for max_rows rows,
then sends one byte on the request pipe.  The helper writes the gradient
flat and the loss back and answers DONE.  It holds no write end of its
own request pipe, so the parent's close or death reads as EOF, on which
it exits with 0.  A helper that raises exits, so the parent reads EOF
where it waits for DONE and learns why from Child.join.
"""

from __future__ import annotations

import contextlib
import gc
import mmap
import os
import pickle
from typing import Callable

import numpy as np

from .errors import DimensionError, HelperError
from .model import TwinModel
from .sampler import direction_grad

REQUEST, DONE = b"r", b"d"


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
    """The parent's end of one forked helper: send() a direction's inputs,
    receive() its gradient and loss, close() to reap the process."""

    def __init__(self, model: TwinModel, max_rows: int):
        dim, width = model.online_dim, model.input_dim
        sizes = [dim, model.target_encoder.total_dim, model.target_projector.total_dim,
                 max_rows * width, max_rows * width, dim + 1]
        self._mm = mmap.mmap(-1, 8 + 8 * sum(sizes))  # MAP_SHARED: the fork sees writes
        self._rows = np.frombuffer(self._mm, dtype=np.int64, count=1)
        floats = np.split(np.frombuffer(self._mm, dtype=np.float64, offset=8),
                          np.cumsum(sizes)[:-1])
        self._online, self._target_encoder, self._target_projector = floats[:3]
        self._view_a, self._view_b = (v.reshape(max_rows, width) for v in floats[3:5])
        self._grad, self._loss = floats[5][:-1], floats[5][-1:]
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()

        def serve() -> None:
            os.close(self._requests)
            os.close(self._replies)
            self._serve(model, requests, replies)

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

    def _serve(self, model: TwinModel, requests: int, replies: int) -> None:
        """The helper's loop, until the parent hangs up."""
        while os.read(requests, 1) == REQUEST:
            rows = int(self._rows[0])
            model.set_online_flat(self._online)
            model.target_encoder.set_flat(self._target_encoder)
            model.target_projector.set_flat(self._target_projector)
            grad, loss = direction_grad(model, self._view_a[:rows].copy(),
                                        self._view_b[:rows].copy())
            self._grad[:] = grad
            self._loss[0] = loss
            os.write(replies, DONE)

    def _check_open(self) -> None:
        if self.pid is None:
            raise HelperError("the gradient helper process is closed")

    def send(self, model: TwinModel, view_a: np.ndarray, view_b: np.ndarray) -> None:
        """Start L(view_a, view_b) at the model's current weights."""
        self._check_open()
        a, b = np.asarray(view_a, dtype=np.float64), np.asarray(view_b, dtype=np.float64)
        capacity, width = self._view_a.shape
        if a.shape != b.shape or a.ndim != 2 or a.shape[1] != width \
                or not 1 <= a.shape[0] <= capacity:
            raise DimensionError(f"helper views must be equal (1..{capacity}, {width}) "
                                 f"batches, got {a.shape} and {b.shape}")
        rows = a.shape[0]
        self._rows[0] = rows
        self._online[:] = model.online_flat()
        self._target_encoder[:] = model.target_encoder.flatten()
        self._target_projector[:] = model.target_projector.flatten()
        self._view_a[:rows] = a
        self._view_b[:rows] = b
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

    def _lost(self) -> HelperError:
        """The error for a helper that hung up unasked; reaps it to say why."""
        error = self.close()
        if error is None:
            return HelperError("the gradient helper process ended")
        if isinstance(error, HelperError):
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
def direction_helper(model: TwinModel, max_rows: int):
    """Yields a DirectionHelper forked from this process for views of up to
    max_rows rows, or None where fewer than 2 CPUs are available
    (posterior_grad then runs both directions here); reaps the helper on
    every way out."""
    helper = DirectionHelper(model, max_rows) if available_cpus() >= 2 else None
    try:
        yield helper
    finally:
        if helper is not None:
            helper.close()
