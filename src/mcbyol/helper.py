"""A forked helper process that computes one direction of the twin loss.

The symmetrized loss L(a, b) + L(b, a) is two tape passes that share no
record until their sum.  Where this process may run on two or more CPUs,
run_pretrain forks one helper per seed once the model exists, and on every
step sampler.posterior_grad hands it L(view_b, view_a) while it computes
L(view_a, view_b) itself.  Each online weight gets one adjoint per
direction and IEEE addition commutes, so the sum of the two gradients has
the bits of one tape over both directions: no output depends on whether
the helper runs.

The protocol is stateless per step.  The parent writes the online flat,
the target encoder and projector flats, both views and their row count
into one shared anonymous mmap sized for max_rows rows, then sends one
byte on the request pipe.  The helper writes the gradient flat and the
loss back and answers DONE, or writes a message and answers FAILED.  It
holds no write end of its own request pipe, so the parent's close or
death reads as EOF, and it leaves through os._exit on EOF, on FAILED and
on any exception: it never runs the parent's cleanup code.
"""

from __future__ import annotations

import contextlib
import gc
import mmap
import os

import numpy as np

from .errors import DimensionError, HelperError
from .model import TwinModel
from .sampler import direction_grad

REQUEST, DONE, FAILED = b"r", b"d", b"f"


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


class DirectionHelper:
    """The parent's end of one forked helper: send() a direction's inputs,
    receive() its gradient and loss, close() to reap the process."""

    def __init__(self, model: TwinModel, max_rows: int):
        dim, width = model.online_dim, model.input_dim
        sizes = [dim, model.target_encoder.total_dim, model.target_projector.total_dim,
                 max_rows * width, max_rows * width, dim + 1]
        self._mm = mmap.mmap(-1, 16 + 8 * sum(sizes))  # MAP_SHARED: the fork sees writes
        self._ints = np.frombuffer(self._mm, dtype=np.int64, count=2)  # rows, message bytes
        floats = np.split(np.frombuffer(self._mm, dtype=np.float64, offset=16),
                          np.cumsum(sizes)[:-1])
        self._online, self._target_encoder, self._target_projector = floats[:3]
        self._view_a, self._view_b = (v.reshape(max_rows, width) for v in floats[3:5])
        self._grad, self._loss = floats[5][:-1], floats[5][-1:]
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        gc.freeze()  # so the helper never collects, and never finalizes, the parent's objects
        try:
            self.pid = os.fork()
        except OSError:
            gc.unfreeze()
            for fd in (requests, self._requests, self._replies, replies):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(self._requests)
                os.close(self._replies)
                code = self._serve(model, requests, replies)
            finally:
                os._exit(code)
        gc.unfreeze()
        os.close(requests)
        os.close(replies)

    def _serve(self, model: TwinModel, requests: int, replies: int) -> int:
        """The helper's loop; returns its exit code."""
        while os.read(requests, 1) == REQUEST:
            try:
                rows = int(self._ints[0])
                model.set_online_flat(self._online)
                model.target_encoder.set_flat(self._target_encoder)
                model.target_projector.set_flat(self._target_projector)
                grad, loss = direction_grad(model, self._view_a[:rows].copy(),
                                            self._view_b[:rows].copy())
                self._grad[:] = grad
                self._loss[0] = loss
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}".encode()[:self._grad.nbytes]
                self._ints[1] = len(message)
                self._grad.view(np.uint8)[:len(message)] = np.frombuffer(message, dtype=np.uint8)
                os.write(replies, FAILED)
                return 1
            os.write(replies, DONE)
        return 0

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
        self._ints[0] = rows
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
        reply = os.read(self._replies, 1)
        if reply == DONE:
            return self._grad.copy(), float(self._loss[0])
        if reply == FAILED:
            message = self._grad.view(np.uint8)[:int(self._ints[1])].tobytes()
            self.close()
            raise HelperError("the gradient helper process failed: "
                              + message.decode(errors="replace"))
        raise self._lost()

    def _lost(self) -> HelperError:
        """The error for a helper that hung up unasked; reaps it to say how it ended."""
        status = self.close()
        if status is None:
            how = "ended"
        elif os.WIFSIGNALED(status):
            how = f"was killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exited with code {os.waitstatus_to_exitcode(status)}"
        return HelperError(f"the gradient helper process {how}")

    def close(self) -> int | None:
        """Hang up and reap the helper; returns its wait status, or None when
        it was closed already or reaped elsewhere.  A helper computing a
        reply finishes it, fails to write it and exits."""
        if self.pid is None:
            return None
        pid, self.pid = self.pid, None
        os.close(self._requests)
        os.close(self._replies)
        try:
            return os.waitpid(pid, 0)[1]
        except ChildProcessError:
            return None


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
