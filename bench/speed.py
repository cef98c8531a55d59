"""Machine-speed sampling, so stage times can be reported in reference seconds.

On a shared host the same run can take 60% longer when neighbours are
busy, and CPU time moves with wall time.  While a stage call runs, a
SIGALRM handler times a short fixed kernel (no program code) every
PERIOD_S of wall time.  The call's wall time minus the kernel time spent
inside it is its program time; scaled by REF_BURST_S / (mean kernel time
during the call) it becomes reference seconds: the time the call would
take on the unloaded reference machine.  The kernel is mostly per-call
interpreter overhead on tiny arrays with one small dense layer: under
load it slowed in step with both the sampler chains and the finetune
loop, where a BLAS-heavy kernel tracked the chains poorly.  A call too
short to be sampled uses the samples taken so far.  The timer is a kernel
interval timer, so no thread is started.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# one kernel burst, timed from the handler while the pipeline runs, on an
# unloaded 2-core Intel Xeon at 2.1 GHz (Python 3.11, numpy 2.4, one BLAS
# thread)
REF_BURST_S = 0.00053
PERIOD_S = 0.05


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 64))
        self._w = 0.1 * rng.standard_normal((64, 64))
        self._b = rng.standard_normal(64)
        self._x = np.zeros(1)
        self._one = np.ones(1)
        self._burst()  # pays numpy's one-time costs
        self.samples: list[float] = []  # seconds per burst
        self.spent = 0.0                # seconds spent in the kernel

    def _burst(self) -> float:
        """One kernel run: 120 updates of a 1-element array (the per-call
        interpreter overhead that dominates the samplers and the tape), one
        small dense layer and some dict work."""
        t0 = time.perf_counter()
        x = self._x
        for _ in range(120):
            x = 0.99 * x + 0.01 * self._one
            if np.abs(x).max() > 1e6:
                break
        h = np.tanh(self._a @ self._w + self._b)
        table = {i: i * 0.5 for i in range(40)}
        sum(table.values()) + float(h.sum())
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        burst = self._burst()
        self.samples.append(burst)
        self.spent += burst

    def scale_now(self) -> float:
        """Reference seconds per wall second right now, from a few bursts."""
        return REF_BURST_S / statistics.median(self._burst() for _ in range(15))

    def timed(self, fn) -> dict:
        """Run fn once.  Returns its program time ("wall_s", kernel time taken
        out), reference time ("ref_s"), the factor that turns a span inside
        the call, kernel time included, into reference seconds ("span_scale"),
        and the exception it raised, if any ("error")."""
        first, spent0 = len(self.samples), self.spent
        error = None
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # reported by the caller as a failed call
            error = exc
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
        program = wall - (self.spent - spent0)
        during = self.samples[first:] or self.samples
        scale = (REF_BURST_S * len(during) / sum(during)) if during else self.scale_now()
        return {"wall_s": program, "ref_s": program * scale,
                "span_scale": program * scale / wall, "error": error}
