"""Span tracing from outside the program, for the traced benchmark run.

`install(tracer)` replaces public functions and methods of `mcbyol` with
timing wrappers at the names their callers look them up under (for
example `mcbyol.pipeline.bma_predict` or the `Tape` op methods).  It is
only ever called inside a traced child process, so untraced runs execute
the unmodified program.

Spans live in flat in-memory arrays (name, parent, start, end) and are
written once at the end.  A layer's self time is its span's duration
minus the durations of its direct child spans; calls never overlap in
this single-threaded program, so the self times of a stage span and all
its descendants add up to the stage span exactly.  Summaries express every
span in reference seconds, using the speed factor of the stage call
that contains it (see speed.py).
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np

# highest percentile that still has >= 10 samples beyond it; 50 is the floor
TAIL_LEVELS = (99.9, 99.0, 90.0)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._pairs: set[tuple[int, int]] = set()
        self._keep: list = []  # holds members and inputs so their ids stay unique

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """Span around fn; before(args, kwargs) and after(args, kwargs, result)
        run inside the span and may only update counters."""
        nid = self.name_id(name)
        clock = time.perf_counter
        name_arr, parent_arr = self.name, self.parent
        start_arr, end_arr, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            span = len(start_arr)
            name_arr.append(nid)
            parent_arr.append(stack[-1])
            end_arr.append(0.0)
            stack.append(span)
            start_arr.append(clock())
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                end_arr[span] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ---- counters -----------------------------------------------------------

    def count_noise(self, args, kwargs):
        if kwargs.get("noise_on", args[5] if len(args) > 5 else True):
            self.counts["sampler.noise_steps"] += 1

    def count_matmul(self, args, kwargs):
        a, b = args[1], args[2]
        if a.values.ndim == 2 and b.values.ndim == 2:
            m, k = a.shape
            self.counts["autodiff.matmul_flop"] += 2 * m * k * b.shape[1]

    def count_bma(self, args, kwargs):
        members, x = args[0], args[1]
        count = kwargs.get("count", args[3] if len(args) > 3 else None)
        used = members if count is None else members[-count:]
        self.counts["posterior.encoder_forwards"] += len(used)
        for encoder, _ in used:
            self._pairs.add((id(encoder), id(x)))
        self._keep.append((members, x))

    def bytes_of(self, path_arg: int, key: str):
        def hook(args, kwargs, result=None):
            self.counts[key] += os.path.getsize(args[path_arg])
        return hook

    def counting(self, key: str, fn):
        """Counter-only wrapper, no span: adds len(result) to counts[key]."""
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[key] += len(result)
            return result

        counted.__wrapped__ = fn
        return counted

    # ---- summary ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path, scale) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, run_id=np.array(self.run_id), names=np.array(self.names),
                 name=name, parent=parent, start=start, end=end,
                 root_scale=np.asarray(scale, dtype=np.float64))

    def summary(self, scale) -> dict:
        """Per layer: calls, total_s, self_s, p50_s, tail_s and tail level.
        Per stage (root span name): total span, unattributed (own self) time,
        self time and calls of every layer inside it, and how far the self
        times miss the span (zero up to rounding).  scale[k] converts the
        k-th root span and everything inside it to reference seconds."""
        name, parent, start, end = self.arrays()
        has_parent = parent >= 0
        # root span of every span; parents always precede their children
        root = np.arange(name.size)
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                root[i] = root[p]
        rank = np.zeros(name.size, dtype=np.int64)
        rank[~has_parent] = np.arange(np.count_nonzero(~has_parent))
        dur = (end - start) * np.asarray(scale, dtype=np.float64)[rank[root]]
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_sum = np.bincount(name, weights=self_t, minlength=n_names)
        layers = {}
        for i, layer in enumerate(self.names):
            d = dur[name == i]
            level = next((p for p in TAIL_LEVELS if d.size * (100.0 - p) / 100.0 >= 10), 50.0)
            layers[layer] = {
                "calls": int(calls[i]), "total_s": float(total[i]),
                "self_s": float(self_sum[i]),
                "p50_s": float(np.percentile(d, 50)) if d.size else 0.0,
                "tail_s": float(np.percentile(d, level)) if d.size else 0.0,
                "tail_level": level,
            }
        stages = {}
        stage_of = name[root]
        for sid in np.unique(stage_of):
            inside = stage_of == sid
            self_in = np.bincount(name[inside], weights=self_t[inside], minlength=n_names)
            calls_in = np.bincount(name[inside], minlength=n_names)
            stage = self.names[sid]
            span_s = float(dur[inside & ~has_parent].sum())
            stages[stage] = {
                "span_s": span_s,
                "unattributed_s": float(self_in[sid]),
                "layers": {self.names[j]: {"self_s": float(self_in[j]), "calls": int(calls_in[j])}
                           for j in np.flatnonzero(calls_in) if j != sid},
                # the self times inside a stage telescope to its span
                "sum_error_s": abs(float(self_in.sum()) - span_s),
            }
        counts = dict(self.counts)
        counts["posterior.distinct_pairs"] = len(self._pairs)
        return {"run_id": self.run_id, "spans": int(dur.size), "layers": layers,
                "stages": stages, "counts": counts}


def install(tracer: Tracer) -> None:
    """Patch every traced name of the program; call once per process."""
    import importlib
    from mcbyol import diagnostics, pipeline, sampler
    from mcbyol.autodiff import Tape
    from mcbyol.model import TwinModel
    from mcbyol.params import ParamVector

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    for stage in ("pretrain", "finetune", "eval", "ood", "sample_diag"):
        patch(pipeline, f"run_{stage}", f"pipeline.{stage}")
    patch(pipeline, "make_datasets", "data.make_datasets")
    patch(pipeline, "augment_pair", "data.augment_pair")
    for op in sorted(vars(Tape)):
        if op.startswith("_") or op == "backward" or not callable(getattr(Tape, op)):
            continue
        hooks = {"before": tracer.count_matmul} if op == "matmul" else {}
        patch(Tape, op, f"autodiff.op.{op}", **hooks)
    patch(Tape, "backward", "autodiff.backward")
    patch(sampler, "byol_loss_symmetrized", "model.loss_forward")
    patch(pipeline, "ema_update", "model.ema_update")
    patch(TwinModel, "online_flat", "model.online_flat")
    patch(TwinModel, "set_online_flat", "model.set_online_flat")
    for method in ("flatten", "set_flat", "grad_flat"):
        patch(ParamVector, method, f"params.{method}")
    patch(pipeline, "posterior_grad", "sampler.posterior_grad")
    for owner in (pipeline, diagnostics):
        for step in ("sgld_step", "sghmc_step"):
            patch(owner, step, "sampler.step", before=tracer.count_noise)
    patch(pipeline, "bma_predict", "posterior.bma_predict", before=tracer.count_bma)
    patch(pipeline, "save_ensemble", "posterior.save_ensemble",
          after=tracer.bytes_of(1, "posterior.save_ensemble_bytes"))
    patch(pipeline, "load_ensemble", "posterior.load_ensemble",
          before=tracer.bytes_of(0, "posterior.load_ensemble_bytes"))
    patch(pipeline, "save_member", "finetune.save_member",
          after=tracer.bytes_of(0, "finetune.save_member_bytes"))
    patch(pipeline, "load_member", "finetune.load_member",
          before=tracer.bytes_of(0, "finetune.load_member_bytes"))
    patch(pipeline, "finetune", "finetune.fit")
    # the package re-exports the finetune() function under the module's name
    finetune = importlib.import_module("mcbyol.finetune")
    finetune.minibatches = tracer.counting("finetune.minibatches", finetune.minibatches)
    patch(pipeline, "auroc", "metrics.auroc")
    patch(pipeline, "write_table", "metrics.write_table")
    patch(pipeline, "run_chain", "diagnostics.run_chain")
