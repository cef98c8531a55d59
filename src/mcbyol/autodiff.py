"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The op vocabulary is fixed to what the twin-network losses and the linear
classifier need: matmul, add, bias_add, tanh, relu, scale, sum, dot, mlp,
l2_normalize, mse, softmax_cross_entropy.  `mlp` is a whole dense network
as one record, with the same arithmetic as its matmul -> bias_add ->
tanh|relu composition.  A Tape records every operation whose output needs
a gradient; backward() replays the records in reverse.  Tapes are rebuilt
per forward pass and must not be shared across threads or processes.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

EPS_NORM = 1e-12  # denominator guard in l2_normalize


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    Leaf tensors (built directly, not by tape ops) reject non-finite
    values; .grad accumulates across backward calls until zero_grad().
    """

    __slots__ = ("values", "requires_grad", "grad", "_op_produced")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("leaf tensor contains NaN or Inf")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._op_produced = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.values = self.values.copy()
        t.requires_grad = self.requires_grad
        t.grad = None if self.grad is None else self.grad.copy()
        t._op_produced = False
        return t

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def mlp_layers(x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]],
               activation: str) -> list[np.ndarray]:
    """Every layer's output of the dense network h <- act(h @ W + b), with
    the activation on hidden layers only.  Each output is a fresh array
    that the bias and the activation then update in place."""
    if activation not in ("tanh", "relu"):
        raise ContractError(f"mlp: unknown activation {activation!r}")
    last = len(layers) - 1
    outs = []
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w
        h += b
        if i < last:
            if activation == "tanh":
                np.tanh(h, out=h)
            else:
                np.maximum(h, 0.0, out=h)
        outs.append(h)
    return outs


def _result(values: np.ndarray, requires_grad: bool) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.values = values
    out.requires_grad = requires_grad
    out.grad = None
    out._op_produced = True
    return out


class Tape:
    """Ordered record of differentiable operations for one forward pass."""

    def __init__(self):
        # each record: (output, inputs, backward_fn)
        # backward_fn(out_grad) -> tuple of grads aligned with inputs (None = no flow)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def _push(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
        if out.requires_grad:
            self._records.append((out, inputs, backward_fn))

    # ---- primitives -------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
            raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
        out = _result(a.values @ b.values, a.requires_grad or b.requires_grad)

        def backward(g):
            ga = g @ b.values.T if a.requires_grad else None
            gb = a.values.T @ g if b.requires_grad else None
            return ga, gb

        self._push(out, (a, b), backward)
        return out

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"add: shape mismatch {a.shape} vs {b.shape}")
        out = _result(a.values + b.values, a.requires_grad or b.requires_grad)

        def backward(g):
            return (g if a.requires_grad else None,
                    g if b.requires_grad else None)

        self._push(out, (a, b), backward)
        return out

    def bias_add(self, x: Tensor, b: Tensor) -> Tensor:
        if x.values.ndim != 2 or b.values.ndim != 1 or x.shape[1] != b.shape[0]:
            raise DimensionError(f"bias_add: incompatible shapes {x.shape} + {b.shape}")
        out = _result(x.values + b.values, x.requires_grad or b.requires_grad)

        def backward(g):
            gx = g if x.requires_grad else None
            gb = g.sum(axis=0) if b.requires_grad else None
            return gx, gb

        self._push(out, (x, b), backward)
        return out

    def tanh(self, x: Tensor) -> Tensor:
        y = np.tanh(x.values)
        out = _result(y, x.requires_grad)

        def backward(g):
            return (g * (1.0 - y * y),)

        self._push(out, (x,), backward)
        return out

    def relu(self, x: Tensor) -> Tensor:
        out = _result(np.maximum(x.values, 0.0), x.requires_grad)

        def backward(g):
            return (g * (x.values > 0.0),)

        self._push(out, (x,), backward)
        return out

    def mlp(self, x: Tensor, layers: Sequence[tuple[Tensor, Tensor]], activation: str) -> Tensor:
        """Dense network over (W, b) layers, activation on hidden layers only,
        recorded as one op.  Forward and backward do the arithmetic of the
        per-layer matmul -> bias_add -> tanh|relu records, so values and
        gradients are bit-identical to that composition."""
        if x.values.ndim != 2 or not layers:
            raise DimensionError(f"mlp: need a 2-D input and a layer, got {x.shape}")
        width = x.shape[1]
        for w, b in layers:
            if w.values.ndim != 2 or b.values.ndim != 1 or w.shape[0] != width \
                    or b.shape[0] != w.shape[1]:
                raise DimensionError(
                    f"mlp: incompatible shapes {x.shape} through {w.shape} + {b.shape}")
            width = w.shape[1]
        outs = mlp_layers(x.values, [(w.values, b.values) for w, b in layers], activation)
        # whether each layer's input carries a gradient, as the per-op records decide it
        flows = [x.requires_grad]
        for w, b in layers:
            flows.append(flows[-1] or w.requires_grad or b.requires_grad)
        out = _result(outs[-1], flows[-1])
        tanh = activation == "tanh"

        def backward(g):
            grads = []
            for i in range(len(layers) - 1, -1, -1):
                w, b = layers[i]
                a = outs[i - 1] if i else x.values
                grads += [g.sum(axis=0) if b.requires_grad else None,
                          a.T @ g if w.requires_grad else None]
                if not flows[i]:
                    grads += [None] * (2 * i + 1)
                    break
                g = g @ w.values.T  # a fresh array, so the derivatives below go in place
                if not i:
                    grads.append(g)
                elif tanh:
                    g *= 1.0 - a * a
                else:
                    g *= a > 0.0
            grads.reverse()
            return grads

        self._push(out, (x, *(t for layer in layers for t in layer)), backward)
        return out

    def scale(self, x: Tensor, c: float) -> Tensor:
        c = float(c)
        out = _result(x.values * c, x.requires_grad)

        def backward(g):
            return (g * c,)

        self._push(out, (x,), backward)
        return out

    def sum(self, x: Tensor) -> Tensor:
        out = _result(np.asarray(x.values.sum()), x.requires_grad)

        def backward(g):
            return (np.broadcast_to(g, x.shape).copy() if x.shape else np.asarray(g),)

        self._push(out, (x,), backward)
        return out

    def dot(self, a: Tensor, b: Tensor) -> Tensor:
        if a.values.ndim != 1 or b.values.ndim != 1 or a.shape != b.shape:
            raise DimensionError(f"dot: need equal-length vectors, got {a.shape}, {b.shape}")
        out = _result(np.asarray(a.values @ b.values), a.requires_grad or b.requires_grad)

        def backward(g):
            ga = g * b.values if a.requires_grad else None
            gb = g * a.values if b.requires_grad else None
            return ga, gb

        self._push(out, (a, b), backward)
        return out

    def l2_normalize(self, x: Tensor) -> Tensor:
        """Row-wise v / max(||v||, eps); 1-D input treated as a single row.

        The max-guard keeps nonzero rows exactly unit norm while still
        bounding the output near zero-norm inputs.
        """
        if x.values.ndim not in (1, 2):
            raise DimensionError(f"l2_normalize: need 1-D or 2-D, got {x.shape}")
        v = x.values if x.values.ndim == 2 else x.values[None, :]
        r = np.sqrt((v * v).sum(axis=1, keepdims=True))
        s = np.maximum(r, EPS_NORM)
        y = v / s
        out_vals = y if x.values.ndim == 2 else y[0]
        out = _result(out_vals, x.requires_grad)

        def backward(g):
            g2 = g if g.ndim == 2 else g[None, :]
            # d(v/s)/dv = I/s - v v^T / s^3, per row (s constant below the guard)
            proj = (g2 * v).sum(axis=1, keepdims=True)
            gv = g2 / s - v * (proj / (s * s * s))
            return (gv if x.values.ndim == 2 else gv[0],)

        self._push(out, (x,), backward)
        return out

    def mse(self, a: Tensor, b: Tensor) -> Tensor:
        """Mean over rows of the squared Euclidean distance ||a_i - b_i||^2."""
        if a.shape != b.shape:
            raise DimensionError(f"mse: shape mismatch {a.shape} vs {b.shape}")
        d = a.values - b.values
        n_rows = d.shape[0] if d.ndim == 2 else 1
        out = _result(np.asarray((d * d).sum() / n_rows), a.requires_grad or b.requires_grad)

        def backward(g):
            base = (2.0 / n_rows) * g * d
            return (base if a.requires_grad else None,
                    -base if b.requires_grad else None)

        self._push(out, (a, b), backward)
        return out

    def softmax_cross_entropy(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """Mean over the batch of -log softmax(logits)[label]."""
        if logits.values.ndim != 2:
            raise DimensionError(f"softmax_cross_entropy: need (N, C) logits, got {logits.shape}")
        labels = np.asarray(labels, dtype=np.int64)
        n, c = logits.shape
        if labels.shape != (n,):
            raise DimensionError(f"softmax_cross_entropy: need {n} labels, got {labels.shape}")
        if labels.min() < 0 or labels.max() >= c:
            raise ContractError("softmax_cross_entropy: label out of range")
        z = logits.values
        zmax = z.max(axis=1, keepdims=True)
        logsumexp = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
        logp = z - logsumexp
        out = _result(np.asarray(-logp[np.arange(n), labels].mean()), logits.requires_grad)

        def backward(g):
            p = np.exp(logp)
            p[np.arange(n), labels] -= 1.0
            return (g * p / n,)

        self._push(out, (logits,), backward)
        return out

    # ---- reverse pass -----------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf.

        Visits the recorded ops exactly once, in reverse recording order.
        Tensors with requires_grad=False never receive gradients.
        """
        if loss.values.size != 1:
            raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
        if not loss.requires_grad:
            return
        adjoint: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
        leaves: dict[int, Tensor] = {}
        for out, inputs, backward_fn in reversed(self._records):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue  # branch not reachable from the loss
            for inp, gin in zip(inputs, backward_fn(g)):
                if gin is None or not inp.requires_grad:
                    continue
                key = id(inp)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + gin
                else:
                    adjoint[key] = gin
                if not inp._op_produced:
                    leaves[key] = inp
        for key, leaf in leaves.items():
            if key in adjoint:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.values)
                leaf.grad += adjoint.pop(key)

