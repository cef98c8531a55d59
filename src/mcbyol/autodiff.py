"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

The op vocabulary is fixed to what the tests' two tape oracles run, the
twin-network loss and the fine-tuning head: matmul, add, bias_add, tanh,
relu, l2_normalize, mse, softmax_cross_entropy.  A Tape records every
operation whose output needs a gradient; backward() replays the records
in reverse.  Tapes are rebuilt per forward pass and must not be shared
across threads or processes.

mlp_layers and mlp_backward are a dense network's forward and backward
as plain functions over arrays, with the arithmetic of its matmul ->
bias_add -> tanh|relu records.  Pretraining and fine-tuning take every
gradient in closed form with them and build no Tape: it stays as the
tests' independent reference for those bits and the tracer's hook.
Tensor is the tape's type; no pipeline path sets a gradient flag, and the
tests' oracles mark the leaves they differentiate.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

EPS_NORM = 1e-12  # denominator guard in l2_normalize


class Tensor:
    """Dense float64 array with an optional gradient buffer.

    Leaf tensors (built directly, not by tape ops) reject non-finite
    values and take a gradient only with requires_grad set; .grad
    accumulates across backward calls until set to None.
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def mlp_layers(x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]],
               activation: str, out: Sequence[np.ndarray] | None = None) -> list[np.ndarray]:
    """Every layer's output of the dense network h <- act(h @ W + b), with
    the activation on hidden layers only.  Each output is a fresh array, or
    out[i] where out is given, that the bias and activation update in place."""
    if activation not in ("tanh", "relu"):
        raise ContractError(f"mlp: unknown activation {activation!r}")
    last = len(layers) - 1
    outs = []
    h = x
    for i, (w, b) in enumerate(layers):
        h = h @ w if out is None else np.matmul(h, w, out=out[i])
        h += b
        if i < last:
            if activation == "tanh":
                np.tanh(h, out=h)
            else:
                np.maximum(h, 0.0, out=h)
        outs.append(h)
    return outs


def mlp_backward(x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]],
                 outs: Sequence[np.ndarray], g: np.ndarray, activation: str,
                 input_grad: bool) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Reverse pass of outs = mlp_layers(x, layers, activation) for the
    adjoint g of the last output (g is not written to).  Returns the
    gradient of x, or None without input_grad, and the gradients of
    [W0, b0, W1, b1, ...]."""
    grads: list[np.ndarray] = []
    for i in range(len(layers) - 1, 0, -1):
        a = outs[i - 1]
        grads[:0] = [a.T @ g, g.sum(axis=0)]
        g = g @ layers[i][0].T  # a fresh array, so the derivative goes in place
        if activation == "tanh":
            g *= 1.0 - a * a
        else:
            g *= a > 0.0
    grads[:0] = [x.T @ g, g.sum(axis=0)]
    return (g @ layers[0][0].T if input_grad else None), grads


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

    def l2_normalize(self, x: Tensor) -> Tensor:
        """Row-wise v / max(||v||, eps) of a 2-D input.

        The max-guard keeps nonzero rows exactly unit norm while still
        bounding the output near zero-norm inputs.
        """
        if x.values.ndim != 2:
            raise DimensionError(f"l2_normalize: need 2-D, got {x.shape}")
        v = x.values
        s = np.maximum(np.sqrt((v * v).sum(axis=1, keepdims=True)), EPS_NORM)
        out = _result(v / s, x.requires_grad)

        def backward(g):
            # d(v/s)/dv = I/s - v v^T / s^3, per row (s constant below the guard)
            proj = (g * v).sum(axis=1, keepdims=True)
            return (g / s - v * (proj / (s * s * s)),)

        self._push(out, (x,), backward)
        return out

    def mse(self, a: Tensor, b: Tensor) -> Tensor:
        """Mean over rows of the squared Euclidean distance ||a_i - b_i||^2 (2-D only)."""
        if a.values.ndim != 2 or a.shape != b.shape:
            raise DimensionError(f"mse: need equal 2-D shapes, got {a.shape} vs {b.shape}")
        d = a.values - b.values
        n_rows = d.shape[0]
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

