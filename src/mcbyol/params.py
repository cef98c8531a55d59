"""Named, ordered collections of parameter arrays with flat-vector views.

A ParamVector is the unit the samplers, checkpoints, and EMA updates
operate on: segment order is fixed at construction and flatten / set_flat
round-trip bit-exactly.  Each segment is held as a Tensor, the tape's
type, so that the tests' tape oracles can record over it.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError

class ParamVector:
    def __init__(self, segments: dict[str, np.ndarray | Tensor]):
        """Wraps each array in a Tensor, a float64 one without a copy; a
        Tensor is kept as it is (the tests' oracles regroup leaves so)."""
        self._segments = {k: v if isinstance(v, Tensor) else Tensor(v) for k, v in segments.items()}

    @property
    def names(self) -> list[str]:
        return list(self._segments)

    @property
    def total_dim(self) -> int:
        return sum(t.size for t in self._segments.values())

    def __getitem__(self, name: str) -> Tensor:
        return self._segments[name]

    def items(self):
        return self._segments.items()

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {k: t.shape for k, t in self._segments.items()}

    def flatten(self) -> np.ndarray:
        """Concatenate all segments, row-major, in insertion order."""
        if not self._segments:
            return np.zeros(0)
        return np.concatenate([t.values.ravel() for t in self._segments.values()])

    def set_flat(self, vec: np.ndarray) -> None:
        """Inverse of flatten(); writes into each segment's array, so a view stays a view."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.total_dim,):
            raise DimensionError(f"set_flat: need {self.total_dim} values, got {vec.shape}")
        offset = 0
        for t in self._segments.values():
            n = t.size
            t.values[...] = vec[offset:offset + n].reshape(t.shape)
            offset += n

    def grad_flat(self) -> np.ndarray:
        """Gradient buffer in flatten() order; missing grads read as zero."""
        parts = []
        for t in self._segments.values():
            parts.append(t.grad.ravel() if t.grad is not None else np.zeros(t.size))
        return np.concatenate(parts) if parts else np.zeros(0)

    def copy(self) -> "ParamVector":
        return ParamVector({k: t.values.copy() for k, t in self._segments.items()})

    def same_layout(self, other: "ParamVector") -> bool:
        return self.shapes() == other.shapes()
