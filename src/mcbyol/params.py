"""Named, ordered collections of parameter tensors with flat-vector views.

A ParamVector is the unit the samplers, checkpoints, and EMA updates
operate on: segment order is fixed at construction and flatten / set_flat
round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import DimensionError

class ParamVector:
    def __init__(self, segments: dict[str, Tensor]):
        if len(set(segments)) != len(segments):
            raise DimensionError("duplicate segment names")
        self._segments: dict[str, Tensor] = dict(segments)

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
        """Inverse of flatten(); writes values in place, shapes unchanged."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.total_dim,):
            raise DimensionError(f"set_flat: need {self.total_dim} values, got {vec.shape}")
        offset = 0
        for t in self._segments.values():
            n = t.size
            t.values = vec[offset:offset + n].reshape(t.shape).copy()
            offset += n

    def grad_flat(self) -> np.ndarray:
        """Gradient buffer in flatten() order; missing grads read as zero."""
        parts = []
        for t in self._segments.values():
            parts.append(t.grad.ravel() if t.grad is not None else np.zeros(t.size))
        return np.concatenate(parts) if parts else np.zeros(0)

    def zero_grad(self) -> None:
        for t in self._segments.values():
            t.zero_grad()

    def copy(self) -> "ParamVector":
        return ParamVector({k: t.copy() for k, t in self._segments.items()})

    def set_requires_grad(self, flag: bool) -> None:
        for t in self._segments.values():
            t.requires_grad = flag

    def same_layout(self, other: "ParamVector") -> bool:
        return self.shapes() == other.shapes()
