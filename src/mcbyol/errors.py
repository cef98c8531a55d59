"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: config -> 1, data -> 2,
numeric/divergence -> 3, checkpoint/file -> 4, forked helper process -> 5.
Every error pickles with its message and fields, so that a forked child
can hand it to its parent (helper.Child).
"""

import functools


class McbyolError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(McbyolError):
    """Invalid or inconsistent configuration."""


class DataError(McbyolError):
    """Malformed dataset, labels, or split request."""


class ContractError(McbyolError):
    """A documented call precondition was violated."""


class DimensionError(ContractError):
    """Shapes incompatible with the requested operation."""


class NumericError(McbyolError):
    """Non-finite values or numerically invalid input."""


class DivergenceError(NumericError):
    """A sampling chain left the stable region.

    quantity and value name what was checked and the value it had, e.g.
    "loss" and nan; detail says which check tripped and in what state."""

    def __init__(self, step: int, *, quantity: str | None = None,
                 value: float | None = None, detail: str = ""):
        self.step, self.quantity, self.value, self.detail = step, quantity, value, detail
        message = f"chain diverged at step {step}"
        if quantity is not None:
            message += f": {quantity}"
            if value is not None:
                message += f" = {value:.6g}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)

    def __reduce__(self):
        return functools.partial(type(self), self.step, quantity=self.quantity,
                                 value=self.value, detail=self.detail), ()


class CheckpointError(McbyolError):
    """Checkpoint file cannot be read or written."""


class VersionError(CheckpointError):
    """Unrecognized magic bytes or unsupported format version."""


class TruncationError(CheckpointError):
    """File shorter than its declared layout."""


class ChecksumError(CheckpointError):
    """Stored CRC does not match file contents, or the header that locates
    the CRC is corrupt."""


class HelperError(McbyolError):
    """A forked helper process failed or died: pretrain's gradient helper,
    the child that fits a share of finetune's members, or the child that
    sweeps a share of eval's or ood's snapshots.

    detail says how; step is the pretrain step whose gradient the gradient
    helper was computing, once the caller that knows it has filled it in."""

    def __init__(self, detail: str, step: int | None = None):
        self.detail, self.step = detail, step
        super().__init__(detail if step is None else f"{detail} at step {step}")
