"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: config -> 1, data -> 2,
numeric/divergence -> 3, checkpoint/file -> 4, gradient helper -> 5.
"""


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
        self.step, self.quantity, self.value = step, quantity, value
        message = f"chain diverged at step {step}"
        if quantity is not None:
            message += f": {quantity}"
            if value is not None:
                message += f" = {value:.6g}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


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
    """The gradient helper process failed or died.

    detail says how; step is the pretrain step whose gradient it was
    computing, once the caller that knows it has filled it in."""

    def __init__(self, detail: str, step: int | None = None):
        self.detail, self.step = detail, step
        super().__init__(detail if step is None else f"{detail} at step {step}")
