"""Crash-safe file writes: a temp file in the target's directory, then
os.replace, so readers see either the previous file or the complete new
one, never a partial write."""

from __future__ import annotations

import os
from collections.abc import Sequence


def write_atomic(path, data: str | bytes | Sequence) -> None:
    """Writes data (text as open(path, "w") would, bytes, or a sequence
    of bytes-like chunks, written in order) to path.  If the write fails, the
    previous file is left as it was and the temp file is removed."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w" if isinstance(data, str) else "wb") as f:
            for chunk in [data] if isinstance(data, (str, bytes)) else data:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
