"""Crash-safe file writes: a temp file in the target's directory, then
os.replace, so readers see either the previous file or the complete new
one, never a partial write."""

from __future__ import annotations

import os


def write_atomic(path, data: str | bytes) -> None:
    """Writes data (text as open(path, "w") would, or bytes) to path.  If
    the write fails, the previous file is left as it was and the temp
    file is removed."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if isinstance(data, bytes) else "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
