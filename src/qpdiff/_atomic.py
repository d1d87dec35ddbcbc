"""Atomic file output shared by the CSV and PPM writers."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temporary file and a rename.

    ``mkstemp`` creates the temporary file with mode 0600; it is given
    the mode a plain ``open`` would (``0o666`` less the umask) before it
    replaces ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
