"""Artifact files that are either the old version or the whole new one."""
from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Text file handle whose contents replace `path` only when the block
    completes. It writes a temp file in the same directory and moves it into
    place with os.replace; on any failure the temp file is removed and `path`
    keeps its previous contents. The parent directory is created if
    missing."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
