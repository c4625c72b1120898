"""Artifact files and directories that are either the old version or the
whole new one."""
from __future__ import annotations

import os
import shutil
from contextlib import contextmanager, suppress
from typing import Collection, Iterator, TextIO


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


def create_text(path: str) -> TextIO:
    """A new text file at `path`, for filling the directory that
    `atomic_directory` hands out (which makes the whole set atomic)."""
    return open(path, "w", encoding="utf-8")


@contextmanager
def atomic_directory(path: str, replaceable: Collection[str]) -> Iterator[str]:
    """Path of an empty directory to fill in the block, which replaces the
    directory `path` only when the block completes.

    `path` may be absent, empty, or hold only files named in `replaceable`;
    anything else raises ValueError before any work, and the directory is
    left as it is. A symlink is resolved, so its target is replaced and the
    link stays. The block fills a sibling temp directory. Then an existing
    `path` is moved aside, the temp directory renamed into place and the old
    one removed last. On any failure the temp directory is removed and
    `path` keeps its previous contents, or stays absent.
    """
    path = os.path.realpath(path)
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise NotADirectoryError(f"not a directory: {path}")
        foreign = sorted(
            entry.name for entry in os.scandir(path)
            if entry.name not in replaceable or not entry.is_file(follow_symlinks=False)
        )
        if foreign:
            raise ValueError(
                f"{path} holds files that are not part of a dataset "
                f"({', '.join(foreign[:5])}{', ...' if len(foreign) > 5 else ''}); "
                "not replacing it"
            )
    tmp, old = f"{path}.{os.getpid()}.tmp", f"{path}.{os.getpid()}.old"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    os.mkdir(tmp)
    moved = False
    try:
        yield tmp
        if os.path.exists(path):
            try:
                os.rename(path, old)
            except OSError as exc:
                raise OSError(
                    exc.errno, f"cannot move {path} aside to replace it: {exc.strerror}"
                ) from exc
            moved = True
        os.rename(tmp, path)
    except BaseException:
        if moved and not os.path.exists(path):
            os.rename(old, path)
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if moved:
        shutil.rmtree(old)
