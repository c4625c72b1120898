"""Artifact files and directories that are either the old version or the
whole new one, and the one reader and writer of every JSON artifact."""
from __future__ import annotations

import json
import os
import shutil
from contextlib import contextmanager, suppress
from typing import Callable, Collection, Iterable, Iterator, TextIO, TypeVar

T = TypeVar("T")


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


def write_json(path: str, payload) -> None:
    """`payload` as indented JSON plus a newline, written atomically."""
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_jsonl(path: str, rows: Iterable[dict]) -> int:
    """One JSON object per row and line, written atomically as the rows
    arrive; returns the number of rows."""
    count = 0
    with atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
            count += 1
    return count


def jsonl_rows(lines: Iterable, path: str, parse: Callable[[dict], T]) -> Iterator[T]:
    """`parse` of each JSON object in `lines` (str or bytes), skipping blank
    lines. A line that is not JSON, a value that is not an object, and a
    KeyError, TypeError or ValueError from `parse` raise ValueError
    "<path>:<line>: ...", counting lines from 1, blank ones included."""
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise TypeError("expected a JSON object")
            item = parse(payload)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{number}: not JSON ({exc.msg}, column {exc.colno})") from None
        except KeyError as exc:
            raise ValueError(f"{path}:{number}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
        yield item


def read_jsonl(path: str, parse: Callable[[dict], T]) -> Iterator[T]:
    """The rows of the JSON-lines file at `path`, parsed one at a time as
    `jsonl_rows` does."""
    with open(path, encoding="utf-8") as fh:
        yield from jsonl_rows(fh, path, parse)


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
