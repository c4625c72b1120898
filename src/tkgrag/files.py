"""The one module that touches the disk: artifact files and directories
that are the old version or the whole new one, the eval journal, the reader
and writer of every JSON artifact, and the one codec of their rows."""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import re
import shutil
import types
import typing
from contextlib import contextmanager, suppress
from typing import IO, Callable, Collection, Iterable, Iterator, Optional, TextIO, TypeVar

T = TypeVar("T")
INT64 = range(-2**63, 2**63)  # the values of a 64-bit signed integer
_INT_KEY = re.compile(r"-?(0|[1-9][0-9]*)")


@functools.cache
def _schema(cls) -> tuple:
    """(field, JSON key, annotation as `_options`, default or MISSING) of each
    field of the dataclass `cls`; its `json_keys` maps a field to a JSON key
    of another name."""
    hints, keys = typing.get_type_hints(cls), getattr(cls, "json_keys", {})
    return tuple((f.name, keys.get(f.name, f.name), _options(hints[f.name]),
                  f.default if f.default_factory is dataclasses.MISSING else f.default_factory())
                 for f in dataclasses.fields(cls))


@functools.cache
def _options(kind) -> tuple:
    """(type, origin, arguments) of each type a value of annotation `kind`
    may have: the members of a union, else `kind` itself."""
    union = typing.get_origin(kind) in (typing.Union, types.UnionType)
    return tuple((option, typing.get_origin(option), typing.get_args(option))
                 for option in (typing.get_args(kind) if union else (kind,)))


def typed(kind, value, field: str):
    """The JSON value `value` as a value of annotation `kind`, or ValueError
    "<field>: expected <kind>, got <value!r>". An int is a JSON integer of
    64 bits and not a bool, a float also takes an int, an Optional also
    takes None, a tuple[X, ...] is a list, a dict[int, X] an object with
    integer-string keys, and a dataclass an object (see `fields_of`)."""
    return _typed(_options(kind), value, field)


def _typed(options: tuple, value, field: str):
    for option, origin, args in options:
        if option is int:
            if type(value) is int and value in INT64:
                return value
        elif option is float:
            if type(value) is float or type(value) is int:
                return value
        elif type(value) is option:  # str, bool, None
            return value
        elif origin is tuple:
            if type(value) is list:
                items = _options(args[0])
                return tuple(_typed(items, item, f"{field}[{i}]") for i, item in enumerate(value))
        elif origin is dict:
            if type(value) is dict and all(map(_INT_KEY.fullmatch, value)):
                items = _options(args[1])
                return {int(key): _typed(items, item, f"{field}.{key}")
                        for key, item in value.items()}
        elif dataclasses.is_dataclass(option):
            return fields_of(option, value, field)
    wanted = " or ".join("None" if option is type(None) else str(option) if origin
                         else option.__name__ for option, origin, _args in options)
    raise ValueError(f"{field}: expected {wanted}, got {value!r}")


def fields_of(cls: type[T], payload, where: str = "", closed: bool = False) -> T:
    """The dataclass `cls` from the JSON object `payload`, each field read
    by `typed` under its JSON key and named `<where>.<key>`. A missing field
    without a default raises KeyError(key). Other keys are ignored, unless
    `closed`: then the constructor rejects them. A TypeError or ValueError
    from the constructor becomes ValueError "<where>: ..."."""
    if type(payload) is not dict:
        raise ValueError(f"{where}: expected {cls.__name__}, got {payload!r}")
    prefix, schema, values = f"{where}." if where else "", _schema(cls), {}
    for name, key, options, default in schema:
        if key in payload:
            value = payload[key]
            # a value of the first type allowed, the common case, needs no `_typed`
            if type(value) is not options[0][0] or type(value) is int and value not in INT64:
                value = _typed(options, value, prefix + key)
            values[name] = value
        elif default is dataclasses.MISSING:
            raise KeyError(key)
    if closed:
        keys = {key for _name, key, _options, _default in schema}
        values.update((key, value) for key, value in payload.items() if key not in keys)
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}" if where else str(exc)) from None


def json_fields(obj) -> dict:
    """The dataclass `obj` as the JSON object `fields_of` reads back, for
    `json.dumps`: each field under its JSON key, a dataclass as an object
    (`json.dumps` writes a tuple as a list and an int key as a string). A
    field that is None with the default None is left out."""
    row = {}
    for name, key, _options, default in _schema(type(obj)):
        value = getattr(obj, name)
        if value is not None or default is not None:
            row[key] = json_fields(value) if hasattr(value, "__dataclass_fields__") else value
    return row


def parse_json(text: str):
    """The JSON document `text`; an object that repeats a key raises
    ValueError naming the key, where `json.loads` would keep its last
    value."""
    return json.loads(text, object_pairs_hook=_distinct_keys)


def _distinct_keys(pairs: list) -> dict:
    payload = dict(pairs)
    if len(payload) < len(pairs):
        seen = set()
        repeated = next(key for key, _value in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {repeated!r}")
    return payload


@contextmanager
def staged(path: str) -> Iterator[str]:
    """A temp path beside `path` for the block to write a file to, moved to
    `path` with os.replace only when the block completes; on any failure it
    is removed and `path` keeps its previous contents. A command writes its
    file here, then its manifest, so a run stopped before the move leaves a
    manifest that describes other bytes. `path` is claimed (`claim`) before
    the block, and its parent directory made if missing."""
    claim(path)
    make_directory(os.path.dirname(path) or ".")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextmanager
def atomic_write(path: str) -> Iterator[TextIO]:
    """Text file handle on the path `staged` hands out, so its contents
    replace `path` only when the block completes."""
    with staged(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        yield fh


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


def jsonl_rows(lines: Iterable[tuple], path: str, parse: Callable[[dict], T]) -> Iterator[T]:
    """`parse` of each JSON object in `lines`, (line number, line) pairs
    whose lines are str or bytes, skipping blank lines. A line that is not
    JSON, a value that is not an object, and a KeyError, TypeError or
    ValueError from `parse` raise ValueError "<path>:<line>: ..."."""
    for number, line in lines:
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


@contextmanager
def journal(path: str, parse: Callable[[dict], T]) -> Iterator[tuple[list[T], Callable]]:
    """The rows of the JSON-lines journal at `path` (`jsonl_rows` with
    `parse`), made with its directory if missing, and an `append(rows)`
    writing a line per row, flushed once per call. A row is kept once its
    newline is written: a final line without one, which a killed append
    leaves, is cut off once every complete line has parsed."""
    make_directory(os.path.dirname(path) or ".")
    rows = []
    if os.path.exists(path):
        with open_input(path) as fh:
            data = fh.read()
        complete = data[: data.rfind(b"\n") + 1]
        rows = list(jsonl_rows(enumerate(complete.splitlines(), 1), path, parse))
        if len(complete) < len(data):
            with open(path, "rb+") as fh:
                fh.truncate(len(complete))
    with open(path, "a", encoding="utf-8") as fh:
        def append(new: Iterable[dict]) -> None:
            fh.write("".join(json.dumps(row) + "\n" for row in new))
            fh.flush()

        yield rows, append


def read_jsonl(path: str, parse: Callable[[dict], T]) -> Iterator[T]:
    """The rows of the JSON-lines file at `path`, read by `text_lines` and
    parsed one at a time as `jsonl_rows` does."""
    return jsonl_rows(text_lines(path), path, parse)


def text_lines(path: str, error: type[ValueError] = ValueError) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line of the UTF-8 text file at `path`,
    counting from 1, each line without its newline; CRLF and CR end a line
    as LF does. A line holding bytes that are not UTF-8 raises `error`
    "<path>:<line>: ..." in its turn."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, 1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise error(f"{path}:{number}: {exc}") from None
            yield number, line.rstrip("\n")


def open_input(path: str, mode: str = "rb", encoding: Optional[str] = None) -> IO:
    """The input file at `path` opened in `mode`; ValueError "missing input
    file <path>" when there is none, as for a dataset's split file, and
    "<path>: a directory, not a file" for a directory. Other faults stay
    OSErrors."""
    try:
        return open(path, mode, encoding=encoding)
    except FileNotFoundError:
        raise ValueError(f"missing input file {path}") from None
    except IsADirectoryError:
        raise ValueError(f"{path}: a directory, not a file") from None


def _nearest_existing(path: str) -> str:
    """`path`, or its nearest ancestor that exists ("" for none)."""
    while path and not os.path.exists(path):
        path = os.path.dirname(path)
    return path


def claim(*paths: str) -> None:
    """Check, making nothing, that a file can be written at each of `paths`,
    so a command refuses a path of the wrong kind before any work:
    ValueError "<path>: a directory, not a file", or "<dir>: a file, not a
    directory" naming the nearest existing ancestor when it is a file."""
    for path in paths:
        if os.path.isdir(path):
            raise ValueError(f"{path}: a directory, not a file")
        parent = _nearest_existing(os.path.dirname(path))
        if parent and not os.path.isdir(parent):
            raise ValueError(f"{parent}: a file, not a directory")


def make_directory(path: str) -> None:
    """The directory `path` and its missing parents, made as needed;
    ValueError "<path>: a file, not a directory" naming `path`, or the
    parent of it, that is a file."""
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ValueError(f"{_nearest_existing(path)}: a file, not a directory") from None


def create_text(path: str) -> TextIO:
    """A new text file at `path`, for filling the directory that
    `atomic_directory` hands out (which makes the whole set atomic)."""
    return open(path, "w", encoding="utf-8")


@contextmanager
def atomic_directory(path: str, replaceable: Collection[str]) -> Iterator[str]:
    """Path of an empty directory to fill in the block, which replaces the
    directory `path` only when the block completes.

    `path` may be absent, empty, or hold only files named in `replaceable`;
    anything else, a file at `path` included, raises ValueError before any
    work, and `path` is left as it is. A symlink is resolved, so its target
    is replaced and the link stays. The block fills a sibling temp
    directory. Then an existing `path` is moved aside, the temp directory
    renamed into place and the old one removed last. On any failure the
    temp directory is removed and `path` keeps its previous contents, or
    stays absent.
    """
    path = os.path.realpath(path)
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise ValueError(f"{path}: a file, not a directory")
        foreign = sorted(
            entry.name for entry in os.scandir(path)
            if entry.name not in replaceable or not entry.is_file(follow_symlinks=False)
        )
        if foreign:
            raise ValueError(
                f"{path} may hold only {', '.join(sorted(replaceable))}, but holds "
                f"{', '.join(foreign[:5])}{', ...' if len(foreign) > 5 else ''}; "
                "not replacing it"
            )
    tmp, old = f"{path}.{os.getpid()}.tmp", f"{path}.{os.getpid()}.old"
    make_directory(os.path.dirname(path))
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
