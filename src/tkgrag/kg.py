"""Quadruple dataset loading and the immutable, time-indexed event graph."""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .files import INT64, Positive, atomic_directory, check_fields, create_text, text_lines

INVERSE_PREFIX = "inv_"
SPLIT_FILES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
ENTITY_MAP_FILE = "entity2id.txt"
RELATION_MAP_FILE = "relation2id.txt"
GROUND_TRUTH_FILE = "ground_truth.json"  # the sidecar of synthetic datasets
# what `save_dataset` and `synth` may replace: a directory holding anything
# else is refused
DATASET_FILES = frozenset(
    [*SPLIT_FILES.values(), ENTITY_MAP_FILE, RELATION_MAP_FILE, GROUND_TRUTH_FILE]
)


class DatasetFormatError(ValueError):
    """A dataset file violates the expected on-disk layout."""


class Quadruple(NamedTuple):
    """One timestamped event edge. `t` is in normalized time steps."""

    subject: int
    relation: int
    object: int
    t: int


class TemporalKG:
    """Immutable store of quadruples, looked up through sorted key tables.

    Edges are deduplicated and kept as numpy columns `sub`, `rel`, `obj`, `ts`
    in canonical order, sorted by (t, subject, relation, object). Every
    lookup is a `np.searchsorted` into a key table built on first use by
    `_key_table`: the stable argsort of packed id keys and the keys in that
    order, so the positions of a run of equal ids ascend in t. There are
    four: (subject, relation, t) for `key_search` and `positions_at`;
    (subject, object, t) for `returning_positions` and `pair_ids`; relation
    runs for `relation_positions`; and the latest t of each (relation,
    subject, object) for `last_time_of`, which takes ids or equal-length id
    arrays.
    A graph that is only retrieved from or filtered against builds only the
    first. Instances never mutate after construction (beyond those lazy
    builds) and are safe to share across threads.
    """

    def __init__(
        self,
        entities: Sequence[str],
        relations: Sequence[str],
        quads: Union[Iterable[tuple[int, int, int, int]], np.ndarray],
        num_base_relations: Optional[int] = None,
    ):
        """`quads` holds (subject, relation, object, t) rows: tuples, or an
        (n, 4) integer array; rows of another width raise ValueError."""
        self.entities = list(entities)
        self.relations = list(relations)
        # With inverse augmentation the table doubles; base relations keep ids
        # [0, num_base_relations) and inverses occupy ids >= num_base_relations.
        self.num_base_relations = (
            len(relations) if num_base_relations is None else num_base_relations
        )

        if not isinstance(quads, np.ndarray):
            quads = list(quads)
        arr = np.asarray(quads, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 4)
        elif arr.ndim != 2 or arr.shape[1] != 4:
            raise ValueError(f"quads: expected (subject, relation, object, t) rows, "
                             f"got an array of shape {arr.shape}")
        arr = arr[np.lexsort((arr[:, 2], arr[:, 1], arr[:, 0], arr[:, 3]))]
        fresh = np.ones(len(arr), dtype=bool)
        fresh[1:] = (arr[1:] != arr[:-1]).any(axis=1)
        arr = arr[fresh]
        self.sub, self.rel, self.obj, self.ts = (np.ascontiguousarray(col) for col in arr.T)
        for field, ids, size in (("subject", self.sub, len(self.entities)),
                                 ("relation", self.rel, len(self.relations)),
                                 ("object", self.obj, len(self.entities))):
            check_ids(field, ids, size)
        if len(arr) and self.ts[0] < 0:
            raise ValueError(f"t: negative time step {self.ts[0]}")

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.sub)

    @property
    def t_max(self) -> int:
        return int(self.ts[-1]) if len(self.ts) else 0

    @property
    def has_inverses(self) -> bool:
        return len(self.relations) == 2 * self.num_base_relations and self.num_base_relations > 0

    def base_quads(self) -> np.ndarray:
        """Original-direction edges (relation id < num_base_relations) as the
        (subject, relation, object, t) rows of one (n, 4) int64 array, in
        canonical order. Inverse edges, which augmentation gives ids from
        num_base_relations up, are left out."""
        base = self.rel < self.num_base_relations
        return np.column_stack((self.sub[base], self.rel[base], self.obj[base], self.ts[base]))

    def inverse_of(self, relation_id: int) -> Optional[int]:
        """Id of the opposite-direction relation, or None without augmentation."""
        if not self.has_inverses:
            return None
        if relation_id < self.num_base_relations:
            return relation_id + self.num_base_relations
        return relation_id - self.num_base_relations

    @cached_property
    def display_names(self) -> tuple[list[str], list[str]]:
        """Entity and relation names with spaces replaced by underscores, as
        prompts show them, indexed by id."""
        return tuple(
            [name.replace(" ", "_") for name in names] for names in (self.entities, self.relations)
        )

    @cached_property
    def normalized_entity_ids(self) -> dict[str, int]:
        """Entity lookup keyed by name with spaces collapsed to underscores."""
        return {name: eid for eid, name in enumerate(self.display_names[0])}

    # -- lookups ------------------------------------------------------------

    def key_search(self, subject: int, relations, bounds) -> tuple[np.ndarray, np.ndarray]:
        """Where each (subject, relation, bound) key falls in the sorted
        (subject, relation, t) key table, for every relation of `relations`
        and every time bound of `bounds`.

        Returns (order, found), `found` shaped (relations, bounds): the edges
        (subject, relations[j], *, t) with bounds[k] <= t < bounds[l] are at
        positions order[found[j, k]:found[j, l]], ascending in t. All the keys
        take one `np.searchsorted`. Bounds are clipped to [0, t_max + 1],
        and ids outside the vocabulary give empty ranges.
        """
        order, keys, (n_ent, n_rel, n_t) = self._sr_keys
        relations = np.asarray(relations, dtype=np.int64)
        bounds = np.minimum(np.maximum(bounds, 0), n_t - 1)
        if not 0 <= subject < n_ent:
            return order, np.zeros((len(relations), len(bounds)), dtype=np.int64)
        # (subject, relation, bound) keys, packed as _pack packed the table; a
        # relation id outside the vocabulary lands in another bucket, so its
        # ranges are emptied (as unsigned, a negative id is out of range too)
        wanted = ((subject * n_rel + relations) * n_t)[:, None] + bounds
        found = keys.searchsorted(wanted)
        found *= (relations.view(np.uint64) < n_rel)[:, None]
        return order, found

    def positions_at(self, subject: int, relation: int, t: int) -> np.ndarray:
        """Positions of edges (subject, relation, *, t): one key's range in the
        (subject, relation, t) key table, empty for ids outside the
        vocabulary and for t outside [0, t_max]."""
        order, keys, (n_ent, n_rel, n_t) = self._sr_keys
        if not (0 <= subject < n_ent and 0 <= relation < n_rel and 0 <= t < n_t):
            return order[:0]
        key = (subject * n_rel + relation) * n_t + t
        return order[keys.searchsorted(key):keys.searchsorted(key, "right")]

    def relation_positions(self, relation: int) -> np.ndarray:
        """Positions of edges with `relation`, ascending in t; empty for an id
        outside the vocabulary."""
        order, keys = self._relation_runs
        return order[keys.searchsorted(relation):keys.searchsorted(relation + 1)]

    def returning_positions(self, subject: int, obj: int, t_before: int) -> np.ndarray:
        """Positions of edges (subject, *, obj, t) with t strictly before t_before."""
        order, keys, n_t, _pair_ids = self._index_so
        n_ent = len(self.entities)
        if not (0 <= subject < n_ent and 0 <= obj < n_ent):
            return order[:0]
        start = (subject * n_ent + obj) * n_t
        end = start + min(max(t_before, 0), n_t - 1)
        return order[keys.searchsorted(start):keys.searchsorted(end)]

    def pair_ids(self) -> np.ndarray:
        """Per edge, the id of its (subject, object) pair. Ids number the
        pairs from 0 in (subject, object) order, so each is below the edge
        count."""
        return self._index_so[-1]

    def last_time_of(self, subject, relation, obj):
        """Latest time step at which (subject, relation, obj) occurs, or -1.

        Takes ids, returning an int, or equal-length id arrays (a scalar
        broadcasts), returning an int64 array.
        """
        keys, last = self._last_time_sro
        sizes = (len(self.relations), len(self.entities), len(self.entities))
        columns = np.broadcast_arrays(
            *(np.asarray(c, dtype=np.int64) for c in (relation, subject, obj))
        )
        known = np.logical_and.reduce([(c >= 0) & (c < n) for c, n in zip(columns, sizes)])
        wanted = np.where(known, _pack(columns, sizes), -1)
        at = np.searchsorted(keys, wanted)
        found = np.where(keys[at] == wanted, last[at], -1)
        return int(found) if found.ndim == 0 else found

    # -- key tables, built on first use -------------------------------------

    @cached_property
    def _sr_keys(self) -> tuple[np.ndarray, np.ndarray, tuple[int, int, int]]:
        """The (subject, relation, t) key table and its id ranges; t ids run
        to t_max + 1 so that every clipped bound packs."""
        sizes = (len(self.entities), len(self.relations), self.t_max + 2)
        return (*_key_table((self.sub, self.rel, self.ts), sizes), sizes)

    @cached_property
    def _index_so(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """The (subject, object, t) key table, its t id range and the pair id
        column."""
        n_ent, n_t = len(self.entities), self.t_max + 2
        order, keys = _key_table((self.sub, self.obj, self.ts), (n_ent, n_ent, n_t))
        pairs = keys // n_t
        pair_ids = np.empty(len(order), dtype=np.int64)
        pair_ids[order] = np.cumsum(np.diff(pairs, prepend=-1) != 0) - 1
        return order, keys, n_t, pair_ids

    @cached_property
    def _relation_runs(self) -> tuple[np.ndarray, np.ndarray]:
        return _key_table((self.rel,), (len(self.relations),))

    @cached_property
    def _last_time_sro(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted packed (relation, subject, object) keys, each once, and
        their latest t, closed by a sentinel that keeps every searchsorted
        index inside the table."""
        sizes = (len(self.relations), len(self.entities), len(self.entities))
        order, keys = _key_table((self.rel, self.sub, self.obj), sizes)
        # positions ascend in t within a run, so its last one is its latest
        run_end = np.ones(len(keys), dtype=bool)
        run_end[:-1] = keys[1:] != keys[:-1]
        return (
            np.append(keys[run_end], np.iinfo(np.int64).max),
            np.append(self.ts[order[run_end]], -1),
        )


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset directory and how to interpret it."""

    dir: str = ""
    time_gap: Positive = 1
    inverse: bool = True

    __post_init__ = check_fields


class Dataset:
    """Train/valid/test TemporalKG views sharing one vocabulary."""

    def __init__(
        self,
        entities: list[str],
        relations: list[str],
        num_base_relations: int,
        splits: dict[str, TemporalKG],
        time_gap: int,
        time_origin: int,
        duplicates_dropped: int = 0,
    ):
        self.entities = entities
        self.relations = relations
        self.num_base_relations = num_base_relations
        self.train = splits["train"]
        self.valid = splits["valid"]
        self.test = splits["test"]
        self.time_gap = time_gap
        self.time_origin = time_origin
        self.duplicates_dropped = duplicates_dropped

    def split(self, name: str) -> TemporalKG:
        if name not in SPLIT_FILES:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def union_kg(self, splits: Sequence[str] = ("train", "valid", "test")) -> TemporalKG:
        """One merged view over the given splits (deduplicated). When only one
        of them holds edges, that is its own graph, shared (graphs are
        immutable)."""
        parts = [kg for kg in map(self.split, splits) if len(kg)]
        if len(parts) == 1:
            return parts[0]
        quads = np.concatenate(
            [np.column_stack((kg.sub, kg.rel, kg.obj, kg.ts)) for kg in parts]
            or [np.empty((0, 4), dtype=np.int64)]
        )
        return TemporalKG(self.entities, self.relations, quads, self.num_base_relations)


def check_ids(field: str, ids, size: int) -> None:
    """ValueError "<field>: id <id> is outside the vocabulary of <size>" for
    the first of `ids` not in [0, size). `ids` is an id, None for no id, or
    a sequence or array of ids."""
    if ids is None or type(ids) is int and 0 <= ids < size:
        return
    ids = np.asarray(ids)
    if ids.size and not 0 <= ids.min() <= ids.max() < size:
        outside = ids[(ids < 0) | (ids >= size)]
        raise ValueError(f"{field}: id {outside.flat[0]} is outside the vocabulary of {size}")


def _pack(columns: Sequence, sizes: Sequence[int]) -> np.ndarray:
    """One int64 key per row of id columns, column i holding ids in
    [0, sizes[i]); keys order like the rows' tuples."""
    if math.prod(sizes) > 2**63:
        raise ValueError(f"id ranges {tuple(sizes)} are too large to pack into int64 keys")
    key = np.asarray(columns[0], dtype=np.int64)
    for column, size in zip(columns[1:], sizes[1:]):
        key = key * size + column
    return key


def _key_table(columns: Sequence, sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The stable argsort of the packed keys of id columns (see `_pack`) and
    the keys in that order: the positions of one key ascend."""
    key = _pack(columns, sizes)
    order = np.argsort(key, kind="stable")
    return order, key[order]


def _tab_lines(path: str, width: int) -> Iterator[tuple[int, list[str]]]:
    """(line number, columns) of each non-blank line of the tab-separated
    file at `path`, read by `files.text_lines`, counting lines from 1. A line
    of another number of columns than `width`, or one that is not UTF-8,
    raises DatasetFormatError "<path>:<line>: ..."."""
    for number, line in text_lines(path, DatasetFormatError):
        if line:
            cols = line.split("\t")
            if len(cols) != width:
                raise DatasetFormatError(f"{path}:{number}: expected {width} tab-separated "
                                         f"columns, got {len(cols)}")
            yield number, cols


def _read_id_map(path: str) -> list[str]:
    """The names of a `name<TAB>id` file, indexed by id. Names must be
    distinct and ids dense 0..n-1, n the number of entries; the first line
    that breaks this is named."""
    entries = list(_tab_lines(path, 2))
    names: list[Optional[str]] = [None] * len(entries)
    seen: set[str] = set()
    for number, (name, raw_id) in entries:
        try:
            idx = int(raw_id)
        except ValueError:
            raise DatasetFormatError(f"{path}:{number}: non-integer id {raw_id!r}") from None
        if name in seen:
            raise DatasetFormatError(f"{path}:{number}: duplicate name {name!r}")
        if not 0 <= idx < len(names) or names[idx] is not None:
            problem = "is out of range" if not 0 <= idx < len(names) else "repeats an earlier id"
            raise DatasetFormatError(f"{path}:{number}: id {idx} {problem}; "
                                     f"ids must be dense 0..{len(names) - 1}")
        seen.add(name)
        names[idx] = name
    return names


def _id(token: str, ids: dict[str, int], fixed: bool, kind: str, where: str) -> int:
    """The id of a split-file column that `ids` may lack: a new name gets
    the next id, unless the ids are `fixed` by an id map, whose ids the
    column must then give as integers."""
    if token in ids or not fixed:
        return ids.setdefault(token, len(ids))
    try:
        value = int(token)
    except ValueError:
        raise DatasetFormatError(f"{where}: expected integer {kind} id, got {token!r}") from None
    if not 0 <= value < len(ids):
        raise DatasetFormatError(f"{where}: unknown {kind} id {value}")
    return value


def _read_split(path: str, entity_ids: dict[str, int], relation_ids: dict[str, int],
                fixed: bool, time_gap: int) -> list[tuple[int, int, int, int]]:
    """(subject, relation, object, raw timestamp) rows of a split file in
    file order, each checked on its line: ids are looked up by their
    column's text (see `_id`), and a timestamp must fit in 64 bits and be
    divisible by `time_gap`."""
    rows = []
    for number, (s, r, o, raw_t) in _tab_lines(path, 4):
        try:
            row = (entity_ids[s], relation_ids[r], entity_ids[o], int(raw_t))
        except (KeyError, ValueError):
            where = f"{path}:{number}"
            ids = (_id(s, entity_ids, fixed, "entity", where),
                   _id(r, relation_ids, fixed, "relation", where),
                   _id(o, entity_ids, fixed, "entity", where))
            try:
                row = (*ids, int(raw_t))
            except ValueError:
                raise DatasetFormatError(f"{where}: non-integer timestamp {raw_t!r}") from None
        t = row[3]
        if t % time_gap or t not in INT64:
            problem = ("does not fit in 64 bits" if t not in INT64
                       else f"is not divisible by time gap {time_gap}")
            raise DatasetFormatError(f"{path}:{number}: timestamp {t} {problem}")
        rows.append(row)
    return rows


def load_dataset(directory: str, spec: DatasetSpec = DatasetSpec()) -> Dataset:
    """Load train/valid/test quadruple files into indexed views sharing one
    vocabulary.

    Raw timestamps must be exactly divisible by spec.time_gap; they are
    origin-shifted to the earliest timestamp across all splits and divided
    by the gap, so time steps start at 0. With spec.inverse, every edge
    (s, r, o, t) gains a mirrored (o, inv_r, s, t) whose relation id is
    r + num_base_relations. The first fault in file order raises
    DatasetFormatError "<path>[:<line>]: ...".
    """
    map_paths = [os.path.join(directory, name) for name in (ENTITY_MAP_FILE, RELATION_MAP_FILE)]
    fixed, has_relation_map = map(os.path.exists, map_paths)
    if fixed != has_relation_map:
        found, missing = map_paths if fixed else map_paths[::-1]
        raise DatasetFormatError(f"{missing}: missing; {os.path.basename(found)} is there, and "
                                 "a dataset has both id maps or neither")
    entities, relations = map(_read_id_map, map_paths) if fixed else ([], [])
    entity_ids, relation_ids = ({str(i): i for i in range(len(names))}
                                for names in (entities, relations))

    arrays: dict[str, np.ndarray] = {}  # raw (subject, relation, object, timestamp) rows
    for split, filename in SPLIT_FILES.items():
        path = os.path.join(directory, filename)
        if not os.path.exists(path):
            raise DatasetFormatError(f"missing split file {path}")
        rows = _read_split(path, entity_ids, relation_ids, fixed, spec.time_gap)
        if split == "train" and not rows:
            raise DatasetFormatError(f"{path}: empty train split")
        arrays[split] = np.array(rows, dtype=np.int64).reshape(-1, 4)
    if not fixed:
        entities, relations = list(entity_ids), list(relation_ids)
    origin = int(np.concatenate([arr[:, 3] for arr in arrays.values()]).min())

    num_base = len(relations)
    if spec.inverse:
        relations = relations + [INVERSE_PREFIX + name for name in relations]

    splits: dict[str, TemporalKG] = {}
    duplicates = 0
    for split, quads in arrays.items():
        quads[:, 3] = (quads[:, 3] - origin) // spec.time_gap
        if spec.inverse:
            quads = np.concatenate((quads, quads[:, [2, 1, 0, 3]] + (0, num_base, 0, 0)))
        splits[split] = TemporalKG(entities, relations, quads, num_base)
        duplicates += len(arrays[split]) - len(splits[split].base_quads())

    return Dataset(entities, relations, num_base, splits, spec.time_gap, origin, duplicates)


def save_dataset(dataset: Dataset, directory: str) -> None:
    """Write the canonical on-disk layout: id-form split files (original edges
    only, canonical order, raw timestamps restored) plus both id-map files.
    The directory is replaced as a whole (`files.atomic_directory`), so a
    failed save leaves the previous dataset in place; a directory holding
    anything but dataset files (`DATASET_FILES`) is refused with ValueError."""
    with atomic_directory(directory, DATASET_FILES) as staging:
        write_dataset_files(dataset, staging)


def write_dataset_files(dataset: Dataset, directory: str) -> None:
    """The files of `save_dataset`, written into the staging directory of
    `files.atomic_directory`."""
    with create_text(os.path.join(directory, ENTITY_MAP_FILE)) as fh:
        for idx, name in enumerate(dataset.entities):
            fh.write(f"{name}\t{idx}\n")
    with create_text(os.path.join(directory, RELATION_MAP_FILE)) as fh:
        for idx, name in enumerate(dataset.relations[: dataset.num_base_relations]):
            fh.write(f"{name}\t{idx}\n")
    for split, filename in SPLIT_FILES.items():
        quads = dataset.split(split).base_quads()
        quads[:, 3] = quads[:, 3] * dataset.time_gap + dataset.time_origin
        with create_text(os.path.join(directory, filename)) as fh:
            fh.writelines(f"{s}\t{r}\t{o}\t{t}\n" for s, r, o, t in quads.tolist())
