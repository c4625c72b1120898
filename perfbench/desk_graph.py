"""The desk-scale event graph every workload runs on, and its derived inputs.

`generate_quads` is a copy of the `_performance_graph` generator of
acceptance test 09, with the seed and the sizes as arguments. At the default
seed and the `desk` size it reproduces that graph exactly: 37,427 base edges
(74,854 with inverses), 230 relation ids, 7,128 entities and 365 time steps.
Keeping a copy here means the workload does not change when the generator
moves inside the package.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 75000
QUERY_SEED = 1  # test 09 draws its 7,371 queries with this seed


@dataclass(frozen=True)
class Size:
    n_entities: int
    n_base: int
    n_edges: int
    t_span: int
    n_queries: int
    export_k: int


SIZES = {
    "desk": Size(n_entities=7128, n_base=115, n_edges=37427, t_span=365,
                 n_queries=7371, export_k=1024),
    # For the smoke test only: seconds per workload, no pinned digests.
    "tiny": Size(n_entities=400, n_base=12, n_edges=2500, t_span=60,
                 n_queries=300, export_k=64),
}


def generate_quads(seed: int, size: Size) -> list[tuple[int, int, int, int]]:
    """Sorted, distinct base (subject, relation, object, t) edges with the
    skewed interaction profile of real event data."""
    rng = np.random.default_rng(seed)
    quads: set[tuple[int, int, int, int]] = set()
    while len(quads) < size.n_edges:
        block = size.n_edges - len(quads) + 1000
        subs = (rng.zipf(1.35, block) - 1) % size.n_entities
        objs = (rng.zipf(1.35, block) - 1) % size.n_entities
        rels = (rng.zipf(1.6, block) - 1) % size.n_base
        ts = rng.integers(0, size.t_span, block)
        for s, r, o, t in zip(subs, rels, objs, ts):
            if s != o:
                quads.add((int(s), int(r), int(o), int(t)))
                if len(quads) == size.n_edges:
                    break
    return sorted(quads)


def quads_digest(quads) -> str:
    text = "".join(f"{s}\t{r}\t{o}\t{t}\n" for s, r, o, t in quads)
    return hashlib.sha256(text.encode()).hexdigest()


def vocabulary(size: Size) -> tuple[list[str], list[str]]:
    """Entity names and relation names, inverse relations appended."""
    entities = [f"E{i}" for i in range(size.n_entities)]
    base = [f"R{i}" for i in range(size.n_base)]
    return entities, base + [f"inv_{name}" for name in base]


def with_inverses(quads, n_base: int) -> list[tuple[int, int, int, int]]:
    return list(quads) + [(o, r + n_base, s, t) for s, r, o, t in quads]


def query_positions(n_edges: int, size: Size) -> np.ndarray:
    """Edge positions (in the graph's canonical order) that become queries."""
    rng = np.random.default_rng(QUERY_SEED)
    return rng.choice(n_edges, size=size.n_queries, replace=False)


def split_of(t: int, size: Size) -> str:
    """Time split of the dataset directory: 80% / 10% / 10% of the steps."""
    if t < size.t_span * 8 // 10:
        return "train"
    if t < size.t_span * 9 // 10:
        return "valid"
    return "test"


def write_dataset_dir(directory: str, quads, size: Size) -> None:
    """Id maps plus train/valid/test files in canonical (t, s, r, o) order."""
    os.makedirs(directory, exist_ok=True)
    entities, relations = vocabulary(size)
    with open(os.path.join(directory, "entity2id.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\t{i}\n" for i, name in enumerate(entities))
    with open(os.path.join(directory, "relation2id.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{name}\t{i}\n" for i, name in enumerate(relations[: size.n_base]))
    lines: dict[str, list[str]] = {"train": [], "valid": [], "test": []}
    for s, r, o, t in sorted(quads, key=lambda q: (q[3], q[0], q[1], q[2])):
        lines[split_of(t, size)].append(f"{s}\t{r}\t{o}\t{t}\n")
    for split, rows in lines.items():
        with open(os.path.join(directory, f"{split}.txt"), "w", encoding="utf-8") as fh:
            fh.writelines(rows)
