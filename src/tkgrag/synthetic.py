"""Synthetic event-graph generator with one planted temporal implication.

The generator plants "precursor events are followed by an outcome event on
the same entity pair" with a configurable probability, while keeping every
other relation on a disjoint entity block so no unplanned correlation with
the outcome relation can arise. Precursor pairs are used in one direction
only and each pair hosts at most one outcome event, so neither the reversed
nor the self-implication holds in the generated data.

Layout in time: each subject's pairs take disjoint slots inside
[0, body_horizon), where all precursor and noise events live; outcomes fire a
random delay after their slot, and only outcomes can land beyond the horizon.
Splitting at the horizon therefore yields an outcome-only test region whose
queries are answerable exactly by reaching back to the right episode.
"""
from __future__ import annotations

import json
import os
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .files import atomic_directory, create_text, typed
from .kg import DATASET_FILES, GROUND_TRUTH_FILE, Dataset, TemporalKG, write_dataset_files

BODY_RELATION = 0  # "precursor"
HEAD_RELATION = 1  # "outcome"
LAST_SLOT_GAP = 6  # extra precursors in a subject's most recent episode


@dataclass(frozen=True)
class SyntheticSpec:
    n_entities: int = 20
    n_noise_relations: int = 3
    n_body_events: int = 2000
    n_noise_events: int = 600
    follow_prob: float = 0.8
    t_span: int = 560
    planted_entities: int = 17  # entities hosting the planted pattern
    seed: int = 7

    def __post_init__(self):
        hints = typing.get_type_hints(SyntheticSpec)
        for field in fields(self):
            value = typed(hints[field.name], getattr(self, field.name), field.name)
            if hints[field.name] is int and value < 0:
                raise ValueError(f"{field.name}: expected an int >= 0, got {value!r}")
        if not 0.0 <= self.follow_prob <= 1.0:
            raise ValueError("follow_prob must be in [0, 1]")
        if self.planted_entities < 2 or self.planted_entities > self.n_entities:
            raise ValueError("planted_entities must fit inside n_entities")
        if self.t_span < 20:
            raise ValueError("t_span too small")

    @property
    def body_horizon(self) -> int:
        """Last time step (exclusive) for precursor and noise events."""
        return (self.t_span * 13) // 20

    @property
    def train_boundary(self) -> int:
        return (self.body_horizon * 4) // 5


def generate_events(spec: SyntheticSpec) -> list[tuple[int, int, int, int]]:
    """All events as (subject, relation, object, t), canonical order."""
    rng = np.random.default_rng(spec.seed)

    planted_pairs = [
        (i, j)
        for i in range(spec.planted_entities)
        for j in range(spec.planted_entities)
        if i < j
    ]
    # the ordered pairs of distinct noise entities, drawn by index (`noise_pair`)
    n_noise = spec.n_entities - spec.planted_entities
    n_noise_pairs = n_noise * (n_noise - 1)

    horizon = spec.body_horizon
    delay_max = spec.t_span - horizon
    events: set[tuple[int, int, int, int]] = set()

    # Apportion precursor counts per (subject, slot): an even base everywhere,
    # with each subject's latest slot getting a decisive margin (at least
    # LAST_SLOT_GAP extra events). Counts never increase going back in time
    # within one subject, so accumulating evidence always favors the most
    # recent episode by more than one lone fact's worth of score.
    n_subjects = spec.planted_entities - 1
    slots_per_subject = [spec.planted_entities - 1 - s for s in range(n_subjects)]
    gap = LAST_SLOT_GAP
    base, extra = divmod(max(spec.n_body_events - n_subjects * gap, 0), len(planted_pairs))
    counts = [[base] * k for k in slots_per_subject]
    for subject in range(n_subjects):
        counts[subject][-1] += gap
    while extra > 0:
        for subject in range(n_subjects):
            if extra > 0:
                counts[subject][-1] += 1
                extra -= 1

    for subject in range(n_subjects):
        partners = list(range(subject + 1, spec.planted_entities))
        slot_width = horizon // len(partners)
        window = slot_width - 1
        if window < 1:
            raise ValueError("t_span too small for the planted schedule")
        slot_order = rng.permutation(len(partners))
        for slot, partner_pos in enumerate(slot_order):
            obj = partners[int(partner_pos)]
            count = counts[subject][slot]
            start = slot * slot_width
            times = start + rng.choice(window, size=min(count, window), replace=False)
            for t in times:
                events.add((subject, BODY_RELATION, obj, int(t)))
            if rng.random() < spec.follow_prob:
                delay = int(rng.integers(1, delay_max + 1))
                events.add((subject, HEAD_RELATION, obj, start + window + delay))

    # noise events on a disjoint entity block, inside the body horizon
    if spec.n_noise_relations and n_noise_pairs:
        groups: dict[tuple[int, int], int] = {}
        for _ in range(spec.n_noise_events):
            key = (
                int(rng.integers(n_noise_pairs)),
                int(rng.integers(spec.n_noise_relations)),
            )
            groups[key] = groups.get(key, 0) + 1
        for (noise_index, rel_index), count in sorted(groups.items()):
            subject, obj = noise_pair(noise_index, n_noise, spec.planted_entities)
            relation = 2 + rel_index
            times = rng.choice(horizon, size=min(count, horizon), replace=False)
            for t in times:
                events.add((subject, relation, obj, int(t)))

    return sorted(events, key=lambda e: (e[3], e[0], e[1], e[2]))


def noise_pair(index: int, n_noise: int, first: int) -> tuple[int, int]:
    """The `index`-th of the ordered pairs (a, b), a != b, of the `n_noise`
    entities from id `first` on, listed by a and then by b."""
    a, b = divmod(index, n_noise - 1)
    return first + a, first + b + (b >= a)


def split_by_time(
    events: list[tuple[int, int, int, int]],
    train_end: int,
    valid_end: int,
) -> dict[str, list[tuple[int, int, int, int]]]:
    """train: t < train_end; valid: train_end <= t < valid_end; test: the rest."""
    splits = {"train": [], "valid": [], "test": []}
    for event in events:
        if event[3] < train_end:
            splits["train"].append(event)
        elif event[3] < valid_end:
            splits["valid"].append(event)
        else:
            splits["test"].append(event)
    return splits


def write_synthetic_dataset(directory: str, spec: SyntheticSpec = SyntheticSpec()) -> dict:
    """Write the canonical dataset layout plus a ground-truth sidecar, and
    return the sidecar payload. The directory is replaced as a whole, as
    `save_dataset` replaces it, and checked before any event is drawn."""
    with atomic_directory(directory, DATASET_FILES) as staging:
        events = generate_events(spec)
        splits = split_by_time(events, spec.train_boundary, spec.body_horizon)
        if not splits["train"] or not splits["test"]:
            raise ValueError("degenerate split; enlarge t_span or event counts")

        entities = [f"e{idx:02d}" for idx in range(spec.n_entities)]
        relations = ["precursor", "outcome"] + [
            f"noise_{i}" for i in range(spec.n_noise_relations)
        ]
        graphs = {name: TemporalKG(entities, relations, rows) for name, rows in splits.items()}
        ground_truth = {
            "spec": asdict(spec),
            "body_relation": BODY_RELATION,
            "head_relation": HEAD_RELATION,
            "n_events": len(events),
            "split_sizes": {name: len(rows) for name, rows in splits.items()},
        }
        write_dataset_files(
            Dataset(entities, relations, len(relations), graphs, time_gap=1, time_origin=0),
            staging,
        )
        with create_text(os.path.join(staging, GROUND_TRUTH_FILE)) as fh:
            json.dump(ground_truth, fh, indent=2)
            fh.write("\n")
    return ground_truth
