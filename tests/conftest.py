"""Shared fixtures: tiny hand-built graphs, the planted synthetic dataset, and
index-free reference implementations used as oracles."""
from __future__ import annotations

import builtins
import errno
import math
import os
import random
from collections import defaultdict

import numpy as np
import pytest

from tkgrag import files

from tkgrag.kg import Dataset, DatasetSpec, Quadruple, TemporalKG, load_dataset
from tkgrag.prompts import Prompt
from tkgrag.retrieval import Provenance, Query, RetrievalConfig, RetrievedHistory
from tkgrag.rules import (
    MiningParams,
    RuleBank,
    TemporalRule,
    _derived_rng,
    learn_rules,
)
from tkgrag.synthetic import SyntheticSpec, write_synthetic_dataset


def make_kg(quads, n_entities=None, n_relations=None, inverse=False) -> TemporalKG:
    """Build a TemporalKG from raw (s, r, o, t) tuples with stub names."""
    n_entities = n_entities or (max(max(q[0], q[2]) for q in quads) + 1 if quads else 1)
    n_relations = n_relations or (max(q[1] for q in quads) + 1 if quads else 1)
    entities = [f"E{i}" for i in range(n_entities)]
    relations = [f"R{i}" for i in range(n_relations)]
    if inverse:
        full = list(quads) + [(o, r + n_relations, s, t) for s, r, o, t in quads]
        relations = relations + [f"inv_R{i}" for i in range(n_relations)]
        return TemporalKG(entities, relations, full, n_relations)
    return TemporalKG(entities, relations, quads, n_relations)


def edges_of(kg: TemporalKG, positions=slice(None)) -> list[Quadruple]:
    """The graph's edges at `positions` (an index array, a mask or a slice;
    all of them by default), read from its columns in that order."""
    columns = (column[positions].tolist() for column in (kg.sub, kg.rel, kg.obj, kg.ts))
    return list(map(Quadruple._make, zip(*columns)))


def key_range(kg: TemporalKG, subject, relation, t_lo, t_hi) -> np.ndarray:
    """Positions of the edges (subject, relation, *, t) with t_lo <= t < t_hi,
    ascending in t: one key's range from `key_search`."""
    order, found = kg.key_search(subject, [relation], (t_lo, t_hi))
    return order[found[0, 0]:found[0, 1]]


def write_dataset_dir(tmp_path, train, valid=(), test=(), id_maps=None):
    """Write raw rows (tab-separated, 4 columns) into a dataset directory."""
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        with open(tmp_path / f"{name}.txt", "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write("\t".join(str(c) for c in row) + "\n")
    if id_maps:
        entities, relations = id_maps
        with open(tmp_path / "entity2id.txt", "w", encoding="utf-8") as fh:
            for name, idx in entities:
                fh.write(f"{name}\t{idx}\n")
        with open(tmp_path / "relation2id.txt", "w", encoding="utf-8") as fh:
            for name, idx in relations:
                fh.write(f"{name}\t{idx}\n")
    return tmp_path


class FullDisk:
    """File handle that takes `room` characters, then fails like a full disk."""

    def __init__(self, fh, room: int):
        self.fh, self.room = fh, room

    def write(self, text: str) -> int:
        if len(text) > self.room:
            self.fh.write(text[: self.room])
            self.room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(text)
        return self.fh.write(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def __iter__(self):  # reading is not affected
        return iter(self.fh)

    def read(self, *args):
        return self.fh.read(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


@pytest.fixture
def disk_full(monkeypatch):
    """`disk_full(room)` makes every artifact write through `tkgrag.files`
    fail with ENOSPC once `room` characters have been written."""

    def arm(room: int) -> None:
        monkeypatch.setattr(
            files, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs), room),
            raising=False,
        )

    return arm


class FaultyFile(FullDisk):
    """File handle opened for writing under a `write_faults` directory: it
    takes `room` characters as `FullDisk` does, and each flush, the one at
    close included, is a fault point."""

    def __init__(self, fh, room, point):
        super().__init__(fh, room)
        self.point = point

    def __getattr__(self, name):  # truncate, seek, name and the rest
        return getattr(self.fh, name)

    def flush(self) -> None:
        self.point("flush", self.fh.name)
        self.fh.flush()

    def close(self) -> None:
        try:
            self.flush()
        finally:
            self.fh.close()

    def __exit__(self, *exc_info):
        self.close()


class WriteFaults:
    """The fault points of the writes under one directory, in the order a
    run meets them: each open for writing, each flush (the one at close
    included), and each os.rename or os.replace from or to a path under it.
    `arm(root)` counts them afresh in `points`, as (kind, path); with
    `fail=n` the n-th point, counting from 0, also raises EIO, once, and with
    `room=k` each file opened for writing there takes k characters, then
    fails with ENOSPC (`FullDisk`). `disarm()` stops both."""

    def __init__(self, monkeypatch):
        self.root, self.fail, self.room, self.points = None, None, math.inf, []
        opener = builtins.open

        def open_for_write(file, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+") or not self._under(file):
                return opener(file, mode, *args, **kwargs)
            self._point("open", file)
            return FaultyFile(opener(file, mode, *args, **kwargs), self.room, self._point)

        def move(kind, original):
            def moved(src, dst, *args, **kwargs):
                if self._under(src) or self._under(dst):
                    self._point(kind, dst)
                return original(src, dst, *args, **kwargs)
            return moved

        monkeypatch.setattr(builtins, "open", open_for_write)
        monkeypatch.setattr(os, "rename", move("rename", os.rename))
        monkeypatch.setattr(os, "replace", move("replace", os.replace))

    def arm(self, root, fail=None, room=math.inf) -> list:
        self.root, self.fail, self.room, self.points = os.path.realpath(root), fail, room, []
        return self.points

    def disarm(self) -> None:
        self.root, self.fail, self.room = None, None, math.inf

    def _under(self, path) -> bool:
        return (self.root is not None and isinstance(path, (str, os.PathLike))
                and os.path.realpath(path).startswith(self.root + os.sep))

    def _point(self, kind: str, path) -> None:
        if self.root is None:
            return
        self.points.append((kind, os.fspath(path)))
        if len(self.points) - 1 == self.fail:
            raise OSError(errno.EIO, "Input/output error")


@pytest.fixture
def write_faults(monkeypatch):
    """A `WriteFaults`, disarmed: it counts and fails the writes under the
    directory given to its `arm`."""
    return WriteFaults(monkeypatch)


# -- index-free references ----------------------------------------------------


def reference_confidence(quads, head_relation, body_relation):
    """Exhaustive (body_support, rule_support, confidence) over raw quads."""
    head_times = defaultdict(list)
    for s, r, o, t in quads:
        if r == head_relation:
            head_times[(s, o)].append(t)
    bodies = [(s, o, t) for s, r, o, t in quads if r == body_relation]
    body_support = len(bodies)
    rule_support = sum(
        1 for s, o, t in bodies if any(t2 > t for t2 in head_times[(s, o)])
    )
    confidence = rule_support / body_support if body_support else 0.0
    return body_support, rule_support, confidence


def history_of(query: Query, facts, provenance) -> RetrievedHistory:
    """The history of `query` holding `facts` (`Quadruple`s or (s, r, o, t)
    tuples) with the parallel `provenance`, as columns."""
    if len(facts) != len(provenance):
        raise ValueError("facts and provenance differ in length")
    sources = tuple(dict.fromkeys(provenance))
    codes = np.array([sources.index(prov) for prov in provenance], dtype=np.int64)
    return RetrievedHistory(query, *np.array(facts, dtype=np.int64).reshape(-1, 4).T,
                            codes, sources)


def history_key(history: RetrievedHistory) -> tuple:
    """What tells two histories apart: (query, facts, provenance)."""
    return history.query, history.facts, history.provenance


def transition_weights(candidate_ts: np.ndarray, t: int) -> np.ndarray:
    """Exponential recency weighting over candidate timestamps, normalized:
    the transition law whose probabilities `rules.sample_walk` picks by.

    Weight of a candidate at t_u is proportional to exp(t_u - t), computed as
    exp(t_u - t_max) over the latest candidate t_max: the differences are
    exact integers, so the result is stable for arbitrarily distant
    timestamps.
    """
    if candidate_ts.size == 0:
        raise ValueError("empty candidate set")
    if (candidate_ts >= t).any():
        raise ValueError("candidate timestamp not strictly before current time")
    w = np.exp((candidate_ts - candidate_ts.max()).astype(np.float64))
    return w / w.sum()


def reference_sample_walk(kg: TemporalKG, head_edge: Quadruple, rng):
    """One walk step drawn with `Generator.choice` over the transition law."""
    s, r, o, t = head_edge
    if o not in kg.obj[key_range(kg, s, r, t, t + 1)].tolist():
        raise ValueError(f"head edge {head_edge} not present in graph")
    positions = kg.returning_positions(head_edge.object, head_edge.subject, head_edge.t)
    if positions.size == 0:
        return None
    probs = transition_weights(kg.ts[positions], head_edge.t)
    pick = int(rng.choice(positions.size, p=probs))
    walked = int(kg.rel[positions[pick]])
    inverse = kg.inverse_of(walked)
    return walked if inverse is None else inverse


def reference_estimate_confidence(kg: TemporalKG, head_relation, body_relation,
                                  grounding_cap, rng):
    """The confidence estimate with one latest-head-time search per grounding."""
    positions = np.flatnonzero(kg.rel == body_relation)
    if positions.size == 0:
        return (0, 0, 0.0)
    if positions.size > grounding_cap:
        positions = positions[
            np.sort(rng.choice(positions.size, size=grounding_cap, replace=False))
        ]
    last = kg.last_time_of(kg.sub[positions], head_relation, kg.obj[positions])
    rule_support = int(np.count_nonzero(kg.ts[positions] < last))
    return (int(positions.size), rule_support, rule_support / positions.size)


def reference_learn_rules(kg: TemporalKG, params: MiningParams) -> RuleBank:
    """Rule mining with a fresh `_derived_rng` generator per walk and per
    capped confidence, heads one after another."""
    rules_by_head = {}
    for head in np.unique(kg.rel).tolist():
        positions = np.flatnonzero(kg.rel == head)
        candidates = []
        for walk_index in range(params.num_walks):
            rng = _derived_rng(params.seed, "walk", head, walk_index)
            head_edge = edges_of(kg, [positions[int(rng.integers(positions.size))]])[0]
            body = reference_sample_walk(kg, head_edge, rng)
            if body is not None and body not in candidates:
                candidates.append(body)
        rules = []
        for body in candidates:
            rng = _derived_rng(params.seed, "confidence", head, body)
            body_support, rule_support, confidence = reference_estimate_confidence(
                kg, head, body, params.grounding_cap, rng)
            if body_support >= params.min_body_support and rule_support >= 1:
                rules.append(TemporalRule(head, body, body_support, rule_support, confidence))
        if rules:
            rules_by_head[head] = rules
    return RuleBank(rules_by_head, params)


def reference_retrieve(quads, bank, query: Query, cfg: RetrievalConfig) -> RetrievedHistory:
    """Direct filter-and-sort reimplementation of retrieval, no indices."""
    window = cfg.window if cfg.window is not None else query.t
    rules = list(bank.rules_for(query.relation))
    if cfg.top_rules is not None:
        rules = rules[: cfg.top_rules]
    groups = [(0, query.relation, Provenance(rank=0))]
    for i, rule in enumerate(rules, start=1):
        groups.append((i, rule.body_relation,
                       Provenance(rank=i, body_relation=rule.body_relation,
                                  confidence=rule.confidence)))

    if cfg.stepwise:
        spans, hi = [], query.t
        while hi > 0:
            lo = max(0, hi - window)
            spans.append((lo, hi))
            if lo == 0 or window == 0:
                break
            hi = lo
    else:
        spans = [(max(0, query.t - window), query.t)]

    chosen, seen = [], set()
    for lo, hi in spans:
        for _, relation, prov in groups:
            matches = [
                Quadruple(*q) for q in quads
                if q[0] == query.subject and q[1] == relation and lo <= q[3] < hi
            ]
            matches.sort(key=lambda q: (-q.t, -q.object))
            for quad in matches:
                if quad in seen or len(chosen) >= cfg.max_history:
                    continue
                seen.add(quad)
                chosen.append((quad, prov))
    chosen.sort(key=lambda fp: (fp[0].t, fp[1].rank, fp[0].object))
    return history_of(query, [q for q, _ in chosen], [p for _, p in chosen])


def reference_filter(ranked, query: Query, true_quads: set) -> list[int]:
    """The time-aware filter as one membership test per ranked object: an
    object other than the query's gold goes when (subject, relation, object,
    t) of the query is in `true_quads`, a set of (s, r, o, t) tuples."""
    s, r, t = query.subject, query.relation, query.t
    return [obj for obj in ranked
            if obj == query.gold_object or (s, r, obj, t) not in true_quads]


def reference_rule_scores(history: RetrievedHistory, bank):
    """Straight-line recomputation of the oracle predictor's ranking, one
    `Quadruple` at a time."""
    query = history.query
    conf = {r.body_relation: r.confidence for r in bank.rules_for(query.relation)}
    totals, latest = {}, {}
    for fact in history.facts:
        w = conf.get(fact.relation, 0.0) + (1.0 if fact.relation == query.relation else 0.0)
        if w > 0:
            totals[fact.object] = totals.get(fact.object, 0.0) + w
            latest[fact.object] = max(latest.get(fact.object, -1), fact.t)
    return sorted(totals, key=lambda o: (-totals[o], -latest[o], o))[:10]


def reference_select_history(history: RetrievedHistory, cfg, retrieval_cfg):
    """The prompt-level fact cap as one Python sort over (fact, provenance)
    pairs: (span, rank, -t, -object) priority, then canonical order."""
    if cfg.max_facts is None or len(history) <= cfg.max_facts:
        return history
    query_t = history.query.t
    if retrieval_cfg.stepwise:
        window = retrieval_cfg.window or max(query_t, 1)
    else:
        window = None
    paired = sorted(
        zip(history.facts, history.provenance),
        key=lambda fp: ((query_t - 1 - fp[0].t) // window if window else 0,
                        fp[1].rank, -fp[0].t, -fp[0].object),
    )[: cfg.max_facts]
    paired.sort(key=lambda fp: (fp[0].t, fp[1].rank, fp[0].object))
    return history_of(history.query, [fact for fact, _ in paired], [prov for _, prov in paired])


def reference_build_prompt(history: RetrievedHistory, cfg, kg: TemporalKG) -> Prompt:
    """Prompt rendering one `Quadruple` at a time, every fact of `history`."""
    pairs = list(zip(history.facts, history.provenance))
    if cfg.order == "descending":
        pairs.reverse()
    elif cfg.order == "random":
        random.Random(cfg.order_seed).shuffle(pairs)
    with_time = cfg.order != "timestamps-removed"
    entities = [name.replace(" ", "_") for name in kg.entities]
    relations = [name.replace(" ", "_") for name in kg.relations]
    index_map: dict[int, int] = {}
    lines = []
    for fact, _ in pairs:
        obj = entities[fact.object]
        if cfg.format == "index":
            if fact.object not in index_map:
                index_map[fact.object] = len(index_map)
            obj = f"{index_map[fact.object]}.{obj}"
        prefix = f"{fact.t}:" if with_time else ""
        lines.append(f"{prefix}[{entities[fact.subject]}, {relations[fact.relation]}, {obj}]")
    query = history.query
    q_prefix = f"{query.t}:" if with_time else ""
    query_line = f"{q_prefix}[{entities[query.subject]}, {relations[query.relation]},"
    text = cfg.instruction + "\n" + "".join(line + "\n" for line in lines) + query_line
    return Prompt(text=text, index_map=index_map, query_prefix=query_line, format=cfg.format)


# -- the planted synthetic, shared session-wide -------------------------------


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("synthetic")
    write_synthetic_dataset(str(directory), SyntheticSpec())
    return directory


@pytest.fixture(scope="session")
def synthetic_dataset(synthetic_dir) -> Dataset:
    return load_dataset(str(synthetic_dir), DatasetSpec(time_gap=1, inverse=True))


@pytest.fixture(scope="session")
def synthetic_bank(synthetic_dataset):
    return learn_rules(synthetic_dataset.train, MiningParams(num_walks=200, seed=1))
