"""Rule-guided retrieval of query-relevant history from the event graph.

For a query (subject, relation, ?, t) the retriever collects past facts about
the same subject: first facts carrying the query relation itself, then facts
carrying the mined rule bodies for that relation in descending confidence.
Selection is truncated to a maximum history length and re-sorted into
ascending time order for prompting.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Optional, Sequence

import numpy as np

from .files import NonNegative, Positive, check_fields, json_fields, typed
from .kg import Dataset, Quadruple, TemporalKG, check_ids
from .rules import Provenance, RuleBank


@dataclass(frozen=True)
class Query:
    json_keys: ClassVar[dict] = {"subject": "s", "relation": "r", "gold_object": "gold"}

    subject: int
    relation: int
    t: int
    gold_object: Optional[int] = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class RetrievalConfig:
    """window=None means the whole strict past of the query; top_rules=None
    uses every rule the bank holds for the query relation."""

    window: Optional[Positive] = None
    top_rules: Optional[NonNegative] = None
    max_history: Positive = 50
    stepwise: bool = False

    __post_init__ = check_fields


class RetrievedHistory:
    """Facts in canonical prompt order: ascending t, ties broken by provenance
    rank then object id.

    Stored as columns, taken as they are given: the int64 arrays `sub`,
    `rel`, `obj` and `ts`, one entry per fact, and `codes`, each fact's
    index into `sources`, a tuple of distinct `Provenance` objects. `facts`
    (`Quadruple`s) and `provenance` (parallel to `facts`) are built from the
    columns on first access, for callers outside the forecast path. Treat
    instances as immutable.
    """

    def __init__(self, query: Query, sub, rel, obj, ts, codes, sources: Sequence[Provenance]):
        self.query = query
        self.sub, self.rel, self.obj, self.ts = sub, rel, obj, ts
        self.codes = codes
        self.sources: tuple[Provenance, ...] = tuple(sources)

    def take(self, rows) -> "RetrievedHistory":
        """The facts at `rows` (an index array), in that order."""
        return RetrievedHistory(
            self.query, self.sub[rows], self.rel[rows], self.obj[rows], self.ts[rows],
            self.codes[rows], self.sources,
        )

    @cached_property
    def facts(self) -> tuple[Quadruple, ...]:
        columns = (column.tolist() for column in (self.sub, self.rel, self.obj, self.ts))
        return tuple(map(Quadruple._make, zip(*columns)))

    @cached_property
    def provenance(self) -> tuple[Provenance, ...]:
        return tuple(map(self.sources.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.ts)


def retrieve(
    kg: TemporalKG, bank: RuleBank, query: Query, cfg: RetrievalConfig = RetrievalConfig()
) -> RetrievedHistory:
    """Collect up to cfg.max_history strict-past facts for one query.

    When truncation is needed, query-relation facts win over rule-body facts,
    higher-confidence rule groups win over lower ones, and within a group more
    recent facts win. cfg.stepwise instead walks the window backwards one
    span at a time, exhausting all groups in a nearer window before moving to
    an older one.

    One search per query: the rule groups come from the bank's per-head
    plan (`RuleBank.plan_for`), and the position ranges of every (span,
    group) pair from one `kg.key_search` of the spans' distinct bounds
    (contiguous spans share their inner bounds). Taken in span-major order,
    each range gives its newest facts to the room the ranges before it left.
    The history's columns are gathered from the graph's at the chosen
    positions; its sources hold one `Provenance` per rank that yields facts.
    """
    t = query.t
    window = cfg.window or max(t, 1)  # None: the whole strict past
    plan = bank.plan_for(query.relation)
    relations = plan.relations
    if cfg.top_rules is not None:
        relations = relations[: plan.ranks.searchsorted(cfg.top_rules, side="right")]
    if cfg.stepwise:
        # span i is [bounds[i + 1], bounds[i]), nearest first
        bounds = np.append(np.arange(t, 0, -window), 0)
    else:
        bounds = (t, max(0, t - window))
    order, found = kg.key_search(query.subject, relations, bounds)
    # (span, group) range sizes in span-major order, each capped by the room
    # the ranges before it left
    ends = found[:, :-1].T.ravel()
    counts = ends - found[:, 1:].T.ravel()
    taken = np.minimum(counts.cumsum(), cfg.max_history)
    total = int(taken[-1]) if len(taken) else 0
    if not total:
        return RetrievedHistory(query, *_EMPTY_COLUMNS, ())
    # fact j of the concatenated output comes from range i, where it is the
    # entry ends[i] - taken[i] + j: the newest entries of each range
    at = np.arange(total)
    ranges = taken.searchsorted(at, side="right")
    positions = order[at + (ends - taken)[ranges]]
    groups = ranges % len(relations)
    ts, obj = kg.ts[positions], kg.obj[positions]
    canonical = np.lexsort((obj, groups, ts))
    groups = groups[canonical]
    # the groups that yield facts, ascending, and each fact's index among them
    present = np.bincount(groups).nonzero()[0]
    return RetrievedHistory(
        query, kg.sub[positions[canonical]], relations[groups], obj[canonical], ts[canonical],
        present.searchsorted(groups), [plan.provenance[group] for group in present.tolist()],
    )


_EMPTY_COLUMNS = tuple(np.empty(0, dtype=np.int64) for _ in range(5))
for _column in _EMPTY_COLUMNS:
    _column.flags.writeable = False


def queries_from_split(dataset: Dataset, split: str) -> list[Query]:
    """Object-prediction queries, one per original-direction edge of a split,
    in canonical (t, subject, relation, object) order."""
    return [Query(s, r, t, o) for s, r, o, t in dataset.split(split).base_quads().tolist()]


# -- JSON-lines interchange ---------------------------------------------------


def history_to_dict(history: RetrievedHistory) -> dict:
    """The history as JSON-ready rows; facts with one provenance share its
    dict."""
    sources = [prov.as_dict() for prov in history.sources]
    columns = (history.sub, history.rel, history.obj, history.ts, history.codes)
    facts = [
        {"s": s, "r": r, "o": o, "t": t, "provenance": sources[code]}
        for s, r, o, t, code in zip(*(column.tolist() for column in columns))
    ]
    return {"query": json_fields(history.query), "facts": facts}


def history_from_dict(payload: dict, kg: TemporalKG, decoded: dict) -> RetrievedHistory:
    """The history `history_to_dict` wrote. A missing field raises KeyError,
    a malformed one ValueError naming it (`files.typed`): ids and time steps
    must be JSON integers, facts must lie before the query, and entity and
    relation ids must lie in the vocabulary of `kg`. `decoded` holds the
    provenances decoded so far, and each new one joins it: a reader passes
    one dict for the histories of a file, so each is decoded once per file."""
    rows = typed(list, payload["facts"], "facts")
    code_of, sources, codes = {}, [], []
    for row in rows:
        try:  # JSON 1, 1.0 and true are equal in Python, so the key holds the types
            prov = row["provenance"]
            code = code_of[(*prov.items(), *map(type, prov.values()))]
        except (AttributeError, KeyError, TypeError):  # new, or not well formed
            code = _new_source(row, len(codes), code_of, sources, decoded)
        codes.append(code)
    query = typed(Query, payload["query"], "query")
    sub, rel, obj, ts = (_id_column([row[name] for row in rows], f"facts.{name}")
                         for name in "srot")
    if len(ts) and not 0 <= ts.min() <= ts.max() < query.t:
        raise ValueError(f"facts.t: expected a time step in [0, {query.t}), "
                         f"got {ts[(ts < 0) | (ts >= query.t)][0]}")
    check_query_ids(query, kg)
    n_ent, n_rel = len(kg.entities), len(kg.relations)
    for field, ids, size in (("facts.s", sub, n_ent), ("facts.r", rel, n_rel),
                             ("facts.o", obj, n_ent)):
        check_ids(field, ids, size)
    return RetrievedHistory(
        query, sub, rel, obj, ts, np.array(codes, dtype=np.int64), sources
    )


def _new_source(fact, at: int, code_of: dict, sources: list, decoded: dict) -> int:
    """The code of the provenance of `fact`, the `at`-th fact, when
    `code_of` lacks it: its `Provenance`, from `decoded` or decoded into it,
    joins `sources`. A fact or provenance that is not a JSON object, or a
    provenance holding a list or an object, raises ValueError naming it; a
    missing provenance, KeyError."""
    if type(fact) is not dict:
        raise ValueError(f"facts[{at}]: expected an object, got {fact!r}")
    prov = fact["provenance"]
    try:
        key = (*prov.items(), *map(type, prov.values()))
        source = decoded.get(key)
    except (AttributeError, TypeError):  # not an object, or unhashable
        key = source = None
    if source is None:
        source = typed(Provenance, prov, "facts.provenance")
        if key is None:
            raise ValueError(f"facts.provenance: expected JSON scalar values, got {prov!r}")
        decoded[key] = source
    code_of[key] = len(sources)
    sources.append(source)
    return len(sources) - 1


def check_query_ids(query: Query, kg: TemporalKG) -> None:
    """ValueError naming the first id of `query` outside the vocabulary of
    `kg` (`kg.check_ids`)."""
    n_ent = len(kg.entities)
    check_ids("query.s", query.subject, n_ent)
    check_ids("query.r", query.relation, len(kg.relations))
    check_ids("query.gold", query.gold_object, n_ent)


def _id_column(values: list, field: str) -> np.ndarray:
    """JSON integers as an int64 column; any other value, a bool or a list
    included, raises the ValueError of `files.typed` naming `field`."""
    try:
        column = np.array(values)
    except ValueError:  # ragged: a list among the values
        column = np.empty(0)
    if column.shape != (len(values),) or column.dtype.kind != "i" or bool in set(map(type, values)):
        for value in values:
            typed(int, value, field)
    return column.astype(np.int64, copy=False)
