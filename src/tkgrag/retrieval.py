"""Rule-guided retrieval of query-relevant history from the event graph.

For a query (subject, relation, ?, t) the retriever collects past facts about
the same subject: first facts carrying the query relation itself, then facts
carrying the mined rule bodies for that relation in descending confidence.
Selection is truncated to a maximum history length and re-sorted into
ascending time order for prompting.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .kg import Dataset, Quadruple, TemporalKG
from .rules import RuleBank


@dataclass(frozen=True)
class Query:
    subject: int
    relation: int
    t: int
    gold_object: Optional[int] = None

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("query time step must be non-negative")


@dataclass(frozen=True)
class RetrievalConfig:
    """window=None means the whole strict past of the query; top_rules=None
    uses every rule the bank holds for the query relation."""

    window: Optional[int] = None
    top_rules: Optional[int] = None
    max_history: int = 50
    stepwise: bool = False

    def __post_init__(self):
        if self.window is not None and self.window < 1:
            raise ValueError("window must be >= 1")
        if self.top_rules is not None and self.top_rules < 0:
            raise ValueError("top_rules must be >= 0")
        if self.max_history < 1:
            raise ValueError("max_history must be >= 1")


@dataclass(frozen=True)
class Provenance:
    """Why a fact was retrieved: rank 0 is a query-relation (rule-head) fact,
    rank i >= 1 is the i-th rule body in bank order."""

    rank: int
    body_relation: Optional[int] = None
    confidence: Optional[float] = None

    @property
    def kind(self) -> str:
        return "rule-head" if self.rank == 0 else "rule-body"

    def as_dict(self) -> dict:
        if self.rank == 0:
            return {"kind": "rule-head", "rank": 0}
        return {
            "kind": "rule-body",
            "rank": self.rank,
            "body_relation": self.body_relation,
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class RetrievedHistory:
    """Facts in canonical prompt order: ascending t, ties broken by provenance
    rank then object id. `provenance` is parallel to `facts`."""

    query: Query
    facts: tuple[Quadruple, ...]
    provenance: tuple[Provenance, ...]

    def __len__(self) -> int:
        return len(self.facts)


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
    group) pair from one `kg.window_ranges` call on the graph's (subject,
    relation, t) key table. Taken in span-major order, each range gives its
    newest facts to the room the ranges before it left; provenance is built
    only for the ranks that yield facts.
    """
    window = cfg.window or max(query.t, 1)  # None: the whole strict past
    plan = bank.plan_for(query.relation)
    groups = len(plan.ranks)
    if cfg.top_rules is not None:
        groups = int(plan.ranks.searchsorted(cfg.top_rules, side="right"))
    if cfg.stepwise:
        t_hi = np.arange(query.t, 0, -window)
        t_lo = np.maximum(t_hi - window, 0)
    else:
        t_hi, t_lo = [query.t], [max(0, query.t - window)]
    order, starts, ends = kg.window_ranges(query.subject, plan.relations[:groups], t_lo, t_hi)

    counts = (ends - starts).ravel()
    room = cfg.max_history - (counts.cumsum() - counts)
    take = np.minimum(counts, np.maximum(room, 0))
    # the newest `take` entries of each range, concatenated
    taken = take.cumsum()
    at = np.arange(taken[-1] if len(taken) else 0) + (ends.ravel() - taken).repeat(take)
    positions = order[at]
    ranks = plan.ranks[None, :groups].repeat(len(starts), axis=0).ravel().repeat(take)
    canonical = np.lexsort((kg.obj[positions], ranks, kg.ts[positions]))
    ranks = ranks[canonical].tolist()
    rules = bank.rules_for(query.relation)
    provenance = {
        rank: Provenance(rank, rules[rank - 1].body_relation, rules[rank - 1].confidence)
        if rank else Provenance(rank=0)
        for rank in set(ranks)
    }
    return RetrievedHistory(
        query=query,
        facts=tuple(kg.quads_at(positions[canonical])),
        provenance=tuple(map(provenance.__getitem__, ranks)),
    )


def retrieve_batch(
    kg: TemporalKG,
    bank: RuleBank,
    queries: Sequence[Query],
    cfg: RetrievalConfig = RetrievalConfig(),
) -> list[RetrievedHistory]:
    return [retrieve(kg, bank, query, cfg) for query in queries]


def queries_from_split(dataset: Dataset, split: str) -> list[Query]:
    """Object-prediction queries, one per original-direction edge of a split,
    in canonical (t, subject, relation, object) order."""
    return [Query(s, r, t, o) for s, r, o, t in dataset.split(split).base_quads().tolist()]


# -- JSON-lines interchange ---------------------------------------------------


def query_to_dict(query: Query) -> dict:
    payload = {"s": query.subject, "r": query.relation, "t": query.t}
    if query.gold_object is not None:
        payload["gold"] = query.gold_object
    return payload


def query_from_dict(payload: dict) -> Query:
    return Query(
        subject=payload["s"],
        relation=payload["r"],
        t=payload["t"],
        gold_object=payload.get("gold"),
    )


def history_to_dict(history: RetrievedHistory) -> dict:
    facts = []
    for fact, prov in zip(history.facts, history.provenance):
        facts.append(
            {
                "s": fact.subject,
                "r": fact.relation,
                "o": fact.object,
                "t": fact.t,
                "provenance": prov.as_dict(),
            }
        )
    return {"query": query_to_dict(history.query), "facts": facts}


def history_from_dict(payload: dict) -> RetrievedHistory:
    facts = []
    provenance = []
    for row in payload["facts"]:
        facts.append(Quadruple(row["s"], row["r"], row["o"], row["t"]))
        prov = row["provenance"]
        provenance.append(
            Provenance(
                rank=prov["rank"],
                body_relation=prov.get("body_relation"),
                confidence=prov.get("confidence"),
            )
        )
    return RetrievedHistory(
        query=query_from_dict(payload["query"]),
        facts=tuple(facts),
        provenance=tuple(provenance),
    )


def write_histories(histories: Iterable[RetrievedHistory], fh: TextIO) -> int:
    count = 0
    for history in histories:
        fh.write(json.dumps(history_to_dict(history)) + "\n")
        count += 1
    return count


def read_histories(fh: TextIO) -> list[RetrievedHistory]:
    return [history_from_dict(json.loads(line)) for line in fh if line.strip()]
