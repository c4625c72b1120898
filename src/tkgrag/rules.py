"""Length-1 temporal rule mining via time-respecting random walks.

A rule pairs a head relation with a body relation: whenever the body holds
between two entities at T1, the rule claims the head holds between the same
entities at some later T2. Confidence is the fraction of body groundings for
which that claim is true in the graph.
"""
from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .files import atomic_write
from .kg import Quadruple, TemporalKG


@dataclass(frozen=True)
class MiningParams:
    num_walks: int = 200
    rule_length: int = 1
    min_body_support: int = 2
    grounding_cap: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.rule_length != 1:
            raise ValueError("only rule_length = 1 is supported")
        if self.min_body_support < 1:
            raise ValueError("min_body_support must be >= 1")
        if self.grounding_cap < 1:
            raise ValueError("grounding_cap must be >= 1")


@dataclass(frozen=True)
class TemporalRule:
    head_relation: int
    body_relation: int
    body_support: int
    rule_support: int
    confidence: float

    def __post_init__(self):
        if not (0 < self.rule_support <= self.body_support):
            raise ValueError("rule_support must be in [1, body_support]")
        if abs(self.confidence - self.rule_support / self.body_support) > 1e-9:
            raise ValueError("confidence must equal rule_support / body_support")


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


class HeadPlan(NamedTuple):
    """One head relation's rules in the form retrieval and the oracle read.

    `relations` is the head, then every body relation other than the head
    (which would only repeat the head's facts), in bank order; `ranks` holds
    0 for the head and each body's 1-based rank in the bank. Since ranks
    ascend, the first `searchsorted(ranks, k, "right")` entries are the head
    and the bodies of the top k rules. `provenance` holds, parallel to them,
    the `Provenance` that retrieval gives their facts. `confidence_by_body`
    maps every body, the head included when it is one, to its rule's
    confidence.
    """

    relations: np.ndarray
    ranks: np.ndarray
    provenance: tuple[Provenance, ...]
    confidence_by_body: dict[int, float]


class RuleBank:
    """Rules grouped per head relation, sorted by descending confidence
    (ties: higher rule_support, then lower body relation id). Each head's
    `HeadPlan` is built on first use and kept with the bank."""

    def __init__(self, rules_by_head: dict[int, list[TemporalRule]], params: MiningParams):
        self.params = params
        self.rules_by_head: dict[int, tuple[TemporalRule, ...]] = {}
        for head, rules in rules_by_head.items():
            bodies = [r.body_relation for r in rules]
            if len(bodies) != len(set(bodies)):
                raise ValueError(f"duplicate body relation under head {head}")
            ordered = sorted(rules, key=_rule_sort_key)
            self.rules_by_head[head] = tuple(ordered)
        self._plans: dict[int, HeadPlan] = {}

    def rules_for(self, head_relation: int) -> tuple[TemporalRule, ...]:
        return self.rules_by_head.get(head_relation, ())

    def plan_for(self, head_relation: int) -> HeadPlan:
        """The head's rules as retrieval and the oracle read them."""
        plan = self._plans.get(head_relation)
        if plan is None:
            rules = self.rules_for(head_relation)
            ranked = [Provenance(rank, rule.body_relation, rule.confidence)
                      for rank, rule in enumerate(rules, start=1)
                      if rule.body_relation != head_relation]
            provenance = (Provenance(rank=0), *ranked)
            plan = self._plans[head_relation] = HeadPlan(
                relations=np.array([head_relation] + [p.body_relation for p in ranked],
                                   dtype=np.int64),
                ranks=np.array([p.rank for p in provenance], dtype=np.int64),
                provenance=provenance,
                confidence_by_body={rule.body_relation: rule.confidence for rule in rules},
            )
        return plan

    def __len__(self) -> int:
        return sum(len(rules) for rules in self.rules_by_head.values())

    def to_json(self) -> str:
        payload = {
            "params": asdict(self.params),
            "rules": [
                {
                    "head": rule.head_relation,
                    "body": rule.body_relation,
                    "body_support": rule.body_support,
                    "rule_support": rule.rule_support,
                    "confidence": rule.confidence,
                }
                for head in sorted(self.rules_by_head)
                for rule in self.rules_by_head[head]
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RuleBank":
        payload = json.loads(text)
        params = MiningParams(**payload["params"])
        by_head: dict[int, list[TemporalRule]] = {}
        for row in payload["rules"]:
            rule = TemporalRule(
                head_relation=row["head"],
                body_relation=row["body"],
                body_support=row["body_support"],
                rule_support=row["rule_support"],
                confidence=row["confidence"],
            )
            by_head.setdefault(rule.head_relation, []).append(rule)
        bank = cls(by_head, params)
        # reject files whose rule order was tampered with
        for head, rules in by_head.items():
            if tuple(rules) != bank.rules_by_head[head]:
                raise ValueError(f"rules for head {head} are not in bank order")
        return bank

    def save(self, path: str) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "RuleBank":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _rule_sort_key(rule: TemporalRule):
    return (-rule.confidence, -rule.rule_support, rule.body_relation)


def _derived_rng(*material) -> np.random.Generator:
    """Independent, reproducible stream per (seed, ...) tuple. Streams do not
    depend on how many other streams exist, so adding walks never perturbs
    earlier ones."""
    token = "/".join(str(m) for m in material).encode()
    digest = hashlib.blake2b(token, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def transition_weights(candidate_ts: np.ndarray, t: int) -> np.ndarray:
    """Exponential recency weighting over candidate timestamps, normalized.

    Weight of a candidate at t_u is proportional to exp(t_u - t); the shared
    maximum is subtracted before exponentiation so the result is stable for
    arbitrarily distant timestamps.
    """
    if candidate_ts.size == 0:
        raise ValueError("empty candidate set")
    if (candidate_ts >= t).any():
        raise ValueError("candidate timestamp not strictly before current time")
    z = candidate_ts.astype(np.float64) - float(t)
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def transition_distribution(candidates: Sequence[Quadruple], t: int) -> list[float]:
    """Probability of stepping to each candidate edge, prioritizing recency."""
    ts = np.array([q.t for q in candidates], dtype=np.int64)
    return transition_weights(ts, t).tolist()


def sample_walk(
    kg: TemporalKG, head_edge: Quadruple, rng: np.random.Generator
) -> Optional[int]:
    """One time-respecting walk step from a head edge back to its subject.

    Candidates are edges from the head's object back to the head's subject at
    a strictly earlier time step. Returns the body relation id of the sampled
    candidate, or None when no candidate closes the cycle. On an
    inverse-augmented graph the sampled edge points opposite to the head, so
    its relation is mapped to the inverse id to read in the head's direction.
    """
    if not kg.contains(head_edge):
        raise ValueError(f"head edge {head_edge} not present in graph")
    positions = kg.returning_positions(head_edge.object, head_edge.subject, head_edge.t)
    if positions.size == 0:
        return None
    probs = transition_weights(kg.ts[positions], head_edge.t)
    pick = int(rng.choice(positions.size, p=probs))
    walked = int(kg.rel[positions[pick]])
    inverse = kg.inverse_of(walked)
    return walked if inverse is None else inverse


def estimate_confidence(
    kg: TemporalKG,
    head_relation: int,
    body_relation: int,
    grounding_cap: int,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, int, float]:
    """(body_support, rule_support, confidence) for one head/body pair.

    Body groundings are enumerated exhaustively up to grounding_cap; beyond
    the cap a uniform sample of grounding_cap groundings is scored instead,
    making the confidence an unbiased estimate. A grounding counts toward rule
    support when the same (subject, object) pair carries the head relation at
    any strictly later time step.
    """
    if grounding_cap < 1:
        raise ValueError("grounding_cap must be >= 1")
    positions = kg.index_r.get(body_relation)
    if positions is None or positions.size == 0:
        return (0, 0, 0.0)
    if positions.size > grounding_cap:
        if rng is None:
            rng = _derived_rng(0, "confidence", head_relation, body_relation)
        positions = positions[
            np.sort(rng.choice(positions.size, size=grounding_cap, replace=False))
        ]
    body_support = int(positions.size)
    last = kg.last_time_of(kg.sub[positions], head_relation, kg.obj[positions])
    rule_support = int(np.count_nonzero(kg.ts[positions] < last))
    confidence = rule_support / body_support
    return (body_support, rule_support, confidence)


def _mine_head(
    kg: TemporalKG, head_relation: int, params: MiningParams
) -> list[TemporalRule]:
    positions = kg.index_r.get(head_relation)
    if positions is None or positions.size == 0:
        return []
    candidates: list[int] = []
    seen: set[int] = set()
    for walk_index in range(params.num_walks):
        rng = _derived_rng(params.seed, "walk", head_relation, walk_index)
        head_edge = kg.quad_at(int(positions[int(rng.integers(positions.size))]))
        body = sample_walk(kg, head_edge, rng)
        if body is not None and body not in seen:
            seen.add(body)
            candidates.append(body)
    rules = []
    for body in candidates:
        # the stream only matters when the groundings get sampled
        capped = len(kg.index_r.get(body, ())) > params.grounding_cap
        conf_rng = _derived_rng(params.seed, "confidence", head_relation, body) if capped else None
        body_support, rule_support, confidence = estimate_confidence(
            kg, head_relation, body, params.grounding_cap, conf_rng
        )
        if body_support < params.min_body_support or rule_support < 1:
            continue
        rules.append(
            TemporalRule(head_relation, body, body_support, rule_support, confidence)
        )
    return rules


_WORKER_KG: Optional[TemporalKG] = None
_WORKER_PARAMS: Optional[MiningParams] = None


def _worker_init(kg: TemporalKG, params: MiningParams) -> None:
    global _WORKER_KG, _WORKER_PARAMS
    _WORKER_KG = kg
    _WORKER_PARAMS = params


def _worker_mine(head_relation: int) -> list[TemporalRule]:
    return _mine_head(_WORKER_KG, head_relation, _WORKER_PARAMS)


def learn_rules(kg: TemporalKG, params: MiningParams, workers: int = 1) -> RuleBank:
    """Mine rules for every relation present in the graph.

    Per head relation, params.num_walks head edges are drawn uniformly with
    replacement and each successful walk proposes a body relation; distinct
    proposals get a confidence estimate and survive when they meet
    min_body_support with at least one supporting grounding. The result is
    deterministic for a given (kg, params), independent of worker count.
    """
    if len(kg) == 0:
        raise ValueError("cannot mine rules from an empty graph")
    heads = sorted(r for r, positions in kg.index_r.items() if positions.size)
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(kg, params)
        ) as pool:
            per_head = list(pool.map(_worker_mine, heads, chunksize=8))
    else:
        per_head = [_mine_head(kg, head, params) for head in heads]
    rules_by_head = {
        head: rules for head, rules in zip(heads, per_head) if rules
    }
    return RuleBank(rules_by_head, params)
