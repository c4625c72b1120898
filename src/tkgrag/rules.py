"""Length-1 temporal rule mining via time-respecting random walks.

A rule pairs a head relation with a body relation: whenever the body holds
between two entities at T1, the rule claims the head holds between the same
entities at some later T2. Confidence is the fraction of body groundings for
which that claim is true in the graph.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Sequence

import numpy as np

from .files import atomic_write, fields_of, json_fields, open_input, parse_json, typed
from .kg import Quadruple, TemporalKG, check_ids


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
    json_keys: ClassVar[dict] = {"head_relation": "head", "body_relation": "body"}

    head_relation: int
    body_relation: int
    body_support: int
    rule_support: int
    confidence: float

    def __post_init__(self):
        if min(self.head_relation, self.body_relation) < 0:
            raise ValueError("head_relation and body_relation must be >= 0")
        if not (0 < self.rule_support <= self.body_support):
            raise ValueError("rule_support must be in [1, body_support]")
        if abs(self.confidence - self.rule_support / self.body_support) > 1e-9:
            raise ValueError("confidence must equal rule_support / body_support")


@dataclass(frozen=True)
class Provenance:
    """Why a fact was retrieved: rank 0 is a query-relation (rule-head) fact,
    rank i >= 1 is the i-th rule body in bank order, with that rule's body
    relation and confidence."""

    rank: int
    body_relation: Optional[int] = None
    confidence: Optional[float] = None

    def __post_init__(self):
        head = self.rank == 0
        if (self.body_relation is None, self.confidence is None) != (head, head):
            raise ValueError("body_relation and confidence are set exactly when rank >= 1")
        if self.rank < 0 or self.rank and not (self.body_relation >= 0 and 0 < self.confidence <= 1):
            raise ValueError("rank and body_relation must be >= 0, confidence in (0, 1]")

    def as_dict(self) -> dict:
        return {"kind": "rule-body" if self.rank else "rule-head", **json_fields(self)}


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
        rules = [json_fields(rule) for head in sorted(self.rules_by_head)
                 for rule in self.rules_by_head[head]]
        return json.dumps({"params": json_fields(self.params), "rules": rules}, indent=2)

    @classmethod
    def from_json(cls, text: str, n_relations: Optional[int] = None) -> "RuleBank":
        """The bank `to_json` wrote. A missing or malformed field raises
        ValueError naming it (`files.fields_of`); so do a params key that
        `MiningParams` lacks, a repeated key and, when `n_relations` is
        given, a head or body id outside [0, n_relations)."""
        payload = parse_json(text)
        if not isinstance(payload, dict):
            raise ValueError('a rule bank is a JSON object with "params" and "rules"')
        try:
            params = fields_of(MiningParams, payload["params"], "params", closed=True)
            rules = typed(tuple[TemporalRule, ...], payload["rules"], "rules")
        except KeyError as exc:
            raise ValueError(f"rule bank: missing field {exc}") from None
        if n_relations is not None:
            for i, rule in enumerate(rules):
                check_ids(f"rules[{i}].head", rule.head_relation, n_relations)
                check_ids(f"rules[{i}].body", rule.body_relation, n_relations)
        by_head: dict[int, list[TemporalRule]] = {}
        for rule in rules:
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
    def load(cls, path: str, n_relations: Optional[int] = None,
             data: Optional[bytes] = None) -> "RuleBank":
        """`from_json` of the file at `path` (`open_input`), read as UTF-8
        text, its errors prefixed with the path; `data`, when given, is the
        file's bytes as the caller already read them."""
        if data is None:
            with open_input(path) as fh:
                data = fh.read()
        try:
            return cls.from_json(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(),
                                 n_relations)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def _rule_sort_key(rule: TemporalRule):
    return (-rule.confidence, -rule.rule_support, rule.body_relation)


def _derived_seed(*material) -> int:
    return _token_seed("/".join(map(str, material)).encode())


def _token_seed(token: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(token, digest_size=8).digest(), "big")


def _derived_rng(*material) -> np.random.Generator:
    """Independent, reproducible stream per (seed, ...) tuple. Streams do not
    depend on how many other streams exist, so adding walks never perturbs
    earlier ones."""
    return np.random.default_rng(_derived_seed(*material))


# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) that `np.random.default_rng(seed)` starts
    from, for every seed in [0, 2**64).

    SeedSequence hashes a seed's little-endian 32-bit words into a pool of
    four and draws four 64-bit words from the pool. That runs here on all
    seeds at once in uint32 arrays; a seed below 2**32 has one word, and
    the words it lacks hash as zeros would. PCG64 then seeds its 128-bit
    LCG from the words, in Python ints: inc = (stream << 1) | 1, one step
    from state 0, add the initial state, one more step.
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & 0xFFFFFFFF
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    seeds = np.asarray(seeds, dtype=np.uint64)
    low, high = seeds.astype(u32), (seeds >> np.uint64(32)).astype(u32)
    pool = [hashmix(word) for word in (low, high, 0 * low, 0 * low)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = u32(_MIX_MULT_L) * pool[dst] - u32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> u32(16))
    hash_const = _INIT_B
    state_words = []
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = hash_const * _MULT_B & 0xFFFFFFFF
        value = value * u32(hash_const)
        state_words.append(value ^ (value >> u32(16)))
    states = []
    for s_hi, s_lo, i_hi, i_lo in np.stack(state_words, axis=1).astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append((state, inc))
    return states


def _walk_seeds(seed: int, head_relation: int, num_walks: int) -> list[int]:
    """`_derived_seed(seed, "walk", head_relation, walk_index)` of each of a
    head's walks, the token prefix they share encoded once."""
    prefix = "/".join(map(str, (seed, "walk", head_relation, ""))).encode()
    return [_token_seed(b"%s%d" % (prefix, walk_index)) for walk_index in range(num_walks)]


def _pcg64_step(state: int, inc: int) -> tuple[int, int]:
    """PCG64's next 128-bit LCG state and the 64-bit output it gives
    (XSL-RR: the state's halves xor-ed, rotated right by its top 6 bits)."""
    state = (state * _PCG64_MULT + inc) & _MASK128
    word = ((state >> 64) ^ state) & _MASK64
    rot = state >> 122
    return state, (word >> rot | word << (64 - rot)) & _MASK64


def _walk_draws(state: int, inc: int, n: int) -> tuple[int, float]:
    """What `Generator.integers(n)` and then `.random()` return on a fresh
    `Generator(PCG64)` at (state, inc), without building one.

    `integers(n)` is numpy's unmasked Lemire draw: a draw times n, whose
    high bits are the pick unless its low bits fall under (2**bits - n) % n,
    when it draws again. For n <= 2**32 the draws are 32 bits, the low half
    of an output and then its buffered high half; above, whole outputs; for
    n == 1 there is no draw. `random()` is the next whole output's top 53
    bits times 2**-53. Only the bit generator's outputs are used, and NEP 19
    keeps those fixed across numpy versions.
    """
    pick = 0
    if n > 1:
        bits = 32 if n <= 1 << 32 else 64
        low = (1 << bits) - 1
        threshold = ((1 << bits) - n) % n
        draws: list[int] = []  # draws of the current output, the next one last
        while True:
            if not draws:
                state, word = _pcg64_step(state, inc)
                draws = [word >> 32, word & low] if bits == 32 else [word]
            product = draws.pop() * n
            if product & low >= threshold:
                break
        pick = product >> bits
    state, word = _pcg64_step(state, inc)
    return pick, (word >> 11) * 2.0**-53


def sample_walk(kg: TemporalKG, head_edge: Quadruple, u: float) -> Optional[int]:
    """One time-respecting walk step from a head edge back to its subject.

    Candidates are edges from the head's object back to the head's subject at
    a strictly earlier time step. Returns the body relation id of the
    candidate that the uniform draw `u` in [0, 1) picks, or None when no
    candidate closes the cycle. On an inverse-augmented graph the sampled edge
    points opposite to the head, so its relation is mapped to the inverse id
    to read in the head's direction. `head_edge` must be an edge of `kg`;
    that is not checked.

    The pick takes the float operations of `Generator.choice(size, p=probs)`
    with the recency law's probabilities (`conftest.transition_weights` in
    the tests) and `u` as its `random()` draw: weights `exp(t_u - t_last)`
    (candidates ascend in t, so the last is the latest), divide by their
    sum, cumulative sum, normalise by its last element and
    `searchsorted(u, "right")`.
    """
    positions = kg.returning_positions(head_edge.object, head_edge.subject, head_edge.t)
    if positions.size == 0:
        return None
    times = kg.ts[positions]
    last = times[-1]
    if last >= head_edge.t:
        raise ValueError("candidate timestamp not strictly before current time")
    pick = 0
    if positions.size > 1:
        w = np.exp(times - last)  # float64: the differences are int64
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        pick = int(cdf.searchsorted(u, "right"))
    walked = int(kg.rel[positions[pick]])
    inverse = kg.inverse_of(walked)
    return walked if inverse is None else inverse


def last_head_times(kg: TemporalKG, head_relation: int) -> np.ndarray:
    """Per (subject, object) pair id of `kg.pair_ids()`, the latest time step
    at which the pair carries the head relation, or -1. Sized to the edge
    count, which bounds the pair ids."""
    last = np.full(len(kg), -1, dtype=np.int64)
    positions = kg.relation_positions(head_relation)
    if positions.size:
        last[kg.pair_ids()[positions]] = kg.last_time_of(
            kg.sub[positions], head_relation, kg.obj[positions]
        )
    return last


def estimate_confidence(
    kg: TemporalKG,
    head_relation: int,
    body_relation: int,
    grounding_cap: int,
    seed: int = 0,
    head_last: Optional[np.ndarray] = None,
) -> tuple[int, int, float]:
    """(body_support, rule_support, confidence) for one head/body pair.

    Body groundings are enumerated exhaustively up to grounding_cap; beyond
    the cap a uniform sample of grounding_cap groundings is scored instead,
    making the confidence an unbiased estimate. The sample is drawn from
    `_derived_rng(seed, "confidence", head_relation, body_relation)`. A
    grounding counts toward rule support when the same (subject, object)
    pair carries the head relation at any strictly later time step.
    `head_last` is the head's `last_head_times` table, built here when not
    given.
    """
    if grounding_cap < 1:
        raise ValueError("grounding_cap must be >= 1")
    positions = kg.relation_positions(body_relation)
    if positions.size == 0:
        return (0, 0, 0.0)
    if positions.size > grounding_cap:
        rng = _derived_rng(seed, "confidence", head_relation, body_relation)
        positions = positions[
            np.sort(rng.choice(positions.size, size=grounding_cap, replace=False))
        ]
    if head_last is None:
        head_last = last_head_times(kg, head_relation)
    body_support = int(positions.size)
    last = head_last[kg.pair_ids()[positions]]
    rule_support = int(np.count_nonzero(kg.ts[positions] < last))
    confidence = rule_support / body_support
    return (body_support, rule_support, confidence)


def _mine_head(
    kg: TemporalKG, head_relation: int, params: MiningParams
) -> list[TemporalRule]:
    positions = kg.relation_positions(head_relation)
    if positions.size == 0:
        return []
    subjects, objects, times = (column[positions].tolist() for column in (kg.sub, kg.obj, kg.ts))
    candidates: list[int] = []
    seen: set[int] = set()
    seeds = _walk_seeds(params.seed, head_relation, params.num_walks)
    for state, inc in _pcg64_states(seeds):
        pick, u = _walk_draws(state, inc, positions.size)
        head_edge = Quadruple(subjects[pick], head_relation, objects[pick], times[pick])
        body = sample_walk(kg, head_edge, u)
        if body is not None and body not in seen:
            seen.add(body)
            candidates.append(body)
    if not candidates:
        return []
    head_last = last_head_times(kg, head_relation)
    rules = []
    for body in candidates:
        body_support, rule_support, confidence = estimate_confidence(
            kg, head_relation, body, params.grounding_cap, params.seed, head_last
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
    deterministic for a given (kg, params), independent of worker count;
    mining is CPU-bound, so at most `os.cpu_count()` processes are started.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if len(kg) == 0:
        raise ValueError("cannot mine rules from an empty graph")
    heads = np.unique(kg.rel).tolist()
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools load multiprocessing

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
