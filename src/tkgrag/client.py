"""Completion-endpoint client, generation parsing, and the rule-score oracle.

Wire contract: POST JSON {"prompt", "max_new_tokens", "num_sequences",
"temperature"} to the endpoint, plus an integer "seed" when the run has one;
it answers {"sequences": [...]} in rank order or {"error": "..."}. Transport
failures (connection errors, timeouts, a response cut off mid-body) are
retried with exponential backoff up to the retry budget; endpoint-reported
errors and malformed responses are surfaced immediately as distinct
exceptions.
"""
from __future__ import annotations

import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence

import numpy as np

from .files import NonNegative, Positive, check_fields
from .kg import TemporalKG
from .prompts import Prompt
from .retrieval import RetrievedHistory
from .rules import RuleBank

ENDPOINT_ENV = "TKGRAG_ENDPOINT"
MAX_RANKED = 10


class ClientError(Exception):
    """Base class for completion-client failures."""


class TransportError(ClientError):
    """Network-level failure that persisted through the retry budget."""


class MalformedResponseError(ClientError):
    """The endpoint answered, but not with the documented response shape."""


class EndpointError(ClientError):
    """The endpoint reported an error payload or a failure status."""


@dataclass(frozen=True)
class GenParams:
    max_new_tokens: Positive = 128
    num_sequences: Positive = 10
    temperature: float = 0.0
    timeout: float = 30.0
    retries: NonNegative = 2
    backoff: float = 0.25
    in_flight: Positive = 8

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"timeout must be in (0, {threading.TIMEOUT_MAX}], "
                             f"got {self.timeout!r}")
        if not 0 <= self.backoff <= threading.TIMEOUT_MAX:
            raise ValueError(f"backoff must be in [0, {threading.TIMEOUT_MAX}], "
                             f"got {self.backoff!r}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature!r}")


@dataclass(frozen=True)
class PredictionList:
    """Distinct entity ids, best first, capped at 10."""

    json_keys: ClassVar[dict] = {"raw_texts": "raw"}

    ranked: tuple[int, ...]
    raw_texts: tuple[str, ...] = ()
    n_skipped: int = 0


def resolve_endpoint(explicit: Optional[str] = None) -> str:
    endpoint = explicit or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise ValueError(
            f"no endpoint given and {ENDPOINT_ENV} is not set"
        )
    return endpoint


def generate(
    prompt: Prompt | str,
    params: GenParams,
    endpoint: str,
    seed: Optional[int] = None,
) -> list[str]:
    """Request up to params.num_sequences completions, preserving the
    endpoint's rank order. Performs at most 1 + params.retries attempts.
    A `seed` is sent along for endpoints that sample."""
    import requests  # only requests to an endpoint pay for loading it

    text = prompt.text if isinstance(prompt, Prompt) else prompt
    payload = {
        "prompt": text,
        "max_new_tokens": params.max_new_tokens,
        "num_sequences": params.num_sequences,
        "temperature": params.temperature,
    }
    if seed is not None:
        payload["seed"] = seed
    last_exc: Optional[Exception] = None
    for attempt in range(1 + params.retries):
        if attempt:
            time.sleep(params.backoff * (2 ** (attempt - 1)))
        try:
            response = requests.post(endpoint, json=payload, timeout=params.timeout)
        except (requests.ConnectionError, requests.Timeout,
                requests.exceptions.ChunkedEncodingError) as exc:
            last_exc = exc
            continue
        try:
            body = response.json()
        except ValueError:
            body = None
        if isinstance(body, dict) and "error" in body:
            raise EndpointError(str(body["error"]))
        if response.status_code != 200:
            raise EndpointError(f"endpoint returned HTTP {response.status_code}")
        if body is None:
            raise MalformedResponseError("response body is not valid JSON")
        if (
            not isinstance(body, dict)
            or not isinstance(body.get("sequences"), list)
            or not all(isinstance(s, str) for s in body["sequences"])
        ):
            raise MalformedResponseError('response lacks a "sequences" string list')
        return body["sequences"][: params.num_sequences]
    raise TransportError(
        f"request failed after {1 + params.retries} attempts: {last_exc}"
    )


def generate_batch(
    prompts: Sequence[Prompt | str],
    params: GenParams,
    endpoint: str,
    seed: Optional[int] = None,
) -> list[list[str]]:
    """Dispatch requests with at most params.in_flight concurrently; results
    come back in prompt order regardless of completion order. The first
    failure stops the batch: no prompt is sent once a request has failed,
    and the error of the earliest failed prompt is raised when the requests
    still open have ended."""
    failed = threading.Event()

    def request(prompt):
        if failed.is_set():
            return None  # never sent; a failure is raised below
        try:
            return generate(prompt, params, endpoint, seed=seed)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=params.in_flight) as pool:
        futures = [pool.submit(request, prompt) for prompt in prompts]
    return [future.result() for future in futures]


_INDEXED_RE = re.compile(r"(\d+)\.(.+)", re.DOTALL)
_BARE_INDEX_RE = re.compile(r"(\d+)\.?")


def _clip(completion: str) -> str:
    head = completion.split("\n", 1)[0]
    bracket = head.find("]")
    if bracket >= 0:
        head = head[:bracket]
    return head.strip()


def parse_predictions(
    completions: Sequence[str], prompt: Prompt, kg: TemporalKG
) -> PredictionList:
    """Resolve completion strings to a ranked entity list.

    Each completion is clipped at the first "]" or newline and matched as
    "n.name" (index looked up in the prompt's map, name cross-checked),
    a bare index, or a bare entity name; names compare after space/underscore
    normalization. Unresolvable completions are skipped and counted.
    """
    reverse_map = {index: entity for entity, index in prompt.index_map.items()}
    by_name = kg.normalized_entity_ids
    ranked: list[int] = []
    skipped = 0
    for completion in completions:
        entity = _resolve(_clip(completion), reverse_map, by_name, kg)
        if entity is None:
            skipped += 1
        elif entity not in ranked:
            ranked.append(entity)
    return PredictionList(
        ranked=tuple(ranked[:MAX_RANKED]),
        raw_texts=tuple(completions),
        n_skipped=skipped,
    )


def _resolve(
    clipped: str,
    reverse_map: dict[int, int],
    by_name: dict[str, int],
    kg: TemporalKG,
) -> Optional[int]:
    if not clipped:
        return None
    match = _INDEXED_RE.fullmatch(clipped)
    if match:
        index, name = int(match.group(1)), match.group(2).strip()
        normalized = name.replace(" ", "_")
        if index in reverse_map:
            entity = reverse_map[index]
            if kg.display_names[0][entity] == normalized:
                return entity
        # fresh or mismatched index: the explicit name decides
        return by_name.get(normalized)
    match = _BARE_INDEX_RE.fullmatch(clipped)
    if match:
        return reverse_map.get(int(match.group(1)))
    return by_name.get(clipped.replace(" ", "_"))


def rule_score_predict(history: RetrievedHistory, bank: RuleBank) -> PredictionList:
    """The oracle's ranking of one history: `rule_scores([history], bank)[0]`."""
    return rule_scores([history], bank)[0]


def rule_scores(histories: Sequence[RetrievedHistory], bank: RuleBank) -> list[PredictionList]:
    """Deterministic endpoint-free predictor used as the evaluation oracle,
    one ranking per history.

    Each history fact about an object contributes the confidence of the rule
    linking its relation to the query relation, plus 1.0 when it carries the
    query relation itself (the head's `HeadPlan.weights`); facts of weight 0
    count for nothing. Candidates rank by total weight, ties toward the one
    with the most recent supporting fact, then the lower entity id.

    The chunk is scored at once from its concatenated `rel`, `obj` and `ts`
    columns. A stable sort by (history, object) keeps each object's facts in
    history order, so `np.bincount` adds their weights in the order a running
    sum over the history would; the latest support is the group's maximum t,
    as a history need not ascend in t.
    """
    if not histories:
        return []
    rows = [bank.plan_for(history.query.relation).weights for history in histories]
    query = np.repeat(np.arange(len(histories)), [len(history) for history in histories])
    rel = np.concatenate([history.rel for history in histories])
    # every history's row end to end; a relation past its row reads the last 0
    sizes = np.array([len(row) for row in rows])
    flat = np.concatenate([*rows, [0.0]])
    weight = flat[np.where(rel < sizes[query], (sizes.cumsum() - sizes)[query] + rel, -1)]
    kept = weight > 0
    obj = np.concatenate([history.obj for history in histories])[kept]
    ts = np.concatenate([history.ts for history in histories])[kept]
    # one (history, object) key per fact (ids are >= 0), grouped by a stable sort
    width = obj.max(initial=0) + 1
    key = query[kept] * width + obj
    order = key.argsort(kind="stable")
    key, ts, weight = key[order], ts[order], weight[kept][order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    starts = new.nonzero()[0]
    score = np.bincount(new.cumsum() - 1, weight)
    latest = np.maximum.reduceat(ts, starts) if len(starts) else ts
    query, obj = np.divmod(key[starts], width)
    # objects ascend within each history, and the sort keeps their order
    ranked = np.lexsort((-latest, -score, query))
    # the first MAX_RANKED candidates of each history
    objects = obj[ranked].tolist()
    ends = np.bincount(query, minlength=len(histories)).cumsum().tolist()
    return [PredictionList(ranked=tuple(objects[a:min(b, a + MAX_RANKED)]))
            for a, b in zip([0, *ends[:-1]], ends)]
