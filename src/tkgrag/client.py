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
    max_new_tokens: int = 128
    num_sequences: int = 10
    temperature: float = 0.0
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.25
    in_flight: int = 8

    def __post_init__(self):
        if self.num_sequences < 1:
            raise ValueError("num_sequences must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.in_flight < 1:
            raise ValueError("in_flight must be >= 1")
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
    """Deterministic endpoint-free predictor used as the evaluation oracle.

    Each history fact about an object contributes the confidence of the rule
    linking its relation to the query relation, plus 1.0 when it carries the
    query relation itself. Ties break toward the candidate with the most
    recent supporting fact, then the lower entity id.

    Reads the history's query and its `rel`, `obj` and `ts` columns; each
    object's weights are summed in history order.
    """
    confidence_by_body = bank.plan_for(history.query.relation).confidence_by_body
    relations = history.rel.tolist()
    weight_of = {}
    for relation in set(relations):
        weight_of[relation] = confidence_by_body.get(relation, 0.0)
        if relation == history.query.relation:
            weight_of[relation] += 1.0
    scores: dict[int, float] = {}
    last_support: dict[int, int] = {}
    for relation, obj, t in zip(relations, history.obj.tolist(), history.ts.tolist()):
        weight = weight_of[relation]
        if weight <= 0.0:
            continue
        scores[obj] = scores.get(obj, 0.0) + weight
        if last_support.get(obj, -1) < t:
            last_support[obj] = t
    ranked = sorted(
        scores, key=lambda obj: (-scores[obj], -last_support[obj], obj)
    )[:MAX_RANKED]
    return PredictionList(ranked=tuple(ranked))
