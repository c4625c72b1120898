"""Prompt rendering and instruction-tuning dataset export.

History facts render one per line as `t:[subject, relation, n.object]` (index
form) or `t:[subject, relation, object]` (lexical form), followed by the
incomplete query line `t:[subject, relation,` that the model must finish.
Index form maps each distinct object to a small integer in order of first
appearance over the rendered lines.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .files import json_fields, write_jsonl
from .kg import Dataset, TemporalKG
from .retrieval import (
    RetrievalConfig,
    RetrievedHistory,
    queries_from_split,
    retrieve,
)
from .rules import RuleBank

DEFAULT_INSTRUCTION = (
    "You must predict the missing object entity at the end of the last "
    "quadruplet. Each fact has the form time:[subject, relation, index.object]. "
    "Respond with index.object only."
)

FORMATS = ("index", "lexical")
ORDERS = ("ascending", "descending", "random", "timestamps-removed")


@dataclass(frozen=True)
class PromptConfig:
    format: str = "index"
    order: str = "ascending"
    order_seed: int = 0
    max_facts: Optional[int] = None
    instruction: str = DEFAULT_INSTRUCTION
    char_budget: int = 12000

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if self.order not in ORDERS:
            raise ValueError(f"order must be one of {ORDERS}")
        if self.max_facts is not None and self.max_facts < 0:
            raise ValueError("max_facts must be >= 0")
        if self.char_budget < 1:
            raise ValueError("char_budget must be >= 1")


@dataclass(frozen=True)
class Prompt:
    """Rendered text plus the candidate-object index map (index format only;
    empty for lexical). text always ends with query_prefix."""

    text: str
    index_map: dict[int, int] = field(default_factory=dict)
    query_prefix: str = ""
    format: str = "index"


@dataclass(frozen=True)
class InstructionSample:
    instruction: str
    input: str
    output: str


def select_history(
    history: RetrievedHistory, cfg: PromptConfig, retrieval_cfg: RetrievalConfig
) -> RetrievedHistory:
    """Apply the prompt-level fact cap, replaying the priority of the
    retrieval config `retrieval_cfg` that retrieved `history` (query-relation
    facts, then rule groups by confidence, most recent first within a group;
    when stepwise, nearer window spans before all of that), then restore
    canonical ascending order. This is the only place a history is capped.

    Both orders are one stable `np.lexsort` over the history's columns: the
    priority sorts by (span, rank, -t, -object), the canonical order of the
    kept facts by (t, rank, object)."""
    if cfg.max_facts is None or len(history) <= cfg.max_facts:
        return history
    ts, obj = history.ts, history.obj
    ranks = np.array([prov.rank for prov in history.sources], dtype=np.int64)[history.codes]
    keys = [-obj, -ts, ranks]
    if retrieval_cfg.stepwise:
        window = retrieval_cfg.window or max(history.query.t, 1)
        keys.append((history.query.t - 1 - ts) // window)
    kept = np.lexsort(keys)[: cfg.max_facts]
    return history.take(kept[np.lexsort((obj[kept], ranks[kept], ts[kept]))])


def _rendered_sequence(history: RetrievedHistory, cfg: PromptConfig) -> list[tuple]:
    """The history's (subject, relation, object, t) rows in prompt order."""
    columns = (history.sub, history.rel, history.obj, history.ts)
    rows = list(zip(*(column.tolist() for column in columns)))
    if cfg.order == "descending":
        rows.reverse()
    elif cfg.order == "random":
        random.Random(cfg.order_seed).shuffle(rows)
    return rows


def build_prompt(history: RetrievedHistory, cfg: PromptConfig, kg: TemporalKG) -> Prompt:
    """Render every fact of one history into the full prompt string; a fact
    cap is `select_history`'s, applied before.

    Entity and relation names have internal spaces replaced by underscores.
    The trailing query line carries no object and no trailing space, e.g.
    `334:[Abdul, Make_an_appeal_or_request,`.
    """
    with_time = cfg.order != "timestamps-removed"

    entities, relations = kg.display_names
    index_map: dict[int, int] = {}
    lines: list[str] = []
    for subject, relation, obj, t in _rendered_sequence(history, cfg):
        name = entities[obj]
        if cfg.format == "index":
            name = f"{index_map.setdefault(obj, len(index_map))}.{name}"
        prefix = f"{t}:" if with_time else ""
        lines.append(f"{prefix}[{entities[subject]}, {relations[relation]}, {name}]\n")

    query = history.query
    q_prefix = f"{query.t}:" if with_time else ""
    query_line = f"{q_prefix}[{entities[query.subject]}, {relations[query.relation]},"

    text = cfg.instruction + "\n" + "".join(lines) + query_line
    return Prompt(text=text, index_map=index_map, query_prefix=query_line, format=cfg.format)


def make_instruction_sample(
    history: RetrievedHistory, cfg: PromptConfig, kg: TemporalKG
) -> InstructionSample:
    """Split a prompt into (instruction, input, output) with the gold
    completion as output. Unseen gold objects get the next fresh index."""
    gold = history.query.gold_object
    if gold is None:
        raise ValueError("query has no gold object")
    prompt = build_prompt(history, cfg, kg)
    gold_name = kg.display_names[0][gold]
    if cfg.format == "index":
        index = prompt.index_map.get(gold, len(prompt.index_map))
        output = f"{index}.{gold_name}]"
    else:
        output = f"{gold_name}]"
    return InstructionSample(
        instruction=cfg.instruction,
        input=prompt.text[len(cfg.instruction):],
        output=output,
    )


def sample_fewshot(n_train_queries: int, k: int, seed: int) -> list[int]:
    """k distinct query indices drawn uniformly without replacement, returned
    ascending so the exported set preserves temporal order."""
    if not 1 <= k <= n_train_queries:
        raise ValueError(
            f"k must be in [1, {n_train_queries}], got {k}"
        )
    return sorted(random.Random(seed).sample(range(n_train_queries), k))


def export_finetune_set(
    dataset: Dataset,
    bank: RuleBank,
    k: int,
    retrieval_cfg: RetrievalConfig,
    prompt_cfg: PromptConfig,
    seed: int,
    out_path: str,
) -> dict:
    """Write k instruction samples drawn from the training split as JSON lines
    and return {"n_samples", "over_char_budget"}: how many were written and
    how many exceed the prompt's character budget.

    Retrieval for each sampled query runs against the training split only and
    sees nothing at or after the query's own time step.
    """
    train_kg = dataset.train
    queries = queries_from_split(dataset, "train")
    indices = sample_fewshot(len(queries), k, seed)

    over_budget = 0

    def samples():
        nonlocal over_budget
        for index in indices:
            history = retrieve(train_kg, bank, queries[index], retrieval_cfg)
            history = select_history(history, prompt_cfg, retrieval_cfg)
            sample = make_instruction_sample(history, prompt_cfg, train_kg)
            if len(sample.instruction) + len(sample.input) + len(sample.output) > prompt_cfg.char_budget:
                over_budget += 1
            yield json_fields(sample)

    n_samples = write_jsonl(out_path, samples())
    return {"n_samples": n_samples, "over_char_budget": over_budget}
