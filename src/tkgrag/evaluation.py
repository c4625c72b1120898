"""Time-aware filtered Hits@k evaluation and ablation grids.

The filter removes, from a ranked prediction list, every entity other than
the gold answer that is also a true object for the same (subject, relation,
time step) anywhere in the dataset, so alternative correct answers never
penalize the gold's rank.
"""
from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Protocol, Sequence

from .client import (
    GenParams,
    PredictionList,
    generate_batch,
    parse_predictions,
    rule_scores,
)
from .files import NonNegative, fields_of, journal, json_fields, write_json
from .kg import Dataset, TemporalKG
from .prompts import Prompt, PromptConfig, build_prompt, select_history
from .retrieval import (
    Query,
    RetrievalConfig,
    RetrievedHistory,
    retrieve,
)
from .rules import RuleBank

HITS_LEVELS = (1, 3, 10)
ABLATION_HISTORY_LENGTHS = (10, 20, 30, 40, 50)
# queries retrieved, predicted and journaled together (`_forecast`)
CHUNK_SIZE = 32

def build_filter_index(
    dataset: Dataset, splits: Sequence[str] = ("train", "valid", "test")
) -> TemporalKG:
    """The union graph of the given splits. A base query's (subject,
    relation, t) key range in it holds exactly the base edges of those
    splits, every true object of the query: inverse edges carry relation ids
    from num_base_relations up."""
    return dataset.union_kg(splits)


def time_aware_filter(
    ranked: Sequence[int], query: Query, filter_index: Optional[TemporalKG]
) -> list[int]:
    """Drop co-true objects at the query's own time step, never its gold.
    Only base edges filter: without a filter index, or for an inverse
    relation, nothing is dropped."""
    if filter_index is None or query.relation >= filter_index.num_base_relations:
        return list(ranked)
    at = filter_index.positions_at(query.subject, query.relation, query.t)
    others = filter_index.obj[at].tolist()
    gold = query.gold_object
    return [obj for obj in ranked if obj == gold or obj not in others]


@dataclass(frozen=True)
class EvalRecord:
    query: Query
    predictions: tuple[int, ...]
    rank: Optional[int]
    n_skipped: NonNegative = 0
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return json_fields(self)


def hits_at_k(records: Sequence[EvalRecord], k: int) -> float:
    """Fraction of records whose gold rank is within k; no rank counts as a
    miss."""
    if k not in HITS_LEVELS:
        raise ValueError(f"k must be one of {HITS_LEVELS}")
    if not records:
        raise ValueError("empty record set")
    hit = sum(1 for r in records if r.rank is not None and r.rank <= k)
    return hit / len(records)


@dataclass(frozen=True)
class EvalReport:
    hits1: float
    hits3: float
    hits10: float
    n_queries: int
    n_unparsed: int
    fingerprint: str = ""

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "hits": {"1": self.hits1, "3": self.hits3, "10": self.hits10},
            "n_queries": self.n_queries,
            "n_unparsed": self.n_unparsed,
        }


def report_from_records(records: Sequence[EvalRecord], fingerprint: str = "") -> EvalReport:
    return EvalReport(
        hits1=hits_at_k(records, 1),
        hits3=hits_at_k(records, 3),
        hits10=hits_at_k(records, 10),
        n_queries=len(records),
        n_unparsed=sum(r.n_skipped for r in records),
        fingerprint=fingerprint,
    )


class Predictor(Protocol):
    def predict_batch(
        self, items: Sequence[tuple[RetrievedHistory, Prompt]]
    ) -> list[PredictionList]: ...


class OraclePredictor:
    """Endpoint-free predictor scoring candidates by rule confidence."""

    def __init__(self, bank: RuleBank):
        self.bank = bank

    def predict_batch(self, items) -> list[PredictionList]:
        return rule_scores([history for history, _prompt in items], self.bank)


@dataclass(frozen=True)
class LLMPredictor:
    """Predictor backed by a completion endpoint speaking the wire contract;
    `seed`, when set, goes out with every request."""

    kg: TemporalKG
    endpoint: str
    params: GenParams = GenParams()
    seed: Optional[int] = None

    def predict_batch(self, items) -> list[PredictionList]:
        return self.predict_prompts([prompt for _history, prompt in items])

    def predict_prompts(self, prompts: Sequence[Prompt]) -> list[PredictionList]:
        """One request per prompt, each generation parsed against its
        prompt."""
        completions = generate_batch(prompts, self.params, self.endpoint, seed=self.seed)
        return [
            parse_predictions(seqs, prompt, self.kg)
            for seqs, prompt in zip(completions, prompts)
        ]


def _gold_rank(query: Query, ranked: Sequence[int]) -> Optional[int]:
    """The 1-based position of the query's gold in `ranked`, if there."""
    return ranked.index(query.gold_object) + 1 if query.gold_object in ranked else None


def _check_queries(queries: Sequence[Query]) -> None:
    """ValueError unless there are queries and each has a gold object."""
    if not queries:
        raise ValueError("empty evaluation set")
    if any(q.gold_object is None for q in queries):
        raise ValueError("every evaluation query needs a gold object")


def _forecast(
    kg: TemporalKG, bank: RuleBank, queries: Sequence[Query], indices: Sequence[int],
    cells: Sequence[tuple[PromptConfig, str]], predictor: Predictor,
    retrieval_cfg: RetrievalConfig, filter_index: Optional[TemporalKG],
) -> Iterator[tuple[Sequence[int], list[list[EvalRecord]]]]:
    """The one forecast loop. Per chunk of `CHUNK_SIZE` of the query
    `indices`, retrieve each query once; then, per cell, a (prompt config,
    fingerprint) pair, cap, prompt, predict (one batch of the chunk), filter
    and rank. Yields the chunk and each cell's records for it, in order."""
    for start in range(0, len(indices), CHUNK_SIZE):
        chunk = indices[start : start + CHUNK_SIZE]
        histories = [retrieve(kg, bank, queries[i], retrieval_cfg) for i in chunk]
        by_cell = []
        for prompt_cfg, fingerprint in cells:
            selected = [select_history(h, prompt_cfg, retrieval_cfg) for h in histories]
            items = [(history, build_prompt(history, prompt_cfg, kg)) for history in selected]
            records = []
            for history, prediction in zip(selected, predictor.predict_batch(items)):
                query = history.query
                filtered = time_aware_filter(prediction.ranked, query, filter_index)
                records.append(EvalRecord(query, tuple(filtered), _gold_rank(query, filtered),
                                          prediction.n_skipped, fingerprint))
            by_cell.append(records)
        yield chunk, by_cell


def _journal_row(fingerprint: str, queries: Sequence[Query],
                 payload: dict) -> tuple[int, EvalRecord]:
    """A journal row of an earlier run over `queries` as (index, record): it
    must be written under `fingerprint` and carry an index into `queries`,
    that query, and the rank of its gold among its predictions."""
    record, index = fields_of(EvalRecord, payload), payload["index"]
    if record.fingerprint != fingerprint:
        raise ValueError(f"fingerprint: the journal was written under fingerprint "
                         f"{record.fingerprint!r}, current is {fingerprint!r}")
    if type(index) is not int or not 0 <= index < len(queries):
        raise ValueError(f"index: expected an int in [0, {len(queries)}), got {index!r}")
    if record.query != queries[index]:
        raise ValueError(f"query: expected {json_fields(queries[index])}, "
                         f"got {payload['query']!r}")
    rank = _gold_rank(record.query, record.predictions)
    if record.rank != rank:
        raise ValueError(f"rank: expected {rank!r}, got {record.rank!r}")
    return index, record


def run_eval(
    kg: TemporalKG,
    bank: RuleBank,
    queries: Sequence[Query],
    predictor: Predictor,
    retrieval_cfg: RetrievalConfig = RetrievalConfig(),
    prompt_cfg: PromptConfig = PromptConfig(),
    filter_index: Optional[TemporalKG] = None,
    out_dir: Optional[str] = None,
    fingerprint: str = "",
) -> tuple[EvalReport, list[EvalRecord]]:
    """Retrieve, prompt, predict, filter, and aggregate over all queries.

    With out_dir set, per-query records stream into a journal as they finish;
    re-running with the same fingerprint skips completed queries, so an
    interrupted run resumes to the identical final report.
    """
    _check_queries(queries)

    journaled = (journal(os.path.join(out_dir, "records.jsonl"),
                         lambda row: _journal_row(fingerprint, queries, row))
                 if out_dir else nullcontext(([], lambda rows: None)))
    with journaled as (rows, append):
        completed = dict(rows)
        pending = [i for i in range(len(queries)) if i not in completed]
        for chunk, (records,) in _forecast(kg, bank, queries, pending, [(prompt_cfg, fingerprint)],
                                           predictor, retrieval_cfg, filter_index):
            completed.update(zip(chunk, records))
            append({"index": i, **record.as_dict()} for i, record in zip(chunk, records))

    records = [completed[i] for i in range(len(queries))]
    report = report_from_records(records, fingerprint)
    if out_dir:
        write_json(os.path.join(out_dir, "report.json"), report.as_dict())
    return report, records


@dataclass(frozen=True)
class AblationCell:
    order: str
    history_length: int
    format: str
    report: EvalReport


def ablation_run(
    kg: TemporalKG,
    bank: RuleBank,
    queries: Sequence[Query],
    orders: Sequence[str],
    history_lengths: Sequence[int],
    formats: Sequence[str],
    predictor: Predictor,
    retrieval_cfg: RetrievalConfig = RetrievalConfig(),
    filter_index: Optional[TemporalKG] = None,
    base_prompt_cfg: PromptConfig = PromptConfig(),
    fingerprint: str = "",
) -> list[AblationCell]:
    """One report per (order, history length, format) cell. Retrieval runs
    once per query and is shared across all cells; every cell's config is
    built before the first retrieval."""
    _check_queries(queries)
    if not orders or not history_lengths or not formats:
        raise ValueError("empty ablation grid")
    bad = [n for n in history_lengths if n not in ABLATION_HISTORY_LENGTHS]
    if bad:
        raise ValueError(
            f"history lengths {bad} outside supported {ABLATION_HISTORY_LENGTHS}"
        )
    if max(history_lengths) > retrieval_cfg.max_history:
        raise ValueError("history length exceeds retrieval max_history")

    cells = [(replace(base_prompt_cfg, format=fmt, order=order, max_facts=length),
              f"{fingerprint}/{order}/{length}/{fmt}" if fingerprint else "")
             for order in orders for length in history_lengths for fmt in formats]
    records: list[list[EvalRecord]] = [[] for _ in cells]
    for _chunk, by_cell in _forecast(kg, bank, queries, range(len(queries)), cells, predictor,
                                     retrieval_cfg, filter_index):
        for kept, new in zip(records, by_cell):
            kept.extend(new)
    return [AblationCell(cfg.order, cfg.max_facts, cfg.format, report_from_records(kept, tag))
            for (cfg, tag), kept in zip(cells, records)]


def ablation_summary(cells: Sequence[AblationCell]) -> str:
    """Tab-separated summary table, one row per cell."""
    lines = ["order\thistory_length\tformat\thits@1\thits@3\thits@10\tn_queries"]
    for cell in cells:
        r = cell.report
        lines.append(
            f"{cell.order}\t{cell.history_length}\t{cell.format}"
            f"\t{r.hits1:.4f}\t{r.hits3:.4f}\t{r.hits10:.4f}\t{r.n_queries}"
        )
    return "\n".join(lines) + "\n"
