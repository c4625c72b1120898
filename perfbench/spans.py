"""Spans recorded from outside the package, at the boundaries of its layers.

The traced run replaces module attributes that callers look up at call time
with wrappers that record a span (name, start, end, parent, query id) and a
few counts, then restores them. Spans stay in memory until the run ends.
Nothing under `src/` knows about any of this.
"""
from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from tkgrag import cli, evaluation, kg, prompts, retrieval, rules
from tkgrag.retrieval import RetrievalConfig

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counts: Counter = Counter()
        self.prompt_chars: list[int] = []
        self.candidates: set[tuple[int, int]] = set()
        self._stack: list[int] = []

    def open(self, name: str, qid=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, now(), 0.0, parent, qid]
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, name, fn, after=None, qid=None):
        """`fn` recording one span per call; `after(result, args, kwargs)`
        records counts once the call has returned."""

        def traced(*args, **kwargs):
            span = self.open(name, qid(args) if qid else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, qid in self.spans:
                fh.write(json.dumps([name, start, end, parent, qid]) + "\n")


class TimingPredictor:
    """Predictor wrapper recording one `client.predict` span per batch."""

    def __init__(self, tracer: Tracer, inner):
        self.tracer = tracer
        self.inner = inner

    def predict_batch(self, items):
        span = self.tracer.open("client.predict")
        try:
            predictions = self.inner.predict_batch(items)
        finally:
            self.tracer.close(span)
        self.tracer.counts["client.predictions"] += len(predictions)
        self.tracer.counts["client.unparsed"] += sum(p.n_skipped for p in predictions)
        return predictions


def _query_id(query):
    return (query.subject, query.relation, query.t)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced boundary for the duration of the block."""
    counts = tracer.counts
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(owner, attr, name, after=None, qid=None):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), after, qid))

    # rules
    def after_walk(body, args, _kwargs):
        if body is not None:
            counts["rules.walks_closed"] += 1
            tracer.candidates.add((args[1].relation, body))

    def after_confidence(result, _args, _kwargs):
        counts["rules.groundings"] += result[0]

    def after_mine(bank, _args, _kwargs):
        counts["rules.kept"] += len(bank)

    wrap(rules, "sample_walk", "rules.walk", after_walk)
    wrap(rules, "estimate_confidence", "rules.confidence", after_confidence)
    wrap(rules, "learn_rules", "rules.mine", after_mine)

    # kg: every build, plus the first call of each lazily indexed lookup on
    # each fresh graph; later calls go straight to the method.
    build = kg.TemporalKG.__init__

    def first_call(graph, method: str, name: str):
        def timed_once(*args):
            del graph.__dict__[method]
            span = tracer.open(name)
            try:
                return getattr(graph, method)(*args)
            finally:
                tracer.close(span)

        setattr(graph, method, timed_once)

    def traced_build(graph, *args, **kwargs):
        span = tracer.open("kg.build")
        try:
            build(graph, *args, **kwargs)
        finally:
            tracer.close(span)
        counts["kg.edges"] += len(graph)
        first_call(graph, "returning_positions", "kg.index_so")
        first_call(graph, "last_time_of", "kg.last_time")

    patch(kg.TemporalKG, "__init__", traced_build)
    wrap(kg.Dataset, "union_kg", "kg.union")
    wrap(kg, "load_dataset", "kg.load")
    wrap(cli, "load_dataset", "kg.load")

    # retrieval, from each module that imported it
    def after_retrieve(history, args, kwargs):
        cfg = args[3] if len(args) > 3 else kwargs.get("cfg", RetrievalConfig())
        counts["retrieval.facts"] += len(history.facts)
        counts["retrieval.capacity"] += cfg.max_history
        counts["retrieval.rank0"] += sum(1 for p in history.provenance if p.rank == 0)

    for owner in (retrieval, evaluation, prompts):
        wrap(owner, "retrieve", "retrieval.retrieve", after_retrieve,
             lambda args: _query_id(args[2]))

    # prompts
    def after_build(prompt, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        tracer.prompt_chars.append(len(prompt.text))
        counts["prompts.over_budget"] += len(prompt.text) > cfg.char_budget

    wrap(evaluation, "select_history", "prompts.select",
         qid=lambda args: _query_id(args[0].query))
    for owner in (evaluation, prompts, cli):
        wrap(owner, "build_prompt", "prompts.build", after_build,
             lambda args: _query_id(args[0].query))
    wrap(cli, "export_finetune_set", "prompts.export")

    # client: the oracle behind a timing Predictor wrapper
    oracle = cli.OraclePredictor
    patch(cli, "OraclePredictor", lambda bank: TimingPredictor(tracer, oracle(bank)))

    # evaluation
    def after_eval(_result, _args, _kwargs):
        counts["evaluation.cells"] += 1

    def after_ablation(cells, _args, _kwargs):
        counts["evaluation.cells"] += len(cells)

    wrap(evaluation, "time_aware_filter", "evaluation.filter",
         qid=lambda args: _query_id(args[1]))
    for owner in (evaluation, cli):
        wrap(owner, "build_filter_index", "evaluation.filter_index")
        wrap(owner, "run_eval", "evaluation.run_eval", after_eval)
        wrap(owner, "ablation_run", "evaluation.ablation", after_ablation)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def span_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: call count, total time, and self time (total minus the
    time its direct children cover)."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child: defaultdict = defaultdict(float)
    for name, start, end, parent, _qid in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    self_time: defaultdict = defaultdict(float)
    for i, (name, start, end, _parent, _qid) in enumerate(spans):
        self_time[name] += end - start - child[i]
    return calls, total, self_time


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric; a layer that did not run reads 0."""
    calls, total, self_time = span_times(tracer.spans)
    c = tracer.counts
    chars = np.asarray(tracer.prompt_chars or [0])
    walks = calls["rules.walk"]
    facts = c["retrieval.facts"]
    return {
        "rules.confidence_s": total["rules.confidence"],
        "rules.confidence_calls": calls["rules.confidence"],
        "rules.groundings": c["rules.groundings"],
        "rules.walk_s": total["rules.mine"] - total["rules.confidence"],
        "rules.walks": walks,
        "rules.walks_closed": c["rules.walks_closed"],
        "rules.walk_success": c["rules.walks_closed"] / walks if walks else 0.0,
        "rules.candidates": len(tracer.candidates),
        "rules.kept": c["rules.kept"],
        "kg.build_s": total["kg.build"],
        "kg.edges": c["kg.edges"],
        "kg.index_so_s": total["kg.index_so"],
        "kg.last_time_s": total["kg.last_time"],
        "kg.load_s": total["kg.load"],
        "kg.union_s": total["kg.union"],
        "retrieval.s": total["retrieval.retrieve"],
        "retrieval.calls": calls["retrieval.retrieve"],
        "retrieval.facts": facts,
        "retrieval.fill_rate": facts / c["retrieval.capacity"] if facts else 0.0,
        "retrieval.rank0_share": c["retrieval.rank0"] / facts if facts else 0.0,
        "prompts.select_s": total["prompts.select"],
        "prompts.build_s": total["prompts.build"],
        "prompts.calls": calls["prompts.build"],
        "prompts.chars_p50": float(np.percentile(chars, 50)),
        "prompts.chars_p99": float(np.percentile(chars, 99)),
        "prompts.over_budget": c["prompts.over_budget"],
        "client.predict_s": total["client.predict"],
        "client.predictions": c["client.predictions"],
        "client.unparsed": c["client.unparsed"],
        "evaluation.filter_index_s": total["evaluation.filter_index"],
        "evaluation.filter_s": total["evaluation.filter"],
        "evaluation.self_s": self_time["evaluation.run_eval"] + self_time["evaluation.ablation"],
        "evaluation.cells": c["evaluation.cells"],
        "cli.self_s": sum(t for name, t in self_time.items() if name.startswith("cli.")),
    }


def missing_spans(tracer: Tracer, expected) -> list[str]:
    calls = Counter(span[0] for span in tracer.spans)
    return [name for name in expected if calls[name] == 0]


def coverage(tracer: Tracer, root: list, seconds: float) -> float:
    """Share of `seconds`, the timed part of the root span, that its
    descendants' self times cover: time spent inside some traced layer
    rather than in the benchmark's own code."""
    root_index = next(i for i, span in enumerate(tracer.spans) if span is root)
    child_time = sum(end - start for _n, start, end, parent, _q in tracer.spans
                     if parent == root_index)
    return child_time / seconds
