"""One differential test of the whole forecast pipeline.

The package's mine -> retrieve -> select -> render -> oracle -> filter ->
Hits@k runs against the same pipeline composed of the index-free references
in `conftest.py`, on random small datasets under random configs. Per query
it compares `run_eval`'s records, the selected histories and prompts the
predictor receives, and the report; then one `ablation_run` cell the same
way, and the rows and counts of `export_finetune_set`. Each stage also has
its own test; this one catches what goes wrong between stages.
"""
import json
import random
from dataclasses import replace

import numpy as np

from tkgrag.evaluation import OraclePredictor, ablation_run, build_filter_index, run_eval
from tkgrag.kg import Dataset
from tkgrag.prompts import FORMATS, ORDERS, PromptConfig, export_finetune_set
from tkgrag.retrieval import Query, RetrievalConfig, queries_from_split
from tkgrag.rules import MiningParams, learn_rules

from conftest import (
    history_key,
    make_kg,
    reference_build_prompt,
    reference_filter,
    reference_learn_rules,
    reference_retrieve,
    reference_rule_scores,
    reference_select_history,
)

SPLITS = ("train", "valid", "test")
SPLIT_SETS = [tuple(name for i, name in enumerate(SPLITS) if mask >> i & 1)
              for mask in range(1, 8)]


class RecordingOracle(OraclePredictor):
    """The oracle, keeping every (history, prompt) pair it is given."""

    def __init__(self, bank):
        super().__init__(bank)
        self.items = []

    def predict_batch(self, items):
        self.items.extend(items)
        return super().predict_batch(items)


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def random_case(rng):
    """The rows of each split (train always holds edges, valid and test
    maybe), the dataset built from them, and the options of one run."""
    n_ent, n_base = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    t_span, inverse = int(rng.integers(3, 12)), bool(rng.integers(2))
    holding = ["train", *(name for name in ("valid", "test") if rng.random() < 0.5)]
    rows = {name: sorted({(int(rng.integers(n_ent)), int(rng.integers(n_base)),
                           int(rng.integers(n_ent)), int(rng.integers(t_span)))
                          for _ in range(int(rng.integers(4, 30)) if name in holding else 0)})
            for name in SPLITS}
    graphs = {name: make_kg(split_rows, n_ent, n_base, inverse)
              for name, split_rows in rows.items()}
    train = graphs["train"]
    dataset = Dataset(train.entities, train.relations, n_base, graphs, time_gap=1, time_origin=0)
    mining = MiningParams(num_walks=int(rng.integers(3, 20)),
                          min_body_support=int(rng.integers(1, 3)),
                          grounding_cap=pick(rng, [2, 5, 100_000]), seed=int(rng.integers(100)))
    retrieval_cfg = RetrievalConfig(
        window=None if rng.random() < 0.3 else int(rng.integers(1, 6)),
        top_rules=pick(rng, [None, None, 0, 1, 2, 3]),
        max_history=int(rng.integers(1, 25)),
        stepwise=bool(rng.integers(2)),
    )
    prompt_cfg = PromptConfig(
        format=pick(rng, FORMATS), order=pick(rng, ORDERS), order_seed=int(rng.integers(100)),
        max_facts=None if rng.random() < 0.3 else int(rng.integers(0, 25)),
        char_budget=pick(rng, [12000, 150]),
    )
    options = {"split": pick(rng, holding), "retrieval_splits": pick(rng, SPLIT_SETS),
               "filter_splits": pick(rng, SPLIT_SETS)}
    return rows, dataset, inverse, mining, retrieval_cfg, prompt_cfg, options


def edges(rows, names, n_base, inverse) -> list[tuple]:
    """The (s, r, o, t) edges of the splits `names`, and their inverses in
    an inverse layout."""
    base = {row for name in names for row in rows[name]}
    if inverse:
        return sorted(base | {(o, r + n_base, s, t) for s, r, o, t in base})
    return sorted(base)


def queries_of(split_rows) -> list[Query]:
    return [Query(s, r, t, o) for s, r, o, t in sorted(set(split_rows),
                                                        key=lambda q: (q[3], q[0], q[1], q[2]))]


def forecast(query, quads, true_quads, bank, retrieval_cfg, prompt_cfg, kg):
    """The reference pipeline for one query: its selected history, its
    prompt, its filtered ranking and the gold's rank there."""
    history = reference_retrieve(quads, bank, query, retrieval_cfg)
    selected = reference_select_history(history, prompt_cfg, retrieval_cfg)
    prompt = reference_build_prompt(selected, prompt_cfg, kg)
    ranked = reference_filter(reference_rule_scores(selected, bank), query, true_quads)
    rank = ranked.index(query.gold_object) + 1 if query.gold_object in ranked else None
    return selected, prompt, ranked, rank


def hits(ranks) -> tuple:
    return tuple(sum(1 for r in ranks if r is not None and r <= k) / len(ranks)
                 for k in (1, 3, 10))


def check_forecasts(case, oracle, queries, expected):
    """What the predictor received matches the reference, query by query."""
    assert len(oracle.items) == len(queries), case
    for query, (selected, prompt), (want_selected, want_prompt, _ranked, _rank) in zip(
            queries, oracle.items, expected):
        assert history_key(selected) == history_key(want_selected), (case, query)
        assert prompt == want_prompt, (case, query)


def test_pipeline_matches_the_references(tmp_path):
    rng = np.random.default_rng(2024)
    out = str(tmp_path / "finetune.jsonl")
    for case in range(100):
        rows, dataset, inverse, mining, retrieval_cfg, prompt_cfg, options = random_case(rng)
        n_base, label = dataset.num_base_relations, (case, retrieval_cfg, prompt_cfg, options)

        # mine
        bank = learn_rules(dataset.train, mining)
        ref_bank = reference_learn_rules(dataset.train, mining)
        assert bank.to_json() == ref_bank.to_json(), label

        # eval: retrieve, select, render, predict, filter, rank, Hits@k
        filter_index = build_filter_index(dataset, options["filter_splits"])
        kg = (filter_index if set(options["retrieval_splits"]) == set(options["filter_splits"])
              else dataset.union_kg(options["retrieval_splits"]))
        queries = queries_from_split(dataset, options["split"])
        assert queries == queries_of(rows[options["split"]]), label
        quads = edges(rows, options["retrieval_splits"], n_base, inverse)
        true_quads = set(edges(rows, options["filter_splits"], n_base, False))
        expected = [forecast(q, quads, true_quads, ref_bank, retrieval_cfg, prompt_cfg, kg)
                    for q in queries]
        oracle = RecordingOracle(bank)
        report, records = run_eval(kg, bank, queries, oracle, retrieval_cfg, prompt_cfg,
                                   filter_index, fingerprint="fp")
        check_forecasts(label, oracle, queries, expected)
        for query, record, (_selected, _prompt, ranked, rank) in zip(queries, records, expected):
            assert (record.query, list(record.predictions), record.rank, record.n_skipped,
                    record.fingerprint) == (query, ranked, rank, 0, "fp"), (label, query)
        ranks = [rank for *_rest, rank in expected]
        assert (report.hits1, report.hits3, report.hits10, report.n_queries,
                report.n_unparsed) == (*hits(ranks), len(queries), 0), label

        # one ablation cell over the same queries
        length = pick(rng, [10, 20])
        cell_retrieval = replace(retrieval_cfg,
                                 max_history=max(retrieval_cfg.max_history, length))
        order, fmt = pick(rng, ORDERS), pick(rng, FORMATS)
        oracle = RecordingOracle(bank)
        [cell] = ablation_run(kg, bank, queries, [order], [length], [fmt], oracle,
                              cell_retrieval, filter_index, prompt_cfg, "fp")
        cell_cfg = replace(prompt_cfg, format=fmt, order=order, max_facts=length)
        expected = [forecast(q, quads, true_quads, ref_bank, cell_retrieval, cell_cfg, kg)
                    for q in queries]
        check_forecasts(label, oracle, queries, expected)
        assert (cell.order, cell.history_length, cell.format) == (order, length, fmt)
        assert (cell.report.hits1, cell.report.hits3, cell.report.hits10,
                cell.report.n_queries) == (*hits([rank for *_r, rank in expected]),
                                           len(queries)), label

        # the K-shot export, retrieved from the training split alone
        train_queries = queries_of(rows["train"])
        k, seed = int(rng.integers(1, len(train_queries) + 1)), int(rng.integers(100))
        counts = export_finetune_set(dataset, bank, k, retrieval_cfg, prompt_cfg, seed, out)
        train_quads = edges(rows, ("train",), n_base, inverse)
        names = [name.replace(" ", "_") for name in dataset.entities]
        want_rows, over_budget = [], 0
        for index in sorted(random.Random(seed).sample(range(len(train_queries)), k)):
            query = train_queries[index]
            history = reference_retrieve(train_quads, ref_bank, query, retrieval_cfg)
            prompt = reference_build_prompt(
                reference_select_history(history, prompt_cfg, retrieval_cfg), prompt_cfg,
                dataset.train)
            gold = query.gold_object
            output = f"{names[gold]}]"
            if prompt_cfg.format == "index":
                output = f"{prompt.index_map.get(gold, len(prompt.index_map))}.{output}"
            sample = {"instruction": prompt_cfg.instruction,
                      "input": prompt.text[len(prompt_cfg.instruction):], "output": output}
            over_budget += sum(map(len, sample.values())) > prompt_cfg.char_budget
            want_rows.append(sample)
        with open(out, encoding="utf-8") as fh:
            assert [json.loads(line) for line in fh] == want_rows, label
        assert counts == {"n_samples": k, "over_char_budget": over_budget}, label
