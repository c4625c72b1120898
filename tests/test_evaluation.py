import json
import os
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from tkgrag import evaluation
from tkgrag.evaluation import (
    CHUNK_SIZE,
    EvalRecord,
    LLMPredictor,
    OraclePredictor,
    ablation_run,
    ablation_summary,
    build_filter_index,
    hits_at_k,
    report_from_records,
    run_eval,
    time_aware_filter,
)
from tkgrag.client import GenParams
from tkgrag.kg import Dataset
from tkgrag.prompts import PromptConfig
from tkgrag.retrieval import Query, RetrievalConfig, queries_from_split, retrieve

from conftest import make_kg, reference_filter
from test_client import StubEndpoint
from test_kg import random_rows


def record(rank, n_skipped=0):
    return EvalRecord(Query(0, 0, 1, gold_object=1), (), rank, n_skipped)


def co_true(objects, n_entities=20, subject=0, relation=0, t=7):
    """A filter graph whose (subject, relation, t) key holds `objects`."""
    return make_kg([(subject, relation, o, t) for o in objects], n_entities, relation + 1)


class TestTimeAwareFilter:
    def test_co_true_answers_removed(self):
        got = time_aware_filter([2, 3, 5], Query(0, 0, 7, gold_object=5), co_true([2, 3]))
        assert got == [5]

    def test_identity_without_co_true(self):
        # true objects under other keys, or no filter at all, drop nothing
        index = make_kg([(0, 0, 2, 6), (0, 1, 3, 7), (1, 0, 3, 7)], n_entities=6)
        for filter_index in (index, None):
            got = time_aware_filter([2, 3, 5], Query(0, 0, 7, gold_object=5), filter_index)
            assert got == [2, 3, 5]

    def test_gold_never_removed(self):
        got = time_aware_filter([2, 5], Query(0, 0, 7, gold_object=5), co_true([5, 2]))
        assert got == [5]

    def test_survivor_order_preserved_and_rank_never_worse(self):
        rng = random.Random(0)
        for _ in range(300):
            ranked = rng.sample(range(20), rng.randint(1, 15))
            gold = rng.choice(ranked)
            others = rng.sample(range(20), rng.randint(0, 10))
            got = time_aware_filter(ranked, Query(0, 0, 7, gold_object=gold), co_true(others))
            assert [e for e in ranked if e in got] == got
            assert got.index(gold) <= ranked.index(gold)

    @pytest.mark.parametrize("inverse", [False, True], ids=["base-only", "inverse"])
    def test_matches_reference_on_random_datasets(self, inverse):
        """build_filter_index over every subset of splits, against a set of
        the base rows of those splits, for queries with any subject
        (unknown ones too), any relation id (inverse ids too) and any t from
        0 to past t_max."""
        rng = np.random.default_rng(31 + inverse)
        splits_choices = [(), ("train",), ("valid", "test"), ("train", "valid", "test")]
        for _case in range(40):
            n_ent, n_base = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            rows = {name: random_rows(rng, n_ent, n_base, int(rng.integers(0, 25)))
                    for name in ("train", "valid", "test")}
            graphs = {name: make_kg(split_rows, n_ent, n_base, inverse)
                      for name, split_rows in rows.items()}
            graph = graphs["train"]
            dataset = Dataset(graph.entities, graph.relations, n_base, graphs,
                              time_gap=1, time_origin=0)
            for splits in splits_choices:
                index = build_filter_index(dataset, splits)
                truth = {row for name in splits for row in rows[name]}
                t_max = max((row[3] for row in truth), default=0)
                for _query in range(30):
                    key = (int(rng.integers(-1, n_ent + 1)),
                           int(rng.integers(len(graph.relations) + 1)),
                           int(rng.choice([0, t_max, t_max + 1, rng.integers(6)])))
                    ranked = rng.permutation(n_ent + 1)[: int(rng.integers(n_ent + 2))].tolist()
                    query = Query(*key, gold_object=ranked[0] if ranked else 0)
                    assert (time_aware_filter(ranked, query, index)
                            == reference_filter(ranked, query, truth))


class TestHitsAtK:
    def test_pinned_rank_table(self):
        records = [record(1), record(2), record(None), record(11)]
        assert hits_at_k(records, 1) == 0.25
        assert hits_at_k(records, 3) == 0.50
        assert hits_at_k(records, 10) == 0.50

    def test_all_rank_one(self):
        records = [record(1)] * 4
        assert [hits_at_k(records, k) for k in (1, 3, 10)] == [1.0, 1.0, 1.0]

    def test_all_missing(self):
        records = [record(None)] * 3
        assert [hits_at_k(records, k) for k in (1, 3, 10)] == [0.0, 0.0, 0.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            hits_at_k([], 1)

    def test_unsupported_k_rejected(self):
        with pytest.raises(ValueError):
            hits_at_k([record(1)], 5)

    def test_monotone_over_random_records(self):
        rng = random.Random(1)
        for _ in range(1000):
            records = [
                record(rng.choice([None] + list(range(1, 15))))
                for _ in range(rng.randint(1, 30))
            ]
            h1, h3, h10 = (hits_at_k(records, k) for k in (1, 3, 10))
            assert h1 <= h3 <= h10


class TestRunEval:
    def test_empty_queries_rejected(self, synthetic_dataset, synthetic_bank):
        with pytest.raises(ValueError, match="empty evaluation set"):
            run_eval(synthetic_dataset.union_kg(), synthetic_bank, [],
                     OraclePredictor(synthetic_bank))

    def test_gold_required(self, synthetic_dataset, synthetic_bank):
        with pytest.raises(ValueError, match="gold"):
            run_eval(synthetic_dataset.union_kg(), synthetic_bank, [Query(0, 0, 5)],
                     OraclePredictor(synthetic_bank))

    def test_report_aggregates_records(self, synthetic_dataset, synthetic_bank):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:20]
        report, records = run_eval(
            kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
            filter_index=build_filter_index(synthetic_dataset),
        )
        assert report.n_queries == 20
        replay = report_from_records(records, report.fingerprint)
        assert replay == report

    def test_journal_written_and_resumed(self, synthetic_dataset, synthetic_bank, tmp_path):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:30]
        index = build_filter_index(synthetic_dataset)
        full_dir = tmp_path / "full"
        report_full, _ = run_eval(
            kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
            filter_index=index, out_dir=str(full_dir), fingerprint="fp1",
        )
        # simulate an interruption by keeping only half the journal
        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        lines = (full_dir / "records.jsonl").read_text().splitlines(keepends=True)
        (resumed_dir / "records.jsonl").write_text("".join(lines[:15]))
        report_resumed, _ = run_eval(
            kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
            filter_index=index, out_dir=str(resumed_dir), fingerprint="fp1",
        )
        assert report_resumed == report_full
        assert json.loads((resumed_dir / "report.json").read_text()) == report_full.as_dict()

    @pytest.mark.parametrize("cut", [1, 40])
    def test_torn_final_line_is_cut_off_and_rerun(
        self, synthetic_dataset, synthetic_bank, tmp_path, cut
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:12]
        index = build_filter_index(synthetic_dataset)
        run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                 filter_index=index, out_dir=str(tmp_path), fingerprint="fp1")
        journal = tmp_path / "records.jsonl"
        full = journal.read_bytes()
        # a kill mid-append: only the newline (cut=1) or part of the record is lost
        journal.write_bytes(full[:-cut])
        report, _ = run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                             filter_index=index, out_dir=str(tmp_path), fingerprint="fp1")
        assert journal.read_bytes() == full
        assert report.n_queries == 12

    def test_bad_line_before_the_last_is_rejected(
        self, synthetic_dataset, synthetic_bank, tmp_path
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:6]
        run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                 out_dir=str(tmp_path), fingerprint="fp")
        journal = tmp_path / "records.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:20] + b"\n"
        damaged = b"".join(lines)[:-5]  # a torn tail as well: nothing is cut off
        journal.write_bytes(damaged)
        with pytest.raises(ValueError):
            run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                     out_dir=str(tmp_path), fingerprint="fp")
        assert journal.read_bytes() == damaged

    def test_failed_report_write_keeps_previous_report(
        self, synthetic_dataset, synthetic_bank, tmp_path, disk_full
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:4]
        (tmp_path / "report.json").write_text("previous\n")
        disk_full(30)
        with pytest.raises(OSError):
            run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                     out_dir=str(tmp_path), fingerprint="fp")
        assert (tmp_path / "report.json").read_text() == "previous\n"
        assert sorted(os.listdir(tmp_path)) == ["records.jsonl", "report.json"]

    def test_rerun_skips_completed_queries(self, synthetic_dataset, synthetic_bank, tmp_path):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:10]

        class CountingOracle(OraclePredictor):
            calls = 0

            def predict_batch(self, items):
                CountingOracle.calls += len(items)
                return super().predict_batch(items)

        predictor = CountingOracle(synthetic_bank)
        run_eval(kg, synthetic_bank, queries, predictor,
                 out_dir=str(tmp_path), fingerprint="fp")
        assert CountingOracle.calls == 10
        run_eval(kg, synthetic_bank, queries, predictor,
                 out_dir=str(tmp_path), fingerprint="fp")
        assert CountingOracle.calls == 10  # nothing recomputed

    def test_journal_fingerprint_mismatch_rejected(
        self, synthetic_dataset, synthetic_bank, tmp_path
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:5]
        run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                 out_dir=str(tmp_path), fingerprint="first")
        with pytest.raises(ValueError, match="fingerprint"):
            run_eval(kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
                     out_dir=str(tmp_path), fingerprint="second")

    def test_llm_predictor_end_to_end(self, synthetic_dataset, synthetic_bank):
        stub = StubEndpoint(sequences=["0.e01]", "1.e02]"])
        try:
            kg = synthetic_dataset.union_kg()
            queries = queries_from_split(synthetic_dataset, "test")[:8]
            predictor = LLMPredictor(
                kg, stub.url,
                GenParams(num_sequences=2, timeout=5.0, retries=1, backoff=0.01),
            )
            report, records = run_eval(
                kg, synthetic_bank, queries, predictor,
                filter_index=build_filter_index(synthetic_dataset),
            )
            assert report.n_queries == 8
            assert all(len(r.predictions) <= 2 for r in records)
        finally:
            stub.close()


class TestAblation:
    def test_empty_queries_rejected(self, synthetic_dataset, synthetic_bank):
        with pytest.raises(ValueError, match="empty evaluation set"):
            ablation_run(synthetic_dataset.union_kg(), synthetic_bank, [],
                         orders=["ascending"], history_lengths=[50], formats=["index"],
                         predictor=OraclePredictor(synthetic_bank))

    def test_gold_required(self, synthetic_dataset, synthetic_bank):
        """Queries without a gold object are refused, as by `run_eval`, not
        scored as misses."""
        queries = [replace(q, gold_object=None)
                   for q in queries_from_split(synthetic_dataset, "test")[:20]]
        with pytest.raises(ValueError, match="every evaluation query needs a gold object"):
            ablation_run(synthetic_dataset.union_kg(), synthetic_bank, queries,
                         orders=["ascending"], history_lengths=[50], formats=["index"],
                         predictor=OraclePredictor(synthetic_bank))

    def test_empty_grid_rejected(self, synthetic_dataset, synthetic_bank):
        with pytest.raises(ValueError, match="empty ablation grid"):
            ablation_run(synthetic_dataset.union_kg(), synthetic_bank,
                         queries_from_split(synthetic_dataset, "test")[:5],
                         orders=[], history_lengths=[50], formats=["index"],
                         predictor=OraclePredictor(synthetic_bank))

    def test_unsupported_history_length_rejected(self, synthetic_dataset, synthetic_bank):
        with pytest.raises(ValueError, match="history lengths"):
            ablation_run(synthetic_dataset.union_kg(), synthetic_bank,
                         queries_from_split(synthetic_dataset, "test")[:5],
                         orders=["ascending"], history_lengths=[15], formats=["index"],
                         predictor=OraclePredictor(synthetic_bank))

    def test_grid_shape_and_summary(self, synthetic_dataset, synthetic_bank):
        queries = queries_from_split(synthetic_dataset, "test")[:30]
        cells = ablation_run(
            synthetic_dataset.union_kg(), synthetic_bank, queries,
            orders=["ascending", "descending", "random", "timestamps-removed"],
            history_lengths=[50], formats=["index"],
            predictor=OraclePredictor(synthetic_bank),
            filter_index=build_filter_index(synthetic_dataset),
        )
        assert len(cells) == 4
        ascending = next(c for c in cells if c.order == "ascending")
        for cell in cells:
            assert ascending.report.hits1 >= cell.report.hits1
        table = ablation_summary(cells)
        lines = table.strip().split("\n")
        assert lines[0].split("\t") == [
            "order", "history_length", "format", "hits@1", "hits@3", "hits@10", "n_queries"
        ]
        assert len(lines) == 5

    def test_history_length_axis_uses_shared_retrieval(
        self, synthetic_dataset, synthetic_bank
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:30]
        index = build_filter_index(synthetic_dataset)
        cells = ablation_run(
            kg, synthetic_bank, queries,
            orders=["ascending"], history_lengths=[10, 50], formats=["index"],
            predictor=OraclePredictor(synthetic_bank), filter_index=index,
        )
        # cross-check one cell against a plain evaluation at that cap
        direct, _ = run_eval(
            kg, synthetic_bank, queries, OraclePredictor(synthetic_bank),
            RetrievalConfig(), PromptConfig(max_facts=10), index,
        )
        ten = next(c for c in cells if c.history_length == 10)
        assert (ten.report.hits1, ten.report.hits3, ten.report.hits10) == (
            direct.hits1, direct.hits3, direct.hits10
        )

    def test_one_retrieval_and_one_chunk_per_batch(self, synthetic_dataset, synthetic_bank,
                                                   monkeypatch):
        """Over more than a chunk of queries, each query is retrieved once for
        all cells and no predictor batch holds more than one chunk."""
        queries = queries_from_split(synthetic_dataset, "test")
        assert len(queries) > CHUNK_SIZE
        retrieved = Counter()

        def counting_retrieve(kg, bank, query, cfg):
            retrieved[query] += 1
            return retrieve(kg, bank, query, cfg)

        monkeypatch.setattr(evaluation, "retrieve", counting_retrieve)

        class RecordingOracle(OraclePredictor):
            batches = []

            def predict_batch(self, items):
                self.batches.append(len(items))
                return super().predict_batch(items)

        predictor = RecordingOracle(synthetic_bank)
        cells = ablation_run(synthetic_dataset.union_kg(), synthetic_bank, queries,
                             orders=["ascending", "descending"], history_lengths=[10, 50],
                             formats=["index"], predictor=predictor)
        assert retrieved == Counter(queries)
        assert max(predictor.batches) <= CHUNK_SIZE
        assert sum(predictor.batches) == len(queries) * len(cells) == len(queries) * 4

    def test_stepwise_fact_cap_scores_the_stepwise_history(
        self, synthetic_dataset, synthetic_bank
    ):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:40]
        index = build_filter_index(synthetic_dataset)
        predictor = OraclePredictor(synthetic_bank)
        stepwise = RetrievalConfig(window=5, stepwise=True)
        # a cap of 10 facts scores what stepwise retrieval of 10 facts finds
        narrow_report, narrow = run_eval(
            kg, synthetic_bank, queries, predictor, replace(stepwise, max_history=10),
            PromptConfig(), index,
        )
        _, capped = run_eval(
            kg, synthetic_bank, queries, predictor, stepwise, PromptConfig(max_facts=10), index,
        )
        assert capped == narrow
        [cell] = ablation_run(
            kg, synthetic_bank, queries, orders=["ascending"], history_lengths=[10],
            formats=["index"], predictor=predictor, retrieval_cfg=stepwise, filter_index=index,
        )
        assert cell.report == narrow_report
