import json
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from tkgrag.client import rule_score_predict
from tkgrag.files import read_jsonl, write_jsonl
from tkgrag.kg import Quadruple
from tkgrag.prompts import FORMATS, ORDERS, PromptConfig, build_prompt, select_history
from tkgrag.retrieval import (
    Query,
    RetrievalConfig,
    history_from_dict,
    history_to_dict,
    queries_from_split,
    retrieve,
)
from tkgrag.rules import MiningParams, RuleBank, TemporalRule

from conftest import (
    history_key,
    history_of,
    make_kg,
    reference_build_prompt,
    reference_retrieve,
    reference_rule_scores,
    reference_select_history,
)


def bank_of(*rules: tuple[int, int, float]) -> RuleBank:
    """Build a bank from (head, body, confidence) triples; confidences must be
    exact hundredths so the support counts stay consistent."""
    by_head = {}
    for head, body, confidence in rules:
        rule = TemporalRule(head, body, 100, int(round(confidence * 100)),
                            round(confidence * 100) / 100)
        by_head.setdefault(head, []).append(rule)
    return RuleBank(by_head, MiningParams())


class TestRetrieve:
    def test_hand_traced_selection(self):
        # relations: 0 = query relation, 1 = rule body, 2 = unrelated
        kg = make_kg([(0, 0, 1, 1), (0, 1, 2, 2), (0, 2, 3, 3)], n_relations=3)
        bank = bank_of((0, 1, 0.9))
        history = retrieve(kg, bank, Query(0, 0, 4), RetrievalConfig(window=4))
        assert history.facts == (Quadruple(0, 0, 1, 1), Quadruple(0, 1, 2, 2))
        assert [p.as_dict()["kind"] for p in history.provenance] == ["rule-head", "rule-body"]

    def test_query_at_time_zero_is_empty(self):
        kg = make_kg([(0, 0, 1, 1)])
        history = retrieve(kg, bank_of(), Query(0, 0, 0))
        assert history.facts == ()

    def test_head_priority_beats_recency_at_budget(self):
        kg = make_kg([(0, 0, 1, 5), (0, 1, 2, 6)], n_relations=2)
        bank = bank_of((0, 1, 0.99))
        history = retrieve(kg, bank, Query(0, 0, 7), RetrievalConfig(max_history=1))
        assert history.facts == (Quadruple(0, 0, 1, 5),)
        assert history.provenance[0].as_dict()["kind"] == "rule-head"

    def test_no_rules_returns_head_facts_only(self):
        kg = make_kg([(0, 0, 1, 1), (0, 1, 2, 2)], n_relations=2)
        history = retrieve(kg, bank_of(), Query(0, 0, 5))
        assert history.facts == (Quadruple(0, 0, 1, 1),)

    def test_window_excludes_older_facts(self):
        kg = make_kg([(0, 0, 1, 1), (0, 0, 2, 8)])
        history = retrieve(kg, bank_of(), Query(0, 0, 10), RetrievalConfig(window=5))
        assert history.facts == (Quadruple(0, 0, 2, 8),)

    def test_self_rule_keeps_head_provenance(self):
        kg = make_kg([(0, 0, 1, 3)])
        bank = bank_of((0, 0, 0.8))
        history = retrieve(kg, bank, Query(0, 0, 5))
        assert len(history.facts) == 1
        assert history.provenance[0].as_dict()["kind"] == "rule-head"

    def test_rule_groups_ranked_by_bank_order(self):
        kg = make_kg([(0, 1, 1, 4), (0, 2, 2, 5)], n_relations=3)
        bank = bank_of((0, 1, 0.9), (0, 2, 0.5))
        history = retrieve(kg, bank, Query(0, 0, 6), RetrievalConfig(max_history=1))
        # higher-confidence group wins even though the other fact is newer
        assert history.facts == (Quadruple(0, 1, 1, 4),)
        assert history.provenance[0].rank == 1

    def test_top_rules_limits_groups(self):
        kg = make_kg([(0, 1, 1, 4), (0, 2, 2, 5)], n_relations=3)
        bank = bank_of((0, 1, 0.9), (0, 2, 0.5))
        history = retrieve(kg, bank, Query(0, 0, 6), RetrievalConfig(top_rules=1))
        assert history.facts == (Quadruple(0, 1, 1, 4),)

    def test_canonical_order_ascending_with_rank_ties(self):
        kg = make_kg([(0, 1, 2, 3), (0, 0, 1, 3), (0, 0, 3, 1)], n_relations=2)
        bank = bank_of((0, 1, 0.7))
        history = retrieve(kg, bank, Query(0, 0, 9))
        assert history.facts == (
            Quadruple(0, 0, 3, 1),
            Quadruple(0, 0, 1, 3),  # same t: head rank before body rank
            Quadruple(0, 1, 2, 3),
        )

    def test_no_leakage_strict_past(self, synthetic_dataset, synthetic_bank):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:50]
        for query in queries:
            history = retrieve(kg, synthetic_bank, query)
            for fact in history.facts:
                assert fact.t < query.t
                assert fact.subject == query.subject
            gold = Quadruple(query.subject, query.relation, query.gold_object, query.t)
            assert gold not in history.facts

    def test_stepwise_equals_whole_window_at_full_history(self):
        kg = make_kg([(0, 0, 1, t) for t in range(9)] + [(0, 1, 2, 5)], n_relations=2)
        bank = bank_of((0, 1, 0.9))
        query = Query(0, 0, 9)
        whole = retrieve(kg, bank, query, RetrievalConfig(window=9))
        stepped = retrieve(kg, bank, query, RetrievalConfig(window=9, stepwise=True))
        assert history_key(whole) == history_key(stepped)

    def test_stepwise_prefers_nearer_windows(self):
        # two head facts; stepwise with w=2 must take the nearer window first
        kg = make_kg([(0, 0, 1, 1), (0, 0, 2, 8), (0, 1, 3, 9)], n_relations=2)
        bank = bank_of((0, 1, 0.9))
        history = retrieve(
            kg, bank, Query(0, 0, 10),
            RetrievalConfig(window=2, stepwise=True, max_history=2),
        )
        assert set(history.facts) == {Quadruple(0, 0, 2, 8), Quadruple(0, 1, 3, 9)}


def random_cases(stepwise: bool):
    """120 (trial, quads, graph, bank, config, query) cases on random graphs of
    6 entities, 5 relations and 40 time steps."""
    rng = np.random.default_rng(42)
    # a second stream for the edge cases, so the graphs stay as drawn by rng
    edge_cases = np.random.default_rng(43)
    for trial in range(120):
        n_edges = int(rng.integers(10, 500))
        quads = sorted({
            (int(rng.integers(6)), int(rng.integers(5)), int(rng.integers(6)),
             int(rng.integers(40)))
            for _ in range(n_edges)
        })
        kg = make_kg(quads, n_entities=6, n_relations=5)
        rules = []
        heads = rng.permutation(5)[: int(rng.integers(1, 4))]
        for head in heads:
            bodies = [int(b) for b in rng.permutation(5)[: int(rng.integers(1, 4))]]
            if head not in bodies and edge_cases.random() < 0.4:
                # a rule whose body is its own head relation
                bodies.insert(int(edge_cases.integers(len(bodies) + 1)), int(head))
            for rank, body in enumerate(bodies):
                rules.append((int(head), body, round(0.9 - 0.2 * rank, 2)))
        bank = bank_of(*rules)
        cfg = RetrievalConfig(
            window=int(rng.integers(1, 45)) if rng.random() < 0.7 else None,
            max_history=int(rng.integers(1, 20)),
            stepwise=stepwise,
            top_rules=[None, None, 0, 1, 2, 3][int(edge_cases.integers(6))],
        )
        query = Query(
            subject=int(rng.integers(6)),
            relation=int(rng.integers(5)),
            t=int(rng.integers(0, 45)),
        )
        if edge_cases.random() < 0.5:  # a relation the bank has rules for
            query = replace(query, relation=int(heads[0]))
        if edge_cases.random() < 0.1:
            query = replace(query, t=0)
        yield trial, quads, kg, bank, cfg, query


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("stepwise", [False, True])
    def test_random_graphs_match_reference(self, stepwise):
        for trial, quads, kg, bank, cfg, query in random_cases(stepwise):
            got = retrieve(kg, bank, query, cfg)
            want = reference_retrieve(quads, bank, query, cfg)
            assert got.facts == want.facts, (trial, cfg, query)
            assert got.provenance == want.provenance

    @pytest.mark.parametrize("stepwise", [False, True])
    def test_column_readers_match_fact_tuple_references(self, stepwise):
        """The fact cap, prompt rendering, the oracle and the JSON round trip
        read a history's columns; they agree with references that read its
        `Quadruple`s, on histories from `retrieve` and from
        `conftest.history_of`, in canonical and in shuffled order."""
        shuffle = np.random.default_rng(44)
        for trial, quads, kg, bank, cfg, query in random_cases(stepwise):
            got = retrieve(kg, bank, query, cfg)
            rows = shuffle.permutation(len(got)).tolist()
            histories = [
                got,
                history_of(query, got.facts, got.provenance),
                history_of(query, [got.facts[i] for i in rows],
                           [got.provenance[i] for i in rows]),
                history_of(query, (), ()),
            ]
            for history in histories:
                case = (trial, cfg, history_key(history))
                row = json.loads(json.dumps(history_to_dict(history)))
                assert history_key(history_from_dict(row, kg, {})) == history_key(history), case
                assert list(rule_score_predict(history, bank).ranked) == \
                    reference_rule_scores(history, bank), case
                for cap in {0, 1, max(len(history) - 1, 0), len(history), len(history) + 3}:
                    prompt_cfg = PromptConfig(max_facts=cap)
                    selected = select_history(history, prompt_cfg, cfg)
                    assert history_key(selected) == \
                        history_key(reference_select_history(history, prompt_cfg, cfg)), case
                    for fmt, order in product(FORMATS, ORDERS):
                        prompt_cfg = PromptConfig(format=fmt, order=order, order_seed=trial,
                                                  max_facts=cap)
                        assert build_prompt(selected, prompt_cfg, kg) == \
                            reference_build_prompt(selected, prompt_cfg, kg), case

    def test_monotone_in_max_history(self):
        rng = np.random.default_rng(8)
        quads = sorted({
            (0, int(rng.integers(3)), int(rng.integers(5)), int(rng.integers(30)))
            for _ in range(120)
        })
        kg = make_kg(quads, n_entities=5, n_relations=3)
        bank = bank_of((0, 1, 0.9), (0, 2, 0.4))
        query = Query(0, 0, 28)
        previous: set = set()
        for budget in (1, 2, 5, 10, 20, 50):
            facts = set(retrieve(kg, bank, query, RetrievalConfig(max_history=budget)).facts)
            assert previous <= facts
            previous = facts

    def test_monotone_in_window(self):
        kg = make_kg([(0, 0, 1, t) for t in range(20)])
        query = Query(0, 0, 20)
        previous: set = set()
        for window in (1, 3, 8, 20):
            facts = set(retrieve(kg, bank_of(), query,
                                 RetrievalConfig(window=window)).facts)
            assert previous <= facts
            previous = facts


class TestHeadPlan:
    def test_plans_stay_with_their_bank(self):
        # Banks with different rules for head 0 are created and dropped in
        # turn on one graph. A plan cache keyed by id(bank) hands a new bank
        # the plan of a freed one whose id it reuses.
        rng = np.random.default_rng(11)
        quads = sorted({
            (int(rng.integers(4)), int(rng.integers(5)), int(rng.integers(4)),
             int(rng.integers(30)))
            for _ in range(300)
        })
        kg = make_kg(quads, n_entities=4, n_relations=5)
        rule_sets = [((0, 1, 0.9), (0, 2, 0.5)), ((0, 3, 0.8), (0, 0, 0.6), (0, 4, 0.3))]
        cfgs = [RetrievalConfig(max_history=6), RetrievalConfig(window=4, stepwise=True),
                RetrievalConfig(top_rules=1)]
        for round_ in range(60):
            bank = bank_of(*rule_sets[round_ % 2])
            for subject, cfg in product(range(4), cfgs):
                query = Query(subject, 0, int(rng.integers(10, 31)))
                got = retrieve(kg, bank, query, cfg)
                want = reference_retrieve(quads, bank, query, cfg)
                assert history_key(got) == history_key(want), (round_, query, cfg)
                assert list(rule_score_predict(got, bank).ranked) == \
                    reference_rule_scores(got, bank)
            del bank

    def test_plan_skips_a_body_equal_to_its_head(self):
        bank = bank_of((0, 2, 0.9), (0, 0, 0.7), (0, 1, 0.5))
        plan = bank.plan_for(0)
        assert plan.relations.tolist() == [0, 2, 1]
        assert plan.ranks.tolist() == [0, 1, 3]
        assert plan.weights.tolist() == [0.7 + 1.0, 0.5, 0.9]
        assert bank.plan_for(0) is plan
        assert bank.plan_for(4).relations.tolist() == [4]
        assert bank.plan_for(4).weights.tolist() == [0, 0, 0, 0, 1.0]


class TestQueriesAndIO:
    def test_queries_from_split_skips_inverses(self, synthetic_dataset):
        queries = queries_from_split(synthetic_dataset, "test")
        n_base = synthetic_dataset.num_base_relations
        assert queries
        assert all(q.relation < n_base for q in queries)
        assert all(q.gold_object is not None for q in queries)
        keys = [(q.t, q.subject, q.relation, q.gold_object) for q in queries]
        assert keys == sorted(keys)

    def test_history_jsonl_roundtrip(self, synthetic_dataset, synthetic_bank, tmp_path):
        kg = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")[:10]
        histories = [retrieve(kg, synthetic_bank, query) for query in queries]
        path = str(tmp_path / "histories.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            assert write_jsonl(fh, map(history_to_dict, histories)) == len(histories)
        read = read_jsonl(path, lambda row: history_from_dict(row, kg, {}))
        assert list(map(history_key, read)) == list(map(history_key, histories))

    def test_history_jsonl_carries_provenance(self, synthetic_dataset, synthetic_bank, tmp_path):
        kg = synthetic_dataset.union_kg()
        query = queries_from_split(synthetic_dataset, "test")[0]
        path = tmp_path / "histories.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            write_jsonl(fh, [history_to_dict(retrieve(kg, synthetic_bank, query))])
        row = json.loads(path.read_text())
        assert {"query", "facts"} <= set(row)
        for fact in row["facts"]:
            assert fact["provenance"]["kind"] in ("rule-head", "rule-body")

    def test_history_columns_are_int64(self):
        kg = make_kg([(0, 0, 1, 1), (1, 0, 2, 2)])
        fact = {"s": 1, "r": 0, "o": 2, "t": 2, "provenance": {"kind": "rule-head", "rank": 0}}
        for facts in ([], [fact]):
            history = history_from_dict({"query": {"s": 1, "r": 0, "t": 3}, "facts": facts}, kg, {})
            columns = (history.sub, history.rel, history.obj, history.ts)
            assert [column.dtype for column in columns] == [np.int64] * 4
            assert [column.tolist() for column in columns] == [[fact[k]] * len(facts)
                                                                for k in "srot"]

    def test_negative_query_time_rejected(self):
        with pytest.raises(ValueError):
            Query(0, 0, -1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrievalConfig(window=0)
        with pytest.raises(ValueError):
            RetrievalConfig(max_history=0)
