import concurrent.futures
import json
import os
import re
import time

import mpmath as mp
import numpy as np
import pytest

from tkgrag import rules
from tkgrag.kg import Quadruple
from tkgrag.rules import (
    MiningParams,
    RuleBank,
    TemporalRule,
    _derived_rng,
    _derived_seed,
    _pcg64_states,
    _walk_draws,
    _walk_seeds,
    estimate_confidence,
    learn_rules,
    sample_walk,
)
from tkgrag.synthetic import BODY_RELATION, HEAD_RELATION

from conftest import (
    edges_of,
    make_kg,
    reference_confidence,
    reference_learn_rules,
    transition_weights,
)


def per_grounding_confidence(kg, head_relation, body_relation, grounding_cap, rng):
    """The estimate one grounding at a time: the same capped draw, then a
    latest-head-time lookup per grounding in a dict over all edges."""
    positions = np.flatnonzero(kg.rel == body_relation)
    if positions.size == 0:
        return (0, 0, 0.0)
    if positions.size > grounding_cap:
        positions = positions[
            np.sort(rng.choice(positions.size, size=grounding_cap, replace=False))
        ]
    last = {}
    for q in edges_of(kg):
        last[(q.subject, q.relation, q.object)] = q.t  # edges ascend in t
    rule_support = 0
    for q in edges_of(kg, positions):
        if q.t < last.get((q.subject, head_relation, q.object), -1):
            rule_support += 1
    return (int(positions.size), rule_support, rule_support / positions.size)


def highprecision_distribution(times, now):
    """Independent evaluation of the recency-weighted transition law."""
    mp.mp.dps = 60
    weights = [mp.e ** (mp.mpf(int(u)) - int(now)) for u in times]
    total = sum(weights)
    return [float(w / total) for w in weights]


def weights(times, now) -> list[float]:
    """`transition_weights` of candidates at `times`."""
    return transition_weights(np.array(times, dtype=np.int64), now).tolist()


class TestTransitionDistribution:
    def test_two_candidates_pinned_values(self):
        probs = weights([3, 5], 6)
        assert probs[0] == pytest.approx(0.11920, abs=1e-5)
        assert probs[1] == pytest.approx(0.88080, abs=1e-5)

    def test_single_candidate_is_certain(self):
        assert weights([-7], 3) == [1.0]

    def test_equal_times_split_evenly(self):
        assert weights([4, 4], 6) == [0.5, 0.5]

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="empty candidate"):
            weights([], 5)

    def test_future_candidate_rejected(self):
        with pytest.raises(ValueError, match="strictly before"):
            weights([5], 5)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(12)
        start = time.perf_counter()
        for _ in range(100):
            size = int(rng.integers(1, 51))
            offset = int(rng.integers(-10**6, 10**6))
            now = offset + int(rng.integers(1, 500))
            times = [int(rng.integers(offset - 500, now)) for _ in range(size)]
            got = weights(times, now)
            want = highprecision_distribution(times, now)
            assert sum(got) == pytest.approx(1.0, abs=1e-12)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12
        assert time.perf_counter() - start < 1.0

    def test_time_steps_beyond_float_precision(self):
        # as floats, 2**60 + 1, 2**60 + 3 and 2**60 + 5 are all 2**60; the
        # weights read their integer distances, as for small time steps
        assert weights([2**60 + 1, 2**60 + 3], 2**60 + 5) == weights([1, 3], 5)

    def test_shift_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        times = [int(t) for t in rng.integers(0, 100, size=20)]
        now = 150
        base = weights(times, now)
        for shift in (1, -37, 10**6, -10**6):
            shifted = weights([t + shift for t in times], now + shift)
            assert shifted == base


class TestSampleWalk:
    def test_single_candidate_returned(self):
        kg = make_kg([(0, 0, 1, 5), (1, 1, 0, 3)])
        rng = np.random.default_rng(0)
        assert sample_walk(kg, Quadruple(0, 0, 1, 5), rng.random()) == 1

    def test_no_candidates_gives_none(self):
        kg = make_kg([(0, 0, 1, 5)])
        assert sample_walk(kg, Quadruple(0, 0, 1, 5), np.random.default_rng(0).random()) is None

    def test_same_time_edge_is_not_a_candidate(self):
        kg = make_kg([(0, 0, 1, 5), (1, 1, 0, 5)])
        assert sample_walk(kg, Quadruple(0, 0, 1, 5), np.random.default_rng(0).random()) is None

    def test_inverse_mapping_on_augmented_graph(self):
        # body stored as (0, 1, 1, 3); its mirror (1, inv_1, 0, 3) is the only
        # candidate, and the walk reports the original direction's id
        kg = make_kg([(0, 0, 1, 5), (0, 1, 1, 3)], inverse=True)
        got = sample_walk(kg, Quadruple(0, 0, 1, 5), np.random.default_rng(0).random())
        assert got == 1

    def test_large_time_steps_walk_as_small_ones(self):
        small = make_kg([(0, 0, 1, 5), (1, 1, 0, 1), (1, 2, 0, 3)])
        large = make_kg([(0, 0, 1, 2**60 + 5), (1, 1, 0, 2**60 + 1), (1, 2, 0, 2**60 + 3)])
        for u in np.linspace(0, 1, 50, endpoint=False).tolist():
            assert (sample_walk(large, Quadruple(0, 0, 1, 2**60 + 5), u)
                    == sample_walk(small, Quadruple(0, 0, 1, 5), u))

    def test_empirical_frequency_matches_weighting(self):
        kg = make_kg([(0, 0, 1, 5), (1, 1, 0, 4), (1, 2, 0, 1)])
        head = Quadruple(0, 0, 1, 5)
        rng = np.random.default_rng(99)
        hits = sum(1 for _ in range(100_000) if sample_walk(kg, head, rng.random()) == 1)
        expected = np.exp(-1) / (np.exp(-1) + np.exp(-4))
        assert hits / 100_000 == pytest.approx(expected, abs=0.01)


class TestWalkStreams:
    """Mining seeds each head's walks in one pass and computes every walk's
    draws from its PCG64 state, as `_derived_rng`'s stream would give them."""

    # 32-bit bounds (2**31 + 1 rejects about half of the first draws, 3 * 2**30
    # a quarter), the largest 32-bit bound and the 64-bit path
    BOUNDS = (1, 2, 3, 1000, 2**31 - 1, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32, 2**40 + 3)

    def test_states_match_default_rng(self):
        rng = np.random.default_rng(31)
        seeds = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        seeds += rng.integers(0, 2**64, size=1000, dtype=np.uint64).tolist()
        seeds += rng.integers(0, 2**32, size=200, dtype=np.uint64).tolist()
        seeds += [_derived_seed(7, "walk", head, i) for head in range(3) for i in range(100)]
        states = _pcg64_states(seeds)
        assert len(states) == len(seeds)
        for seed, state in zip(seeds, states):
            want = np.random.default_rng(seed).bit_generator.state["state"]
            assert state == (want["state"], want["inc"]), seed
        assert _pcg64_states([]) == []

    def test_walk_seeds_are_derived_seeds(self):
        for seed, head in ((0, 0), (7, 3), (2**40, 229)):
            assert _walk_seeds(seed, head, 120) == [
                _derived_seed(seed, "walk", head, i) for i in range(120)]
        assert _walk_seeds(7, 3, 0) == []

    def test_computed_draws_match_generator(self):
        # `integers(n)` then `random()` of each walk's `_derived_rng`
        seeds = [_derived_seed(7, "walk", head, i) for head in range(4) for i in range(300)]
        rejected = dict.fromkeys(self.BOUNDS, 0)
        rejected_twice = 0
        for seed, (state, inc) in zip(seeds, _pcg64_states(seeds)):
            first = np.random.PCG64(seed).random_raw()
            for n in self.BOUNDS:
                want = np.random.default_rng(seed)
                assert _walk_draws(state, inc, n) == (int(want.integers(n)), want.random()), (seed, n)
                # Lemire's method rejects a draw x when x * n mod 2**bits falls
                # under (2**bits - n) % n; a 32-bit draw then retries with the
                # high half of the same output, and after that a fresh output
                bits = 32 if n <= 2**32 else 64
                if first % 2**bits * n % 2**bits < (2**bits - n) % n:
                    rejected[n] += 1
                    rejected_twice += bits == 32 and (first >> 32) * n % 2**32 < (2**32 - n) % n
        assert rejected[2**31 + 1] > 0.4 * len(seeds) and rejected[3 * 2**30] > 0.15 * len(seeds)
        assert rejected_twice > 0.1 * len(seeds)

    @staticmethod
    def candidates_case(size):
        """A head edge with `size` returning candidates, candidate i the only
        one with relation i + 1; timestamps tie often, and sums above 8 (and
        128) terms turn pairwise. Returns the graph, the head, the candidate
        positions and their `transition_weights`."""
        rng = np.random.default_rng(size)
        head = Quadruple(0, 0, 1, 100)
        times = rng.integers(head.t - 8, head.t, size).tolist()
        kg = make_kg([tuple(head)] + [(1, i + 1, 0, t) for i, t in enumerate(times)],
                     n_entities=2, n_relations=size + 1)
        positions = kg.returning_positions(head.object, head.subject, head.t)
        return kg, head, positions, transition_weights(kg.ts[positions], head.t)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 130, 500, 3000])
    def test_step_matches_generator_choice(self, size):
        kg, head, positions, probs = self.candidates_case(size)
        for seed in range(40):
            walked, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
            pick = chosen.choice(size, p=probs)
            assert sample_walk(kg, head, walked.random()) == kg.rel[positions[pick]]
            assert walked.random() == chosen.random()  # the same draws consumed

    @pytest.mark.parametrize("size", [2, 3, 9, 130, 3000])
    def test_step_splits_where_generator_choice_does(self, size):
        # `u` at `Generator.choice`'s cumulative bounds and one ulp either side:
        # a float operation that rounds differently moves some pick
        kg, head, positions, probs = self.candidates_case(size)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        bounds = cdf[:-1][np.linspace(0, size - 2, min(size - 1, 40)).astype(int)]
        for u in np.concatenate([bounds, np.nextafter(bounds, 0), np.nextafter(bounds, 1)]):
            want = kg.rel[positions[cdf.searchsorted(u, side="right")]]
            assert sample_walk(kg, head, float(u)) == want, u


class TestEstimateConfidence:
    def test_hand_enumerated_example(self):
        kg = make_kg([(0, 0, 1, 1), (0, 1, 1, 2), (2, 0, 3, 1)], n_relations=2)
        assert estimate_confidence(kg, 1, 0, 10**9) == (2, 1, 0.5)

    def test_every_grounding_supported(self):
        kg = make_kg([(0, 0, 1, 1), (0, 1, 1, 2), (2, 0, 3, 1), (2, 1, 3, 5)],
                     n_relations=2)
        assert estimate_confidence(kg, 1, 0, 10**9) == (2, 2, 1.0)

    def test_head_before_body_not_supported(self):
        kg = make_kg([(0, 1, 1, 1), (0, 0, 1, 2)], n_relations=2)
        body_support, rule_support, confidence = estimate_confidence(kg, 1, 0, 10**9)
        assert (rule_support, confidence) == (0, 0.0)

    def test_missing_body_relation(self):
        kg = make_kg([(0, 0, 1, 1)])
        assert estimate_confidence(kg, 0, 7, 10**9) == (0, 0, 0.0)

    def test_cap_subsamples_groundings(self):
        quads = [(0, 0, 1, t) for t in range(100)] + [(0, 1, 1, 200)]
        kg = make_kg(quads, n_relations=2)
        body_support, rule_support, confidence = estimate_confidence(kg, 1, 0, 10, seed=0)
        assert body_support == 10
        assert rule_support == 10  # every grounding precedes the head event
        assert confidence == 1.0

    def test_cap_below_one_rejected(self):
        kg = make_kg([(0, 0, 1, 1)])
        with pytest.raises(ValueError):
            estimate_confidence(kg, 0, 0, 0)

    def test_matches_per_grounding_loop(self):
        rng = np.random.default_rng(23)
        for graph in range(60):
            quads = [
                (int(rng.integers(6)), int(rng.integers(3)), int(rng.integers(6)),
                 int(rng.integers(12)))
                for _ in range(int(rng.integers(0, 60)))
            ]
            kg = make_kg(quads, n_entities=6, n_relations=3, inverse=graph % 2 == 1)
            relations = range(len(kg.relations) + 1)  # one id the graph lacks
            for head in relations:
                for body in relations:
                    for cap in (10**9, 4):
                        got = estimate_confidence(kg, head, body, cap, seed=graph)
                        want = per_grounding_confidence(
                            kg, head, body, cap, _derived_rng(graph, "confidence", head, body))
                        assert got == want


class TestLearnRules:
    def test_planted_rule_recovered(self, synthetic_dataset, synthetic_bank):
        rules = synthetic_bank.rules_for(HEAD_RELATION)
        planted = [r for r in rules if r.body_relation == BODY_RELATION]
        assert planted, "planted implication not recovered"
        want = reference_confidence(
            [tuple(q) for q in edges_of(synthetic_dataset.train)],
            HEAD_RELATION,
            BODY_RELATION,
        )
        assert planted[0].confidence == pytest.approx(want[2], abs=0.05)
        assert (planted[0].body_support, planted[0].rule_support) == want[:2]

    def test_no_spurious_high_confidence_rules(self, synthetic_bank):
        for rule in synthetic_bank.rules_for(HEAD_RELATION):
            if rule.body_relation == BODY_RELATION:
                continue
            assert not (rule.confidence > 0.3 and rule.body_support >= 20)

    def test_no_returning_edges_yields_empty_bank(self):
        kg = make_kg([(0, 0, 1, 1), (1, 0, 2, 2), (2, 0, 3, 3)])
        bank = learn_rules(kg, MiningParams(num_walks=50, seed=0))
        assert len(bank) == 0

    def test_deterministic_serialization(self, synthetic_dataset):
        params = MiningParams(num_walks=50, seed=9)
        one = learn_rules(synthetic_dataset.train, params).to_json()
        two = learn_rules(synthetic_dataset.train, params).to_json()
        assert one == two

    def test_more_walks_never_drop_rules(self, synthetic_dataset):
        few = learn_rules(synthetic_dataset.train, MiningParams(num_walks=40, seed=3))
        many = learn_rules(synthetic_dataset.train, MiningParams(num_walks=120, seed=3))
        few_pairs = {(r.head_relation, r.body_relation)
                     for rs in few.rules_by_head.values() for r in rs}
        many_pairs = {(r.head_relation, r.body_relation)
                      for rs in many.rules_by_head.values() for r in rs}
        assert few_pairs <= many_pairs

    def test_matches_bruteforce_enumeration_on_small_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n_edges = int(rng.integers(20, 200))
            quads = sorted({
                (int(rng.integers(8)), int(rng.integers(4)), int(rng.integers(8)),
                 int(rng.integers(30)))
                for _ in range(n_edges)
            })
            kg = make_kg(quads, n_entities=8, n_relations=4, inverse=True)
            bank = learn_rules(kg, MiningParams(num_walks=30, min_body_support=1, seed=2))
            full = [tuple(q) for q in edges_of(kg)]
            for rules in bank.rules_by_head.values():
                for rule in rules:
                    want = reference_confidence(full, rule.head_relation, rule.body_relation)
                    assert (rule.body_support, rule.rule_support, rule.confidence) == want

    def test_rule_invariants(self, synthetic_bank):
        for rules in synthetic_bank.rules_by_head.values():
            bodies = [r.body_relation for r in rules]
            assert len(bodies) == len(set(bodies))
            for rule in rules:
                assert 0 < rule.confidence <= 1
                assert rule.rule_support >= 1
                assert rule.body_support >= synthetic_bank.params.min_body_support
            keys = [(-r.confidence, -r.rule_support, r.body_relation) for r in rules]
            assert keys == sorted(keys)

    def test_min_body_support_filters(self):
        # one grounding of (0 <- 1), supported once: survives only at floor 1
        kg = make_kg([(0, 0, 1, 2), (1, 1, 0, 1), (1, 0, 0, 3)], n_relations=2)
        strict = learn_rules(kg, MiningParams(num_walks=20, min_body_support=2, seed=0))
        loose = learn_rules(kg, MiningParams(num_walks=20, min_body_support=1, seed=0))
        assert len(strict) < len(loose)
        assert any(r.body_relation == 1 for r in loose.rules_for(0))

    def test_empty_graph_rejected(self):
        kg = make_kg([], n_entities=2, n_relations=1)
        with pytest.raises(ValueError, match="empty"):
            learn_rules(kg, MiningParams())

    def test_capped_confidence_uses_the_seeded_stream(self, synthetic_dataset):
        params = MiningParams(num_walks=30, grounding_cap=5, seed=6)
        kg = synthetic_dataset.train
        bank = learn_rules(kg, params)
        capped = [r for rules in bank.rules_by_head.values() for r in rules
                  if r.body_support == params.grounding_cap]
        assert capped
        for rule in capped:
            rng = _derived_rng(params.seed, "confidence", rule.head_relation,
                               rule.body_relation)
            assert (rule.body_support, rule.rule_support, rule.confidence) == \
                per_grounding_confidence(kg, rule.head_relation, rule.body_relation,
                                         params.grounding_cap, rng)

    def test_worker_count_does_not_change_bank(self, synthetic_dataset):
        params = MiningParams(num_walks=30, seed=4)
        serial = learn_rules(synthetic_dataset.train, params, workers=1)
        parallel = learn_rules(synthetic_dataset.train, params, workers=2)
        assert serial.to_json() == parallel.to_json()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, synthetic_dataset, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            learn_rules(synthetic_dataset.train, MiningParams(num_walks=5), workers=workers)

    def test_pool_holds_at_most_one_process_per_cpu(self, synthetic_dataset, monkeypatch):
        """A stand-in pool that runs serially records the size it is asked
        for; no process is started."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(rules, "_WORKER_KG", None)
        monkeypatch.setattr(rules, "_WORKER_PARAMS", None)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        params = MiningParams(num_walks=30, seed=4)
        serial = learn_rules(synthetic_dataset.train, params).to_json()
        for workers, size in ((2, 2), (3, 3), (4, 3), (10**6, 3)):
            assert learn_rules(synthetic_dataset.train, params, workers=workers).to_json() \
                == serial
            assert sizes.pop() == size
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable: serial
        assert learn_rules(synthetic_dataset.train, params, workers=4).to_json() == serial
        assert sizes == []


class TestMiningAgainstReference:
    """`learn_rules` against the miner that seeds a fresh `_derived_rng` per
    walk, steps with `Generator.choice` and searches the latest head time of
    every grounding (`reference_learn_rules`)."""

    @staticmethod
    def random_case(seed):
        rng = np.random.default_rng(seed)
        n_entities, n_relations = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        quads = [(int(rng.integers(n_entities)), int(rng.integers(n_relations)),
                  int(rng.integers(n_entities)), int(rng.integers(15)))
                 for _ in range(int(rng.integers(1, 70)))]
        kg = make_kg(quads, n_entities, n_relations, inverse=seed % 2 == 1)
        params = MiningParams(num_walks=int(rng.integers(1, 25)),
                              min_body_support=int(rng.integers(1, 3)),
                              grounding_cap=int(rng.choice([2, 3, 10**6])),
                              seed=int(rng.integers(2**31)))
        return kg, params

    def test_learn_rules_matches_reference(self):
        capped = closed_nothing = 0
        for seed in range(200):
            kg, params = self.random_case(seed)
            want = reference_learn_rules(kg, params)
            for workers in (1, 2) if seed % 25 == 0 else (1,):
                assert learn_rules(kg, params, workers=workers).to_json() == want.to_json()
            capped += any(r.body_support == params.grounding_cap
                          < np.count_nonzero(kg.rel == r.body_relation)
                          for rules in want.rules_by_head.values() for r in rules)
            closed_nothing += any(
                not any(kg.returning_positions(q.object, q.subject, q.t).size
                        for q in edges_of(kg, kg.rel == r))
                for r in np.unique(kg.rel))
        # both the capped confidence path and heads whose walks never close ran
        assert capped >= 10 and closed_nothing >= 10


class TestParamsAndSerialization:
    def test_rule_length_must_be_one(self):
        with pytest.raises(ValueError, match="rule_length"):
            MiningParams(rule_length=2)

    def test_num_walks_must_be_positive(self):
        with pytest.raises(ValueError):
            MiningParams(num_walks=0)

    def test_bank_roundtrip(self, synthetic_bank, tmp_path):
        path = tmp_path / "rules.json"
        synthetic_bank.save(str(path))
        loaded = RuleBank.load(str(path))
        assert loaded.to_json() == synthetic_bank.to_json()

    def test_save_writes_the_json_and_a_newline(self, synthetic_bank, tmp_path):
        path = tmp_path / "rules.json"
        synthetic_bank.save(str(path))
        assert path.read_text(encoding="utf-8") == synthetic_bank.to_json() + "\n"
        assert os.listdir(tmp_path) == ["rules.json"]

    def test_failed_save_keeps_previous_file(self, synthetic_bank, tmp_path, disk_full):
        path = tmp_path / "rules.json"
        path.write_text("previous\n")
        disk_full(100)
        with pytest.raises(OSError):
            synthetic_bank.save(str(path))
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["rules.json"]

    def test_tampered_confidence_rejected(self, synthetic_bank):
        payload = json.loads(synthetic_bank.to_json())
        payload["rules"][0]["confidence"] = 0.123456
        with pytest.raises(ValueError):
            RuleBank.from_json(json.dumps(payload))

    def test_tampered_order_rejected(self, synthetic_bank):
        payload = json.loads(synthetic_bank.to_json())
        by_head = {}
        for row in payload["rules"]:
            by_head.setdefault(row["head"], []).append(row)
        head, rows = next((h, r) for h, r in by_head.items() if len(r) >= 2)
        rows[0], rows[-1] = rows[-1], rows[0]
        payload["rules"] = [row for h in sorted(by_head) for row in by_head[h]]
        with pytest.raises(ValueError, match="bank order"):
            RuleBank.from_json(json.dumps(payload))

    def test_rule_support_bounds_validated(self):
        with pytest.raises(ValueError):
            TemporalRule(0, 1, body_support=2, rule_support=3, confidence=1.5)

    @pytest.mark.parametrize("field, value, message", [
        ("body", "0", "rules[1].body: expected int, got '0'"),
        ("head", "0", "rules[1].head: expected int, got '0'"),
        ("body", -5, "rules[1]: head_relation and body_relation must be >= 0"),
        ("body", 1.5, "rules[1].body: expected int, got 1.5"),
        ("head", True, "rules[1].head: expected int, got True"),
        ("body_support", None, "rules[1].body_support: expected int, got None"),
        ("rule_support", False, "rules[1].rule_support: expected int, got False"),
        ("confidence", "0.5", "rules[1].confidence: expected float, got '0.5'"),
        ("confidence", True, "rules[1].confidence: expected float, got True"),
    ], ids=["body-str", "head-str", "body-negative", "body-float", "head-bool",
            "body_support-null", "rule_support-bool", "confidence-str", "confidence-bool"])
    def test_rule_field_types_rejected(self, synthetic_bank, field, value, message):
        payload = json.loads(synthetic_bank.to_json())
        payload["rules"][1][field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RuleBank.from_json(json.dumps(payload))

    def test_integral_confidence_accepted(self):
        """A confidence of exactly 1 may be written as the JSON integer 1."""
        bank = RuleBank({0: [TemporalRule(0, 1, 2, 2, 1.0)]}, MiningParams())
        payload = json.loads(bank.to_json())
        payload["rules"][0]["confidence"] = 1
        assert RuleBank.from_json(json.dumps(payload)).rules_for(0)[0].confidence == 1
