"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them live)."""
import hashlib
import json
import os
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from tkgrag.cli import main
from tkgrag.client import (
    EndpointError,
    GenParams,
    MalformedResponseError,
    TransportError,
    generate,
    generate_batch,
)
from tkgrag.evaluation import (
    EvalRecord,
    OraclePredictor,
    ablation_run,
    build_filter_index,
    hits_at_k,
    run_eval,
    time_aware_filter,
)
from tkgrag.kg import DatasetSpec, load_dataset
from tkgrag.prompts import PromptConfig, build_prompt, export_finetune_set
from tkgrag.retrieval import (
    Query,
    RetrievalConfig,
    queries_from_split,
    retrieve,
)
from tkgrag.rules import MiningParams, learn_rules
from tkgrag.synthetic import BODY_RELATION, HEAD_RELATION

from conftest import (
    edges_of,
    make_kg,
    reference_confidence,
    reference_filter,
    reference_retrieve,
    reference_rule_scores,
    transition_weights,
)
from golden_fixture import GOLDEN_DIR, golden_history, golden_kg, golden_name
from test_client import StubEndpoint
from test_prompts import audit_no_leakage
from test_retrieval import bank_of


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {description}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {number:02d} {description}: PASS", flush=True)


def test_01_transition_distribution_oracle():
    with criterion(1, "recency-weighted transition law matches 1e-12 oracle"):
        rng = np.random.default_rng(2027)
        mp.mp.dps = 60
        start = time.perf_counter()
        for _ in range(100):
            size = int(rng.integers(1, 51))
            offset = int(rng.integers(-10**7, 10**7))
            now = offset + int(rng.integers(1, 1000))
            times = [int(rng.integers(offset - 1000, now)) for _ in range(size)]
            got = transition_weights(np.array(times), now).tolist()
            weights = [mp.e ** (mp.mpf(t) - now) for t in times]
            total = sum(weights)
            for g, w in zip(got, weights):
                assert abs(g - float(w / total)) <= 1e-12
            assert abs(sum(got) - 1.0) <= 1e-12
            shift = int(rng.integers(-10**6, 10**6))
            shifted = transition_weights(np.array(times) + shift, now + shift).tolist()
            assert shifted == got  # shift invariance, bit-exact
        assert time.perf_counter() - start < 1.0


def test_02_planted_rule_recovery(synthetic_dataset, synthetic_bank):
    with criterion(2, "planted implication recovered at enumerated confidence"):
        start = time.perf_counter()
        bank = learn_rules(synthetic_dataset.train, MiningParams(num_walks=200, seed=1))
        elapsed = time.perf_counter() - start
        rules = bank.rules_for(HEAD_RELATION)
        planted = [r for r in rules if r.body_relation == BODY_RELATION]
        assert planted, "planted rule missing from the mined bank"
        quads = [tuple(q) for q in edges_of(synthetic_dataset.train)]
        _, _, enumerated = reference_confidence(quads, HEAD_RELATION, BODY_RELATION)
        assert abs(planted[0].confidence - enumerated) <= 0.05
        for rule in rules:
            if rule.body_relation != BODY_RELATION:
                assert not (rule.confidence > 0.3 and rule.body_support >= 20), rule
        assert elapsed < 10.0


def test_03_retrieval_bruteforce_equivalence():
    with criterion(3, "retrieval equals index-free reference on 200 random cases"):
        rng = np.random.default_rng(404)
        start = time.perf_counter()
        for case in range(200):
            n_edges = int(rng.integers(10, 501))
            quads = sorted({
                (int(rng.integers(7)), int(rng.integers(5)), int(rng.integers(7)),
                 int(rng.integers(50)))
                for _ in range(n_edges)
            })
            kg = make_kg(quads, n_entities=7, n_relations=5)
            rules = []
            for head in map(int, rng.permutation(5)[: int(rng.integers(1, 4))]):
                for rank, body in enumerate(
                    map(int, rng.permutation(5)[: int(rng.integers(1, 4))])
                ):
                    rules.append((head, body, round(0.95 - 0.15 * rank, 2)))
            bank = bank_of(*rules)
            cfg = RetrievalConfig(
                window=int(rng.integers(1, 55)) if rng.random() < 0.6 else None,
                max_history=int(rng.integers(1, 25)),
                stepwise=bool(rng.random() < 0.3),
            )
            query = Query(int(rng.integers(7)), int(rng.integers(5)), int(rng.integers(50)))
            got = retrieve(kg, bank, query, cfg)
            want = reference_retrieve(quads, bank, query, cfg)
            assert got.facts == want.facts and got.provenance == want.provenance, case
        assert time.perf_counter() - start < 30.0


def test_04_metric_oracle():
    with criterion(4, "filter and hits match 20 hand-computed cases"):
        gold = 9

        def rec(rank):
            return EvalRecord(Query(0, 0, 1, gold_object=gold), (), rank)

        # 20 crafted cases: (ranked, co-true-others, expected-filtered, expected-rank)
        cases = [
            ([1, 2, gold], {1, 2}, [gold], 1),
            ([1, 2, gold], set(), [1, 2, gold], 3),
            ([gold], {gold}, [gold], 1),
            ([gold, 1], {1}, [gold], 1),
            ([1, gold, 2], {2}, [1, gold], 2),
            ([1, gold, 2], {1, 2}, [gold], 1),
            ([], {1}, [], None),
            ([1, 2, 3], {2}, [1, 3], None),
            ([3, 1, gold, 2], {1}, [3, gold, 2], 2),
            ([5, 6, 7, gold], {5, 6, 7}, [gold], 1),
            ([5, 6, 7, gold], {6}, [5, 7, gold], 3),
            ([gold, 5, 6], set(), [gold, 5, 6], 1),
            ([2, gold], {3, 4}, [2, gold], 2),
            ([4, 3, 2, 1, gold], {4, 2}, [3, 1, gold], 3),
            ([1], set(), [1], None),
            ([gold, 1, 2, 3, 4, 5, 6, 7, 8], {1}, [gold, 2, 3, 4, 5, 6, 7, 8], 1),
            ([8, 7, 6, 5, 4, 3, 2, 1, gold], set(), [8, 7, 6, 5, 4, 3, 2, 1, gold], 9),
            ([8, 7, 6, 5, 4, 3, 2, 1, gold], {8, 7, 6, 5, 4, 3, 2, 1}, [gold], 1),
            ([1, 2], {1, 2}, [], None),
            ([2, 1, gold], {1}, [2, gold], 2),
        ]
        assert len(cases) == 20
        records = []
        for ranked, others, want_filtered, want_rank in cases:
            query = Query(0, 0, 7, gold_object=gold)
            index = make_kg([(0, 0, o, 7) for o in others], n_entities=gold + 1)
            got = time_aware_filter(ranked, query, index)
            assert got == want_filtered
            rank = got.index(gold) + 1 if gold in got else None
            assert rank == want_rank
            records.append(rec(rank))

        # includes the pinned rank table [1, 2, none, 11]
        table = [rec(1), rec(2), rec(None), rec(11)]
        assert hits_at_k(table, 1) == 0.25
        assert hits_at_k(table, 3) == 0.50
        assert hits_at_k(table, 10) == 0.50

        rng = np.random.default_rng(11)
        for _ in range(1000):
            rnd = [
                rec(None if rng.random() < 0.3 else int(rng.integers(1, 15)))
                for _ in range(int(rng.integers(1, 25)))
            ]
            h1, h3, h10 = (hits_at_k(rnd, k) for k in (1, 3, 10))
            assert h1 <= h3 <= h10


def test_05_end_to_end_oracle_run(synthetic_dataset, synthetic_bank):
    with criterion(5, "pipeline matches brute-force scorer; longer history helps"):
        start = time.perf_counter()
        union = synthetic_dataset.union_kg()
        queries = queries_from_split(synthetic_dataset, "test")
        filter_index = build_filter_index(synthetic_dataset)
        report, _ = run_eval(
            union, synthetic_bank, queries, OraclePredictor(synthetic_bank),
            RetrievalConfig(max_history=50), PromptConfig(max_facts=50), filter_index,
        )

        # independent scorer: list-filter retrieval + dict scoring + direct rank
        raw = [tuple(q) for q in edges_of(union)]
        true_quads = {tuple(q) for name in ("train", "valid", "test")
                      for q in synthetic_dataset.split(name).base_quads().tolist()}
        hits1 = 0
        for query in queries:
            history = reference_retrieve(raw, synthetic_bank, query,
                                         RetrievalConfig(max_history=50))
            ranked = reference_rule_scores(history, synthetic_bank)
            survivors = reference_filter(ranked, query, true_quads)
            if survivors and survivors[0] == query.gold_object:
                hits1 += 1
        assert abs(report.hits1 - hits1 / len(queries)) <= 0.02

        cells = ablation_run(
            union, synthetic_bank, queries, ["ascending"], [10, 50], ["index"],
            OraclePredictor(synthetic_bank), RetrievalConfig(max_history=50),
            filter_index,
        )
        short = next(c.report for c in cells if c.history_length == 10)
        long = next(c.report for c in cells if c.history_length == 50)
        assert long.hits1 >= short.hits1
        assert long.hits3 >= short.hits3
        assert long.hits10 >= short.hits10
        assert time.perf_counter() - start < 60.0


def test_06_golden_prompts():
    with criterion(6, "prompt rendering is byte-identical to golden files"):
        kg = golden_kg()
        history = golden_history()
        for fmt in ("index", "lexical"):
            for order in ("ascending", "descending", "random", "timestamps-removed"):
                cfg = PromptConfig(format=fmt, order=order, order_seed=0)
                text = build_prompt(history, cfg, kg).text
                path = os.path.join(GOLDEN_DIR, golden_name(fmt, order))
                with open(path, encoding="utf-8") as fh:
                    assert text == fh.read(), (fmt, order)
        prompt = build_prompt(history, PromptConfig(), kg)
        assert prompt.query_prefix == "334:[Abdul, Make_an_appeal_or_request,"
        assert prompt.index_map == {1: 0, 2: 1}


REAL_DATASETS = {
    "icews14": (74854, 8514, 7371, 7128, 230),
    "icews18": (373018, 45995, 49545, 23033, 256),
    "gdelt": (79319, 9957, 9715, 5850, 238),
    "yago": (220393, 28948, 22765, 10778, 23),
}


def test_07_real_dataset_fidelity():
    root = os.environ.get("TKGRAG_DATA", "data")
    available = {
        name: os.path.join(root, name)
        for name in REAL_DATASETS
        if os.path.exists(os.path.join(root, name, "train.txt"))
    }
    if not available:
        pytest.skip(
            f"real dataset dumps not present under {root!r}; place "
            "icews14/icews18/gdelt/yago there (or set TKGRAG_DATA) to run the "
            "fidelity check"
        )
    with criterion(7, "real dataset dumps reproduce the published statistics"):
        for name, directory in available.items():
            ds = load_dataset(directory, DatasetSpec(time_gap=1, inverse=False))
            want = REAL_DATASETS[name]
            got = (*(len(ds.split(split).base_quads()) for split in ("train", "valid", "test")),
                   len(ds.entities), ds.num_base_relations)
            assert got == want, name


def test_08_export_fidelity(synthetic_dataset, synthetic_bank, tmp_path):
    with criterion(8, "K-shot exports are exact, deterministic, and leak-free"):
        for k in (16, 512, 1024):
            out = tmp_path / f"finetune-{k}.jsonl"
            manifest = export_finetune_set(
                synthetic_dataset, synthetic_bank, k,
                RetrievalConfig(), PromptConfig(), seed=1, out_path=str(out),
            )
            rows = [json.loads(line) for line in open(out, encoding="utf-8")]
            assert len(rows) == k == manifest["n_samples"]
            for row in rows:
                assert set(row) == {"instruction", "input", "output"} and row["output"]
            assert audit_no_leakage(out) == k
            again = tmp_path / f"again-{k}.jsonl"
            export_finetune_set(synthetic_dataset, synthetic_bank, k,
                                RetrievalConfig(), PromptConfig(), seed=1,
                                out_path=str(again))
            assert out.read_bytes() == again.read_bytes()


def _performance_graph():
    """74854 edges after inverse augmentation, 230 relation ids, 7128 entities,
    with the skewed interaction profile of real event data."""
    rng = np.random.default_rng(75000)
    n_entities, n_base, target = 7128, 115, 37427
    quads = set()
    while len(quads) < target:
        block = target - len(quads) + 1000
        subs = (rng.zipf(1.35, block) - 1) % n_entities
        objs = (rng.zipf(1.35, block) - 1) % n_entities
        rels = (rng.zipf(1.6, block) - 1) % n_base
        ts = rng.integers(0, 365, block)
        for s, r, o, t in zip(subs, rels, objs, ts):
            if s != o:
                quads.add((int(s), int(r), int(o), int(t)))
                if len(quads) == target:
                    break
    return make_kg(sorted(quads), n_entities=n_entities, n_relations=n_base,
                   inverse=True)


def test_09_mining_and_retrieval_performance():
    with criterion(9, "desk-scale mining < 60 s and 7371-query retrieval < 30 s"):
        kg = _performance_graph()
        assert len(kg) == 74854
        assert len(kg.relations) == 230
        start = time.perf_counter()
        bank = learn_rules(kg, MiningParams(num_walks=200, seed=7))
        mining_elapsed = time.perf_counter() - start
        assert mining_elapsed < 60.0, f"mining took {mining_elapsed:.1f}s"
        assert len(bank) > 0
        # the rule bank's bytes are pinned, so a faster miner must mine the same rules
        assert hashlib.sha256((bank.to_json() + "\n").encode()).hexdigest() == (
            "ef6035c9e642d89fc0c37afa98a5e415195e29b0dae54eadb671a81a4f35911b"
        )

        rng = np.random.default_rng(1)
        positions = rng.choice(len(kg), size=7371, replace=False)
        queries = [
            Query(int(kg.sub[p]), int(kg.rel[p]) % kg.num_base_relations,
                  int(kg.ts[p]), int(kg.obj[p]))
            for p in positions
        ]
        start = time.perf_counter()
        cfg = RetrievalConfig(max_history=50)
        histories = [retrieve(kg, bank, query, cfg) for query in queries]
        retrieval_elapsed = time.perf_counter() - start
        assert retrieval_elapsed < 30.0, f"retrieval took {retrieval_elapsed:.1f}s"
        assert len(histories) == 7371
        print(f"\n  [mining {mining_elapsed:.1f}s, retrieval {retrieval_elapsed:.1f}s]")


def test_10_client_robustness():
    with criterion(10, "client respects retry budget, bounds, and error taxonomy"):
        params = GenParams(num_sequences=1, timeout=0.5, retries=2, backoff=0.01,
                           in_flight=4)
        stub = StubEndpoint(script=["drop"] * 10)
        try:
            with pytest.raises(TransportError):
                generate("p", params, stub.url)
            assert stub.attempts == 3  # 1 + retry budget
        finally:
            stub.close()

        stub = StubEndpoint(script=["malformed"])
        try:
            with pytest.raises(MalformedResponseError):
                generate("p", params, stub.url)
        finally:
            stub.close()

        stub = StubEndpoint(script=["error-payload"])
        try:
            with pytest.raises(EndpointError):
                generate("p", params, stub.url)
        finally:
            stub.close()

        stub = StubEndpoint(script=["delay"], delay=3.0)
        try:
            with pytest.raises(TransportError):
                generate("p", GenParams(timeout=0.2, retries=0), stub.url)
        finally:
            stub.close()

        # mixed-fault batch: bounded concurrency, bounded wall time, no deadlock
        script = ["drop", "ok", "malformed", "ok"] * 10
        stub = StubEndpoint(script=script, sequences=["a]"], hold=0.02)
        try:
            start = time.time()
            failures = 0
            try:
                generate_batch([f"p{i}" for i in range(12)], params, stub.url)
            except (TransportError, MalformedResponseError, EndpointError):
                failures += 1
            assert time.time() - start < 30
            assert stub.peak_active <= params.in_flight
        finally:
            stub.close()


def test_11_interrupted_writes_recover(synthetic_dir, tmp_path, disk_full):
    with criterion(11, "torn journals resume, bad ones exit 1, failed writes keep old files"):
        runner = CliRunner()
        rules = tmp_path / "rules.json"
        mine = ["mine", "--dataset-dir", str(synthetic_dir), "--walks", "50",
                "--out", str(rules)]
        assert runner.invoke(main, mine).exit_code == 0
        mined = rules.read_bytes()

        out_dir = tmp_path / "run"
        evaluate = ["eval", "--dataset-dir", str(synthetic_dir), "--rules", str(rules),
                    "--predictor", "oracle", "--out-dir", str(out_dir)]
        assert runner.invoke(main, evaluate).exit_code == 0
        journal, report = out_dir / "records.jsonl", out_dir / "report.json"
        full, reported = journal.read_bytes(), report.read_bytes()

        # killed mid-append: the torn record is cut off and computed again
        journal.write_bytes(full[:-25])
        result = runner.invoke(main, evaluate)
        assert result.exit_code == 0, result.output
        assert (journal.read_bytes(), report.read_bytes()) == (full, reported)

        # damage before the last line is not a torn append: validation error
        lines = full.splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3] + [b"{\n"] + lines[4:]))
        result = runner.invoke(main, evaluate)
        assert result.exit_code == 1 and "error:" in result.output

        # a disk filling up mid-write leaves the previous artifacts in place
        journal.write_bytes(b"".join(lines[:-1]))
        disk_full(64)
        for command, path, before in ((mine, rules, mined), (evaluate, report, reported)):
            result = runner.invoke(main, command)
            assert result.exit_code == 2, result.output
            assert path.read_bytes() == before
            assert not [name for name in os.listdir(path.parent) if name.endswith(".tmp")]


def test_11_failed_artifact_writes_keep_old_files(synthetic_dir, tmp_path, disk_full):
    with criterion(11, "a failed histories or export write keeps the old file"):
        runner = CliRunner()
        data = ["--dataset-dir", str(synthetic_dir)]
        rules = tmp_path / "rules.json"
        mine = ["mine", *data, "--walks", "50", "--out", str(rules)]
        assert runner.invoke(main, mine).exit_code == 0

        # the first runs also create the missing output directory
        histories = tmp_path / "out" / "histories.jsonl"
        finetune = tmp_path / "out" / "finetune.jsonl"
        commands = (
            (["retrieve", *data, "--rules", str(rules), "--out", str(histories)], histories),
            (["export", *data, "--rules", str(rules), "--k", "8", "--seed", "1",
              "--out", str(finetune)], finetune),
        )
        before = {}
        for command, path in commands:
            result = runner.invoke(main, command)
            assert result.exit_code == 0, result.output
            before[path] = path.read_bytes()

        disk_full(64)
        for command, path in commands:
            result = runner.invoke(main, command)
            assert result.exit_code == 2, result.output
            assert path.read_bytes() == before[path]
            assert not [name for name in os.listdir(path.parent) if name.endswith(".tmp")]
