import errno
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys

import click
import pytest
from click.testing import CliRunner

import tkgrag
from tkgrag import cli, evaluation, retrieval, synthetic
from tkgrag.cli import main
from tkgrag.client import rule_score_predict
from tkgrag.config import build_run_config, stable_hash
from tkgrag.evaluation import CHUNK_SIZE, run_eval
from tkgrag.kg import load_dataset
from tkgrag.prompts import DEFAULT_INSTRUCTION, PromptConfig, build_prompt, select_history
from tkgrag.retrieval import RetrievalConfig, queries_from_split, retrieve
from tkgrag.rules import MiningParams, RuleBank

from test_client import StubEndpoint


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def record_sha256(path):
    """Record the bytes of the file `path` in the manifest a command wrote
    beside it, when there is one, as if that command had written them: a
    manifest that describes other bytes is refused before the file is read."""
    manifest = path.with_name(path.name + ".manifest.json")
    if manifest.exists():
        payload = json.loads(manifest.read_text())
        payload["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(payload))


def strip_created_at(path):
    payload = json.loads(open(path, encoding="utf-8").read())
    payload.pop("created_at", None)
    return payload


class TestSynthAndMine:
    def test_synth_writes_dataset(self, runner, tmp_path):
        out = tmp_path / "data"
        result = run_ok(runner, ["synth", "--out", str(out), "--seed", "3"])
        assert "wrote" in result.output
        for name in ("train.txt", "valid.txt", "test.txt",
                      "entity2id.txt", "relation2id.txt", "ground_truth.json"):
            assert (out / name).exists()

    def test_failed_synth_keeps_previous_dataset(self, runner, tmp_path, disk_full):
        out = tmp_path / "data"
        run_ok(runner, ["synth", "--out", str(out), "--seed", "3"])
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        disk_full(1000)
        result = runner.invoke(main, ["synth", "--out", str(out), "--seed", "4"])
        assert result.exit_code == 2, result.output
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        assert os.listdir(tmp_path) == ["data"]

    def test_synth_refuses_a_directory_with_other_files(self, runner, tmp_path):
        out = tmp_path / "work"
        out.mkdir()
        (out / "notes.txt").write_text("keep me\n")
        result = runner.invoke(main, ["synth", "--out", str(out), "--seed", "3"])
        assert result.exit_code == 1, result.output
        assert "notes.txt" in result.output
        assert os.listdir(out) == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["work"]

    @pytest.mark.parametrize("args, message", [
        (["--entities", "100000000000000000000"],
         "n_entities: expected int, got 100000000000000000000"),
        (["--body-events", "-5", "--noise-events", "-5"],
         "n_body_events: expected an int >= 0, got -5"),
        (["--noise-events", "-5"], "n_noise_events: expected an int >= 0, got -5"),
        (["--seed", "-1"], "seed: expected an int >= 0, got -1"),
    ], ids=["entities-beyond-64-bits", "negative-events", "negative-noise", "negative-seed"])
    def test_synth_refuses_a_spec_it_cannot_build(self, runner, tmp_path, args, message):
        """A count or seed that is negative or beyond 64 bits exits 1 naming
        its field, before any event is drawn."""
        result = runner.invoke(main, ["synth", "--out", str(tmp_path / "data"), *args])
        assert (result.exit_code, result.output) == (1, f"error: {message}\n")
        assert os.listdir(tmp_path) == []

    def test_mine_writes_rules_and_manifest(self, runner, synthetic_dir, tmp_path):
        rules = tmp_path / "rules.json"
        result = run_ok(runner, [
            "mine", "--dataset-dir", str(synthetic_dir), "--walks", "50",
            "--seed", "1", "--out", str(rules),
        ])
        assert "mined" in result.output
        payload = json.loads(rules.read_text())
        assert payload["params"]["num_walks"] == 50
        assert payload["params"]["seed"] == 1
        manifest = strip_created_at(str(rules) + ".manifest.json")
        assert manifest["command"] == "mine"
        assert manifest["config"]["mining"]["num_walks"] == 50
        assert manifest["fingerprint"]

    def test_mine_is_deterministic(self, runner, synthetic_dir, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            run_ok(runner, ["mine", "--dataset-dir", str(synthetic_dir),
                            "--walks", "30", "--seed", "2", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
        fp_a = strip_created_at(str(a) + ".manifest.json")["fingerprint"]
        fp_b = strip_created_at(str(b) + ".manifest.json")["fingerprint"]
        assert fp_a == fp_b

    def test_dataset_name_resolves_under_data_root(self, runner, synthetic_dir, tmp_path):
        root = synthetic_dir.parent
        name = synthetic_dir.name
        rules = tmp_path / "rules.json"
        run_ok(runner, ["mine", "--dataset", name, "--data-root", str(root),
                        "--walks", "10", "--out", str(rules)])
        assert rules.exists()


@pytest.fixture(scope="module")
def mined_rules(tmp_path_factory, synthetic_dir):
    rules = tmp_path_factory.mktemp("rules") / "rules.json"
    result = CliRunner().invoke(main, [
        "mine", "--dataset-dir", str(synthetic_dir), "--walks", "200",
        "--seed", "1", "--out", str(rules),
    ], catch_exceptions=False)
    assert result.exit_code == 0
    return rules


class TestPipelineCommands:
    def test_retrieve_then_prompt_then_infer(self, runner, synthetic_dir, mined_rules, tmp_path):
        histories = tmp_path / "histories.jsonl"
        run_ok(runner, [
            "retrieve", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--split", "test", "--out", str(histories),
        ])
        n_queries = sum(1 for _ in open(histories))
        assert n_queries > 0

        prompts = tmp_path / "prompts.jsonl"
        run_ok(runner, [
            "prompt", "--dataset-dir", str(synthetic_dir),
            "--histories", str(histories), "--out", str(prompts),
        ])
        rows = [json.loads(line) for line in open(prompts)]
        assert len(rows) == n_queries
        assert all(row["text"].endswith(row["query_prefix"]) for row in rows)

        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            predictions = tmp_path / "predictions.jsonl"
            run_ok(runner, [
                "infer", "--dataset-dir", str(synthetic_dir),
                "--prompts", str(prompts), "--endpoint", stub.url,
                "--num-sequences", "1", "--retries", "1", "--out", str(predictions),
            ])
            parsed = [json.loads(line) for line in open(predictions)]
            assert len(parsed) == n_queries
            assert all("ranked" in row for row in parsed)
            assert [row["query"] for row in parsed] == [row["query"] for row in rows]
            # infer runs without a seed, so no request carries one
            assert len(stub.payloads) == n_queries
            assert not [payload for payload in stub.payloads if "seed" in payload]
        finally:
            stub.close()

    def test_prompt_decodes_each_provenance_once(self, runner, synthetic_dir, mined_rules,
                                                 tmp_path, monkeypatch):
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        rows = [json.loads(line) for line in open(histories)]
        distinct = {json.dumps(fact["provenance"]) for row in rows for fact in row["facts"]}
        assert len(rows) > len(distinct) > 1
        decodes = []
        typed = retrieval.typed

        def counting(kind, value, field):
            if kind is retrieval.Provenance:
                decodes.append(value)
            return typed(kind, value, field)

        monkeypatch.setattr(retrieval, "typed", counting)
        run_ok(runner, ["prompt", "--dataset-dir", str(synthetic_dir),
                        "--histories", str(histories), "--out", str(tmp_path / "p.jsonl")])
        assert len(decodes) == len(distinct)

    def test_infer_uses_endpoint_env(self, runner, synthetic_dir, mined_rules, tmp_path):
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        prompts = tmp_path / "p.jsonl"
        run_ok(runner, ["prompt", "--dataset-dir", str(synthetic_dir),
                        "--histories", str(histories), "--out", str(prompts)])
        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            run_ok(runner, [
                "infer", "--dataset-dir", str(synthetic_dir), "--prompts", str(prompts),
                "--out", str(tmp_path / "out.jsonl"),
            ], env={"TKGRAG_ENDPOINT": stub.url})
        finally:
            stub.close()

    def test_export_writes_k_samples(self, runner, synthetic_dir, mined_rules, tmp_path):
        out = tmp_path / "finetune.jsonl"
        result = run_ok(runner, [
            "export", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--k", "16", "--seed", "1", "--out", str(out),
        ])
        assert "exported 16 samples" in result.output
        assert sum(1 for _ in open(out)) == 16
        manifest = json.loads((tmp_path / "finetune.jsonl.manifest.json").read_text())
        assert manifest["k"] == 16

    def test_eval_oracle_writes_report(self, runner, synthetic_dir, mined_rules, tmp_path):
        out_dir = tmp_path / "run"
        result = run_ok(runner, [
            "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--predictor", "oracle", "--out-dir", str(out_dir),
        ])
        assert "hits@1" in result.output
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report["hits"]) == {"1", "3", "10"}
        assert (out_dir / "records.jsonl").exists()
        manifest = strip_created_at(out_dir / "manifest.json")
        assert manifest["fingerprint"] == report["fingerprint"]

    def test_eval_is_deterministic(self, runner, synthetic_dir, mined_rules, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for out_dir in dirs:
            run_ok(runner, [
                "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--predictor", "oracle", "--out-dir", str(out_dir),
            ])
        assert (dirs[0] / "records.jsonl").read_bytes() == (dirs[1] / "records.jsonl").read_bytes()
        assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()

    def test_eval_seed_list_reports_mean_and_range(
        self, runner, synthetic_dir, mined_rules, tmp_path
    ):
        out_dir = tmp_path / "multi"
        result = run_ok(runner, [
            "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--predictor", "oracle", "--seeds", "1,2", "--out-dir", str(out_dir),
        ])
        assert "±" in result.output
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seeds"] == [1, 2]
        # the oracle is deterministic, so the spread collapses to zero
        assert summary["hits"]["1"]["half_range"] == 0.0
        assert (out_dir / "seed-1" / "report.json").exists()
        assert (out_dir / "seed-2" / "report.json").exists()

    def test_eval_seeds_reach_the_endpoint(self, runner, synthetic_dir, mined_rules, tmp_path):
        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            run_ok(runner, [
                "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--predictor", "llm", "--endpoint", stub.url, "--num-sequences", "1",
                "--seeds", "1,2", "--out-dir", str(tmp_path / "multi"),
            ])
            run_ok(runner, [
                "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--predictor", "llm", "--endpoint", stub.url, "--num-sequences", "1",
                "--out-dir", str(tmp_path / "single"),
            ])
        finally:
            stub.close()
        n_queries = json.loads((tmp_path / "single" / "report.json").read_text())["n_queries"]
        seeds = [payload.get("seed") for payload in stub.payloads]
        # one run per seed, each sending its own; a run without --seeds sends none
        assert seeds == [1] * n_queries + [2] * n_queries + [None] * n_queries

    def test_ablate_writes_summary(self, runner, synthetic_dir, mined_rules, tmp_path):
        out_dir = tmp_path / "ablation"
        result = run_ok(runner, [
            "ablate", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--orders", "ascending,descending", "--lengths", "10,50",
            "--formats", "index", "--out-dir", str(out_dir),
        ])
        summary = (out_dir / "summary.tsv").read_text()
        assert summary == result.output
        assert len(summary.strip().split("\n")) == 1 + 4
        reports = json.loads((out_dir / "reports.json").read_text())
        assert len(reports) == 4

    def test_ablate_refuses_a_directory_with_other_files(self, runner, monkeypatch,
                                                         synthetic_dir, mined_rules, tmp_path):
        """An out-dir that holds an eval run's files is left as it is, and no
        cell is run: `ablate` replaces its out-dir whole."""
        out_dir = tmp_path / "run"
        args = ["--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--out-dir", str(out_dir)]
        run_ok(runner, ["eval", *args])
        before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        monkeypatch.setattr(cli, "ablation_run", None)
        result = runner.invoke(main, ["ablate", *args])
        assert (result.exit_code, result.output) == (
            1, f"error: {os.path.realpath(out_dir)} may hold only manifest.json, reports.json, summary.tsv, "
               "but holds records.jsonl, report.json; not replacing it\n")
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before
        assert os.listdir(tmp_path) == ["run"]


class TestValidationAndExitCodes:
    @pytest.mark.parametrize("args", [
        [], ["--bogus"], ["bogus"], ["eval"], ["mine", "--walks", "x"],
        ["prompt", "--format", "x"], ["eval", "--predictor", "foo"],
    ], ids=["bare", "unknown-option", "unknown-command", "eval-without-rules",
            "walks-not-int", "format-not-a-choice", "predictor-not-a-choice"])
    def test_usage_error_is_validation_error(self, runner, args):
        """A command line click cannot parse exits 1 with click's text: the
        usage line and the error, or the help for bare `tkgrag`."""
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        lines = result.stderr.splitlines()
        assert lines[0].startswith("Usage: ")
        if args:
            assert lines[-1].startswith("Error: ")
        else:
            assert result.stderr == run_ok(runner, ["--help"]).stdout

    def test_missing_dataset_dir_is_validation_error(self, runner, mined_rules):
        result = runner.invoke(main, ["eval", "--rules", str(mined_rules)])
        assert result.exit_code == 1
        assert "dataset.dir" in result.output

    def test_bad_config_section_path_reported(self, runner, tmp_path, synthetic_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mining": {"num_walks": 0}}))
        result = runner.invoke(main, [
            "mine", "--config", str(config), "--dataset-dir", str(synthetic_dir),
        ])
        assert result.exit_code == 1
        assert "mining" in result.output and "num_walks" in result.output

    def test_unknown_config_section_rejected(self, runner, tmp_path, synthetic_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"minign": {}}))
        result = runner.invoke(main, [
            "mine", "--config", str(config), "--dataset-dir", str(synthetic_dir),
        ])
        assert result.exit_code == 1
        assert "minign" in result.output

    def test_flags_override_config_file(self, runner, tmp_path, synthetic_dir):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mining": {"num_walks": 5, "seed": 7}}))
        rules = tmp_path / "rules.json"
        run_ok(runner, [
            "mine", "--config", str(config), "--dataset-dir", str(synthetic_dir),
            "--walks", "11", "--out", str(rules),
        ])
        payload = json.loads(rules.read_text())
        assert payload["params"]["num_walks"] == 11
        assert payload["params"]["seed"] == 7  # untouched file value survives

    def test_empty_eval_split_is_validation_error(self, runner, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("0\t0\t1\t0\n")
        (data / "valid.txt").write_text("")
        (data / "test.txt").write_text("")
        # a bank that fits the one-relation vocabulary: it holds no rules
        rules = tmp_path / "rules.json"
        RuleBank({}, MiningParams()).save(str(rules))
        result = runner.invoke(main, [
            "eval", "--dataset-dir", str(data), "--rules", str(rules),
            "--out-dir", str(tmp_path / "run"),
        ])
        assert result.exit_code == 1
        assert "empty evaluation set" in result.output

    @pytest.mark.parametrize("damage, named", [
        pytest.param("rule without confidence", "missing field 'confidence'",
                     id="no-confidence"),
        pytest.param("unknown params key", "unexpected keyword argument 'walk_count'",
                     id="unknown-param"),
        pytest.param("rule not an object", "rules[0]: expected TemporalRule, got [",
                     id="rule-as-list"),
        pytest.param("top-level list", "JSON object", id="top-level-list"),
        pytest.param("string rule body", "rules[0].body: expected int, got '0'",
                     id="string-body"),
    ])
    def test_malformed_rule_bank_is_validation_error(
        self, runner, synthetic_dir, mined_rules, tmp_path, damage, named
    ):
        bank = json.loads(mined_rules.read_text())
        if damage == "rule without confidence":
            del bank["rules"][0]["confidence"]
        elif damage == "unknown params key":
            bank["params"]["walk_count"] = 3
        elif damage == "rule not an object":
            bank["rules"][0] = list(bank["rules"][0].values())
        elif damage == "string rule body":
            bank["rules"][0]["body"] = "0"
        else:
            bank = [bank]
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(bank))
        result = runner.invoke(main, ["eval", "--dataset-dir", str(synthetic_dir),
                                      "--rules", str(rules), "--out-dir", str(tmp_path / "run")])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: {rules}: ")
        assert named in result.output

    @pytest.mark.parametrize("field", ["provenance", "query"])
    def test_malformed_history_is_validation_error(
        self, runner, synthetic_dir, mined_rules, tmp_path, field
    ):
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        rows = [json.loads(line) for line in histories.read_text().splitlines()]
        number, row = next((n, row) for n, row in enumerate(rows, 1) if row["facts"])
        (row["facts"][0] if field == "provenance" else row).pop(field)
        histories.write_text("".join(json.dumps(row) + "\n" for row in rows))
        record_sha256(histories)
        result = runner.invoke(main, ["prompt", "--dataset-dir", str(synthetic_dir),
                                      "--histories", str(histories),
                                      "--out", str(tmp_path / "p.jsonl")])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {histories}:{number}: missing field '{field}'\n"

    @pytest.mark.parametrize("where, field, value, message", [
        ("fact", "o", 1.7, "facts.o: expected int, got 1.7"),
        ("fact", "s", "x", "facts.s: expected int, got 'x'"),
        ("fact", "r", True, "facts.r: expected int, got True"),
        ("fact", "t", 2**64, f"facts.t: expected int, got {2**64}"),
        ("fact", "s", 1000000, "facts.s: id 1000000 is outside the vocabulary of 20"),
        ("fact", "o", -1, "facts.o: id -1 is outside the vocabulary of 20"),
        ("fact", "r", 10, "facts.r: id 10 is outside the vocabulary of 10"),
        ("query", "s", "3", "query.s: expected int, got '3'"),
        ("query", "r", 1000000, "query.r: id 1000000 is outside the vocabulary of 10"),
    ], ids=["float-object", "string-subject", "bool-relation", "huge-time", "subject-past-vocab",
            "negative-object", "relation-past-vocab", "string-query-subject",
            "query-relation-past-vocab"])
    def test_bad_history_ids_are_validation_errors(
        self, runner, synthetic_dir, mined_rules, tmp_path, where, field, value, message
    ):
        """A history id of the wrong JSON type, or outside the dataset's
        vocabulary (20 entities, 10 relation ids with inverses), exits 1
        naming the file, the line and the field."""
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        rows = [json.loads(line) for line in histories.read_text().splitlines()]
        number, row = next((n, row) for n, row in enumerate(rows, 1) if row["facts"])
        (row["facts"][-1] if where == "fact" else row["query"])[field] = value
        histories.write_text("".join(json.dumps(row) + "\n" for row in rows))
        record_sha256(histories)
        result = runner.invoke(main, ["prompt", "--dataset-dir", str(synthetic_dir),
                                      "--histories", str(histories),
                                      "--out", str(tmp_path / "p.jsonl")])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {histories}:{number}: {message}\n"

    @pytest.mark.parametrize("section, values, message", [
        ("retrieval", {"max_history": 5.5}, "retrieval.max_history: expected int, got 5.5"),
        ("retrieval", {"max_history": "50"}, "retrieval.max_history: expected int, got '50'"),
        ("mining", {"num_walks": True}, "mining.num_walks: expected int, got True"),
        ("retrieval", {"stepwise": 1}, "retrieval.stepwise: expected bool, got 1"),
        ("prompt", {"max_facts": 2.0}, "prompt.max_facts: expected int or None, got 2.0"),
        ("generation", {"temperature": "0"}, "generation.temperature: expected float, got '0'"),
        ("dataset", {"time_gap": None}, "dataset.time_gap: expected int, got None"),
    ], ids=["float-int", "string-int", "bool-int", "int-bool", "float-optional", "string-float",
            "null-int"])
    def test_config_value_of_wrong_type_named(self, runner, tmp_path, synthetic_dir,
                                              mined_rules, section, values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: values}))
        result = runner.invoke(main, [
            "eval", "--config", str(config), "--dataset-dir", str(synthetic_dir),
            "--rules", str(mined_rules), "--out-dir", str(tmp_path / "run"),
        ])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {message}\n"

    def test_config_types_that_fit(self):
        """A float field takes an int, an Optional field None, and flags left
        unset (None) keep the file's value."""
        config = build_run_config(
            {"generation": {"temperature": 1}, "retrieval": {"window": None, "top_rules": 3}},
            {"retrieval": {"top_rules": None}},
        )
        assert config.generation.temperature == 1
        assert (config.retrieval.window, config.retrieval.top_rules) == (None, 3)

    @pytest.mark.parametrize("command, damage, message", [
        ("prompt", "not JSON",
         "not JSON (Expecting property name enclosed in double quotes, column 2)"),
        ("prompt", "facts", "missing field 'facts'"),
        ("prompt", "list", "expected a JSON object"),
        ("infer", "text", "missing field 'text'"),
        ("infer", "list", "expected a JSON object"),
        ("infer", {"index_map": [1]}, "index_map: expected dict[int, int], got [1]"),
        ("infer", {"index_map": {"999999": 0}},
         "index_map: id 999999 is outside the vocabulary of 20"),
        ("infer", {"index_map": {"-5": 7}}, "index_map: id -5 is outside the vocabulary of 20"),
        ("infer", {"index_map": {"15": 0, "12": 0, "3": 1}},
         "index_map: index 0 is given to entities 15 and 12"),
        ("infer", {"index_map": {"15": -1}}, "index_map.15: expected an int >= 0, got -1"),
        ("infer", "query", "missing field 'query'"),
        ("infer", {"query": None}, "query: expected Query, got None"),
        ("infer", {"query": {"s": "x"}}, "query.s: expected int, got 'x'"),
        ("infer", {"query": {"s": 0, "r": 1000000, "t": 5}},
         "query.r: id 1000000 is outside the vocabulary of 10"),
        ("infer", {"query": {"s": 0, "r": 0, "t": 5, "gold": -1}},
         "query.gold: id -1 is outside the vocabulary of 20"),
        ("eval", "rank", "missing field 'rank'"),
    ], ids=["prompt-not-json", "prompt-no-facts", "prompt-list", "infer-no-text", "infer-list",
            "infer-bad-index-map", "infer-index-map-past-vocab", "infer-negative-index-map-key",
            "infer-repeated-index", "infer-negative-index",
            "infer-no-query", "infer-null-query", "infer-string-query-subject",
            "infer-query-relation-past-vocab", "infer-negative-gold", "eval-no-rank"])
    def test_malformed_jsonl_row_names_path_and_line(
        self, runner, synthetic_dir, mined_rules, tmp_path, command, damage, message
    ):
        """Every JSON-lines input: the second row is damaged (not JSON, a
        list, fields replaced, or a field dropped) behind a blank first line,
        which counts. A prompt row's query and index map hold ids of the
        dataset's vocabulary (20 entities, 10 relation ids)."""
        data = ["--dataset-dir", str(synthetic_dir)]
        histories, prompts, run = tmp_path / "h.jsonl", tmp_path / "p.jsonl", tmp_path / "run"
        retrieve = ["retrieve", *data, "--rules", str(mined_rules), "--out", str(histories)]
        prompt = ["prompt", *data, "--histories", str(histories), "--out", str(prompts)]
        infer = ["infer", *data, "--prompts", str(prompts), "--endpoint", "http://127.0.0.1:9/",
                 "--retries", "0", "--out", str(tmp_path / "x.jsonl")]
        evaluate = ["eval", *data, "--rules", str(mined_rules), "--out-dir", str(run)]
        # (the input the command reads, the command, the commands that write that input)
        path, args, writers = {
            "prompt": (histories, prompt, [retrieve]),
            "infer": (prompts, infer, [retrieve, prompt]),
            "eval": (run / "records.jsonl", evaluate, [evaluate]),
        }[command]
        for writer in writers:
            run_ok(runner, writer)
        lines = path.read_text().splitlines()
        row = json.loads(lines[1])
        if damage == "not JSON":
            lines[1] = "{not json"
        elif damage == "list":
            lines[1] = json.dumps(list(row.values()))
        elif isinstance(damage, dict):
            lines[1] = json.dumps({**row, **damage})
        else:
            del row[damage]
            lines[1] = json.dumps(row)
        path.write_text("\n" + "".join(line + "\n" for line in lines))
        record_sha256(path)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {path}:3: {message}\n"

    @pytest.mark.parametrize("field", ["head", "body"])
    @pytest.mark.parametrize("command", ["retrieve", "export", "eval", "ablate"])
    def test_rule_id_outside_the_vocabulary_named(
        self, runner, synthetic_dir, mined_rules, tmp_path, command, field
    ):
        """Every command that reads a rule bank with a dataset checks each
        rule's relation ids against the dataset's 10 relation ids."""
        bank = json.loads(mined_rules.read_text())
        bank["rules"][0][field] = 1000000
        rules = tmp_path / "rules.json"
        rules.write_text(json.dumps(bank))
        out = {"retrieve": ["--out", str(tmp_path / "h.jsonl")],
               "export": ["--k", "3", "--out", str(tmp_path / "k.jsonl")],
               "eval": ["--out-dir", str(tmp_path / "run")],
               "ablate": ["--out-dir", str(tmp_path / "run")]}[command]
        result = runner.invoke(main, [command, "--dataset-dir", str(synthetic_dir),
                                      "--rules", str(rules), *out])
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"error: {rules}: rules[0].{field}: id 1000000 is outside the vocabulary of 10\n")

    @pytest.mark.parametrize("flag, value", [
        ("--timeout", "1e19"), ("--timeout", "inf"), ("--timeout", "nan"), ("--timeout", "0"),
        ("--backoff", "1e19"), ("--backoff", "nan"), ("--temperature", "nan"),
        ("--temperature", "inf"),
    ])
    def test_generation_value_out_of_range_named(self, runner, synthetic_dir, tmp_path,
                                                 flag, value):
        """A timeout or backoff that the socket layer or `time.sleep` cannot
        take, and a temperature that is not a finite number, exit 1 naming
        the field before any prompt is read."""
        result = runner.invoke(main, [
            "infer", "--dataset-dir", str(synthetic_dir), "--prompts", str(tmp_path / "p.jsonl"),
            "--endpoint", "http://127.0.0.1:9/", flag, value,
        ])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: generation: {flag[2:]} must be ")
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("input_, key", [("config", "max_history"), ("rules", "head")])
    def test_repeated_json_key_rejected(self, runner, synthetic_dir, mined_rules, tmp_path,
                                        input_, key):
        """Python's json keeps the last of a repeated key; the config file
        and the rule bank refuse it instead."""
        config, rules = tmp_path / "config.json", tmp_path / "rules.json"
        config.write_text('{"retrieval": {"max_history": 5, "max_history": 50}}'
                          if input_ == "config" else "{}")
        text = mined_rules.read_text()
        rules.write_text(text.replace('"head": 0,', '"head": 0, "head": 0,', 1)
                         if input_ == "rules" else text)
        result = runner.invoke(main, [
            "retrieve", "--config", str(config), "--dataset-dir", str(synthetic_dir),
            "--rules", str(rules), "--out", str(tmp_path / "h.jsonl"),
        ])
        assert result.exit_code == 1, result.output
        path = config if input_ == "config" else rules
        assert result.output == f"error: {path}: duplicate key '{key}'\n"

    def test_transport_failure_exit_code(self, runner, synthetic_dir, mined_rules, tmp_path):
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        prompts = tmp_path / "p.jsonl"
        run_ok(runner, ["prompt", "--dataset-dir", str(synthetic_dir),
                        "--histories", str(histories), "--out", str(prompts)])
        result = runner.invoke(main, [
            "infer", "--dataset-dir", str(synthetic_dir), "--prompts", str(prompts),
            "--endpoint", "http://127.0.0.1:9/", "--retries", "0", "--timeout", "0.3",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert result.exit_code == 3

    def test_truncated_responses_exit_3(self, runner, synthetic_dir, mined_rules, tmp_path):
        """A response cut off mid-body is a transport failure: retried, then
        exit 3, not a runtime failure after one attempt."""
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        run_ok(runner, ["prompt", "--dataset-dir", str(synthetic_dir),
                        "--histories", str(histories), "--out", str(prompts)])
        stub = StubEndpoint(script=["truncated"] * 100)
        try:
            result = runner.invoke(main, [
                "infer", "--dataset-dir", str(synthetic_dir), "--prompts", str(prompts),
                "--endpoint", stub.url, "--in-flight", "1", "--retries", "2",
                "--backoff", "0.01", "--out", str(tmp_path / "x.jsonl"),
            ])
        finally:
            stub.close()
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: request failed after 3 attempts: ")
        assert stub.attempts == 3

    def test_infer_stops_within_the_chunk_that_fails(self, runner, synthetic_dir,
                                                     mined_rules, tmp_path):
        """100 prompts against an endpoint that fails from request 21 and is
        slow to answer request 1: the run sends no more than its first chunk,
        exits 2 and writes nothing."""
        histories = tmp_path / "h.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir),
                        "--rules", str(mined_rules), "--out", str(histories)])
        prompts = tmp_path / "p.jsonl"
        run_ok(runner, ["prompt", "--dataset-dir", str(synthetic_dir),
                        "--histories", str(histories), "--out", str(prompts)])
        rows = prompts.read_text().splitlines(keepends=True)
        prompts.write_text("".join((rows * 100)[:100]))
        record_sha256(prompts)
        stub = StubEndpoint(script=["delay"] + ["ok"] * 19 + ["error-payload"] * 80,
                            delay=0.5, sequences=["0.e01]"])
        out = tmp_path / "predictions.jsonl"
        try:
            result = runner.invoke(main, [
                "infer", "--dataset-dir", str(synthetic_dir), "--prompts", str(prompts),
                "--endpoint", stub.url, "--num-sequences", "1", "--out", str(out),
            ])
        finally:
            stub.close()
        assert (result.exit_code, result.output) == (2, "error: model exploded\n")
        assert 20 < stub.attempts <= CHUNK_SIZE
        assert not out.exists()


def describe_option(param) -> str:
    """One line per option: names, type or choices, default, required, help."""
    kind = param.type
    line = "/".join(param.opts + param.secondary_opts) + " " + (
        "|".join(kind.choices) if isinstance(kind, click.Choice) else kind.name
    )
    if param.required:
        line += " required"
    elif param.default is not None:
        line += f" default={param.default!r}"
    if param.show_default:
        line += " (shown)"
    if param.help:
        line += f" help={param.help!r}"
    return line


DATASET_OPTIONS = [
    "--config text",
    "--inverse/--no-inverse boolean",
    "--time-gap integer",
    "--data-root text default='data' (shown)",
    "--dataset text help='Dataset name resolved under --data-root.'",
    "--dataset-dir text help='Dataset directory.'",
]
RETRIEVAL_OPTIONS = [
    "--stepwise/--no-stepwise boolean",
    "--history-len integer",
    "--top-rules integer",
    "--window integer",
]
PROMPT_OPTIONS = [
    "--char-budget integer",
    "--instruction text",
    "--max-facts integer",
    "--order-seed integer",
    "--order ascending|descending|random|timestamps-removed",
    "--format index|lexical",
]
GENERATION_OPTIONS = [
    "--in-flight integer",
    "--backoff float",
    "--retries integer",
    "--timeout float",
    "--temperature float",
    "--num-sequences integer",
    "--max-new-tokens integer",
]
EVAL_INPUT_OPTIONS = DATASET_OPTIONS + [
    "--rules text required",
    "--predictor oracle|llm default='oracle' (shown)",
    "--split text default='test' (shown)",
    "--retrieval-splits text default='train,valid,test' (shown)",
    "--filter-splits text default='train,valid,test' (shown)",
    "--endpoint text",
]

CLI_SURFACE = {
    "synth": [
        "--out text required help='Directory to create the dataset in.'",
        "--entities integer",
        "--noise-relations integer",
        "--body-events integer",
        "--noise-events integer",
        "--follow-prob float",
        "--t-span integer",
        "--planted-entities integer",
        "--seed integer",
    ],
    "mine": DATASET_OPTIONS + [
        "--walks integer",
        "--min-body-support integer",
        "--grounding-cap integer",
        "--seed integer",
        "--workers integer default=1 (shown)",
        "--mine-splits text default='train' (shown)"
        " help='Comma-separated splits the mining graph merges.'",
        "--out text default='rules.json' (shown)",
    ],
    "retrieve": DATASET_OPTIONS + [
        "--rules text required",
        "--split text default='test' (shown)",
        "--retrieval-splits text default='train,valid,test' (shown)"
        " help='Comma-separated splits the retrieval graph merges.'",
    ] + RETRIEVAL_OPTIONS + ["--out text default='histories.jsonl' (shown)"],
    "prompt": DATASET_OPTIONS + ["--histories text required"] + PROMPT_OPTIONS
    + ["--out text default='prompts.jsonl' (shown)"],
    "export": DATASET_OPTIONS + [
        "--rules text required",
        "--k integer required help='Number of samples to export.'",
        "--seed integer",
    ] + RETRIEVAL_OPTIONS + PROMPT_OPTIONS
    + ["--out text default='finetune.jsonl' (shown)"],
    "infer": DATASET_OPTIONS + [
        "--prompts text required",
        "--endpoint text help='Completion endpoint URL (or TKGRAG_ENDPOINT).'",
    ] + GENERATION_OPTIONS + ["--out text default='predictions.jsonl' (shown)"],
    "eval": EVAL_INPUT_OPTIONS + [
        "--seeds text help='Comma-separated run seeds; multiple seeds report the "
        "mean and half-range across runs.'",
    ] + RETRIEVAL_OPTIONS + PROMPT_OPTIONS + GENERATION_OPTIONS
    + ["--out-dir text default='runs/eval' (shown)"],
    "ablate": EVAL_INPUT_OPTIONS + [
        "--orders text default='ascending' (shown)",
        "--lengths text default='50' (shown)",
        "--formats text default='index' (shown)",
    ] + RETRIEVAL_OPTIONS + GENERATION_OPTIONS
    + ["--out-dir text default='runs/ablation' (shown)"],
}


class TestImport:
    def test_cli_import_does_not_load_requests(self):
        # only a request to an endpoint loads the HTTP client
        code = "import sys, tkgrag.cli; print('requests' in sys.modules)"
        src = os.path.dirname(os.path.dirname(tkgrag.__file__))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.strip() == "False"

    def test_cli_import_does_not_load_process_pools(self):
        # only mining with more than one worker starts a process pool
        code = ("import sys, tkgrag.cli; "
                "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(tkgrag.__file__))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True, env={**os.environ, "PYTHONPATH": src})
        assert result.stdout.strip() == "[]"


class TestSurface:
    """The command line, run config and export manifest that scripts and
    earlier runs depend on."""

    def test_every_subcommand_keeps_its_options_in_order(self):
        assert list(main.commands) == list(CLI_SURFACE)
        for name, expected in CLI_SURFACE.items():
            got = [describe_option(p) for p in main.commands[name].params]
            assert got == expected, name

    def test_section_flags_reach_the_config(self, runner, synthetic_dir, mined_rules,
                                            tmp_path):
        out_dir = tmp_path / "run"
        run_ok(runner, [
            "eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            "--out-dir", str(out_dir),
            "--window", "30", "--top-rules", "2", "--history-len", "40", "--stepwise",
            "--format", "lexical", "--order", "descending", "--order-seed", "3",
            "--max-facts", "20", "--instruction", "Answer.", "--char-budget", "5000",
            "--max-new-tokens", "16", "--num-sequences", "3", "--temperature", "0.5",
            "--timeout", "2.5", "--retries", "1", "--backoff", "0.5", "--in-flight", "2",
        ])
        config = strip_created_at(out_dir / "manifest.json")["config"]
        assert config["retrieval"] == {"window": 30, "top_rules": 2, "max_history": 40,
                                       "stepwise": True}
        assert config["prompt"] == {"format": "lexical", "order": "descending",
                                    "order_seed": 3, "max_facts": 20,
                                    "instruction": "Answer.", "char_budget": 5000}
        assert config["generation"] == {"max_new_tokens": 16, "num_sequences": 3,
                                        "temperature": 0.5, "timeout": 2.5, "retries": 1,
                                        "backoff": 0.5, "in_flight": 2}

    def test_default_run_config_json(self):
        expected = {
            "dataset": {"dir": "", "time_gap": 1, "inverse": True},
            "mining": {"num_walks": 200, "rule_length": 1, "min_body_support": 2,
                       "grounding_cap": 100000, "seed": 0},
            "retrieval": {"window": None, "top_rules": None, "max_history": 50,
                          "stepwise": False},
            "prompt": {"format": "index", "order": "ascending", "order_seed": 0,
                       "max_facts": None, "instruction": DEFAULT_INSTRUCTION,
                       "char_budget": 12000},
            "generation": {"max_new_tokens": 128, "num_sequences": 10,
                           "temperature": 0.0, "timeout": 30.0, "retries": 2,
                           "backoff": 0.25, "in_flight": 8},
            "endpoint": None,
            "seed": 1,
        }
        config = build_run_config()
        assert json.dumps(config.as_dict(), indent=2) == json.dumps(expected, indent=2)
        assert stable_hash(config.as_dict()) == "9900658f9a97"

    def test_export_manifest_keys(self, runner, synthetic_dir, mined_rules, tmp_path):
        out = tmp_path / "finetune.jsonl"
        run_ok(runner, ["export", "--dataset-dir", str(synthetic_dir), "--rules",
                        str(mined_rules), "--k", "4", "--seed", "9", "--history-len", "20",
                        "--out", str(out)])
        manifest = json.loads((tmp_path / "finetune.jsonl.manifest.json").read_text())
        assert list(manifest) == ["command", "fingerprint", "config", "created_at", "inputs",
                                  "k", "n_samples", "over_char_budget", "sha256", "upstream"]
        assert (manifest["command"], manifest["k"], manifest["n_samples"],
                manifest["over_char_budget"]) == ("export", 4, 4, 0)
        config = manifest["config"]
        assert config["seed"] == 9
        assert list(config["retrieval"]) == ["window", "top_rules", "max_history", "stepwise"]
        assert config["retrieval"]["max_history"] == 20
        assert list(config["prompt"]) == ["format", "order", "order_seed", "max_facts",
                                          "instruction", "char_budget"]


class TestArtifactBytes:
    # sha256 of each artifact the pipeline below writes; report.json is hashed
    # with its fingerprint value blanked, since that folds in the dataset path
    PINNED = {
        "histories.jsonl": "9aedcad15b889425075bcab9fc8d6114d8ab8fb7e5353306e08e827e7ccd967f",
        "prompts.jsonl": "ed300543470679b9be162f6e474f121dd54c6e004a6953c19051851832a782ad",
        "finetune.jsonl": "450d0f1f42818c812cfa7289a5a76278807fd7efbf6e1f880981ea9a3f7a8a5b",
        "eval/report.json": "37023747edbc2675f7d2368c14bf07d9e414f20470cd8ec12c94c4f2b3ff2051",
        "ablation/summary.tsv":
            "3938a631a2dd93c61cae1381c98e732130d053a551d1b6fd3cfbae1e711ba140",
    }

    def test_pipeline_artifacts_are_pinned(self, runner, tmp_path):
        data = tmp_path / "data"
        run_ok(runner, ["synth", "--out", str(data), "--seed", "7"])
        dataset = ["--dataset-dir", str(data)]
        rules = ["--rules", str(tmp_path / "rules.json")]
        for args in (
            ["mine", *dataset, "--seed", "1", "--out", str(tmp_path / "rules.json")],
            ["retrieve", *dataset, *rules, "--out", str(tmp_path / "histories.jsonl")],
            ["prompt", *dataset, "--histories", str(tmp_path / "histories.jsonl"),
             "--out", str(tmp_path / "prompts.jsonl")],
            ["export", *dataset, *rules, "--k", "16", "--seed", "1",
             "--out", str(tmp_path / "finetune.jsonl")],
            ["eval", *dataset, *rules, "--out-dir", str(tmp_path / "eval")],
            ["ablate", *dataset, *rules, "--lengths", "10,50",
             "--out-dir", str(tmp_path / "ablation")],
        ):
            run_ok(runner, args)
        report = tmp_path / "eval" / "report.json"
        text = report.read_text()
        report.write_text(text.replace(json.loads(text)["fingerprint"], ""))
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in self.PINNED}
        assert digests == self.PINNED


class TestManifestInputs:
    def test_every_manifest_records_its_input_digests(self, runner, synthetic_dir,
                                                      mined_rules, tmp_path):
        data = ["--dataset-dir", str(synthetic_dir)]
        bank = ["--rules", str(mined_rules)]
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        run_ok(runner, ["mine", *data, "--walks", "20", "--out", str(tmp_path / "r.json")])
        run_ok(runner, ["retrieve", *data, *bank, "--out", str(histories)])
        run_ok(runner, ["prompt", *data, "--histories", str(histories), "--out", str(prompts)])
        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            run_ok(runner, ["infer", *data, "--prompts", str(prompts), "--endpoint", stub.url,
                            "--num-sequences", "1", "--out", str(tmp_path / "x.jsonl")])
        finally:
            stub.close()
        run_ok(runner, ["export", *data, *bank, "--k", "4", "--out",
                        str(tmp_path / "f.jsonl")])
        run_ok(runner, ["eval", *data, *bank, "--out-dir", str(tmp_path / "eval")])
        run_ok(runner, ["ablate", *data, *bank, "--out-dir", str(tmp_path / "ablate")])
        manifests = {name: json.loads((tmp_path / path).read_text()) for name, path in (
            ("mine", "r.json.manifest.json"), ("retrieve", "h.jsonl.manifest.json"),
            ("prompt", "p.jsonl.manifest.json"), ("infer", "x.jsonl.manifest.json"),
            ("export", "f.jsonl.manifest.json"), ("eval", "eval/manifest.json"),
            ("ablate", "ablate/manifest.json"))}
        # one shape and one fingerprint, the hash of the config, the input
        # digests and the options outside the config, which follow "inputs"
        splits = ["train", "valid", "test"]
        evaluated = {"split": "test", "retrieval_splits": splits, "filter_splits": splits,
                     "predictor": "oracle"}
        options = {
            "mine": {"mine_splits": ["train"]},
            "retrieve": {"split": "test", "retrieval_splits": splits},
            "prompt": {}, "infer": {}, "export": {"k": 4}, "eval": evaluated,
            "ablate": {**evaluated, "orders": ["ascending"], "lengths": [50],
                       "formats": ["index"]},
        }
        for name, manifest in manifests.items():
            keys = ["command", "fingerprint", "config", "created_at", "inputs",
                    *options[name]]
            assert list(manifest)[:len(keys)] == keys, name
            assert {key: manifest[key] for key in options[name]} == options[name], name
            assert manifest["command"] == name
            assert manifest["fingerprint"] == cli._fingerprint(
                build_run_config(manifest["config"]), manifest["inputs"], options[name]), name
        inputs = {name: manifest["inputs"] for name, manifest in manifests.items()}
        assert {name: list(digests) for name, digests in inputs.items()} == {
            "mine": ["dataset"], "retrieve": ["dataset", "rules"],
            "prompt": ["dataset", "histories"], "infer": ["dataset", "prompts"],
            "export": ["dataset", "rules"], "eval": ["dataset", "rules"],
            "ablate": ["dataset", "rules"]}
        # one input, one digest, whichever command reads it
        assert len({digests["dataset"] for digests in inputs.values()}) == 1
        assert inputs["retrieve"]["rules"] == inputs["export"]["rules"] == \
            inputs["eval"]["rules"] == inputs["ablate"]["rules"] == \
            hashlib.sha256(mined_rules.read_bytes()).hexdigest()
        assert inputs["prompt"]["histories"] == hashlib.sha256(histories.read_bytes()).hexdigest()
        assert inputs["infer"]["prompts"] == hashlib.sha256(prompts.read_bytes()).hexdigest()
        # the commands that read a rule bank name the mine run that made it, last
        mined = json.loads(mined_rules.with_name(mined_rules.name + ".manifest.json").read_text())
        lineage = {"rules": {"fingerprint": mined["fingerprint"],
                             "dataset": mined["inputs"]["dataset"]}}
        for name, manifest in manifests.items():
            if name in ("retrieve", "export", "eval", "ablate"):
                assert list(manifest)[-1] == "upstream", name
                assert manifest["upstream"] == lineage, name
            else:
                assert "upstream" not in manifest, name
        # a manifest beside a file records that file's sha256, just before "upstream"
        described = {"mine": "r.json", "retrieve": "h.jsonl", "prompt": "p.jsonl",
                     "infer": "x.jsonl", "export": "f.jsonl"}
        for name, manifest in manifests.items():
            if name in described:
                digest = hashlib.sha256((tmp_path / described[name]).read_bytes()).hexdigest()
                assert manifest["sha256"] == digest, name
                assert list(manifest)[-2 if "upstream" in manifest else -1] == "sha256", name
            else:
                assert "sha256" not in manifest, name


class TestInputsOfAnotherDataset:
    """`prompt` and `infer` refuse a histories or prompts file whose manifest
    records another dataset than the one they load."""

    @pytest.fixture
    def built(self, runner, synthetic_dir, mined_rules, tmp_path):
        """The histories and prompts of the synthetic dataset, and a copy of
        that dataset whose entities have other names under the same ids."""
        data = ["--dataset-dir", str(synthetic_dir)]
        paths = {"prompt": tmp_path / "h.jsonl", "infer": tmp_path / "p.jsonl"}
        run_ok(runner, ["retrieve", *data, "--rules", str(mined_rules),
                        "--out", str(paths["prompt"])])
        run_ok(runner, ["prompt", *data, "--histories", str(paths["prompt"]),
                        "--out", str(paths["infer"])])
        renamed = tmp_path / "renamed"
        shutil.copytree(synthetic_dir, renamed)
        entity_map = renamed / "entity2id.txt"
        entity_map.write_text("".join(
            "X_" + line for line in entity_map.read_text().splitlines(keepends=True)))
        return paths, renamed

    @staticmethod
    def run(runner, command, path, dataset, out):
        """`command` over the input file `path` and `dataset`; the result and
        the number of requests the endpoint received."""
        args = ["--dataset-dir", str(dataset), "--out", str(out)]
        if command == "prompt":
            return runner.invoke(main, ["prompt", *args, "--histories", str(path)]), 0
        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            result = runner.invoke(main, ["infer", *args, "--prompts", str(path),
                                          "--endpoint", stub.url, "--num-sequences", "1"])
        finally:
            stub.close()
        return result, stub.attempts

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_input_of_another_dataset_refused(self, runner, built, command, tmp_path):
        paths, renamed = built
        path = paths[command]
        recorded = json.loads(path.with_name(path.name + ".manifest.json").read_text())
        loaded = cli._load_data(build_run_config({"dataset": {"dir": str(renamed)}}))[1]
        assert recorded["inputs"]["dataset"] != loaded
        out = tmp_path / "out.jsonl"
        result, requests = self.run(runner, command, path, renamed, out)
        assert result.exit_code == 1, result.output
        assert result.output == (
            f"error: {path}: built from dataset {recorded['inputs']['dataset']} "
            f"(see {path}.manifest.json), but the loaded dataset is {loaded}\n")
        assert requests == 0
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_input_without_manifest_passes(self, runner, built, command, tmp_path):
        paths, renamed = built
        path = tmp_path / "hand-made.jsonl"
        shutil.copy(paths[command], path)
        result, _requests = self.run(runner, command, path, renamed, tmp_path / "out.jsonl")
        assert result.exit_code == 0, result.output

    def test_unreadable_manifest_refused(self, runner, built, synthetic_dir, tmp_path):
        paths, _renamed = built
        manifest = tmp_path / "h.jsonl.manifest.json"
        manifest.write_text("[]")
        result, _requests = self.run(runner, "prompt", paths["prompt"], synthetic_dir,
                                     tmp_path / "out.jsonl")
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: expected a JSON object, got []\n")

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_null_manifest_refused(self, runner, built, synthetic_dir, command, tmp_path):
        """A manifest holding `null` is not a missing one: `prompt` would cap
        the histories under the config file's retrieval config instead of
        the one they were retrieved with."""
        paths, _renamed = built
        manifest = paths[command].with_name(paths[command].name + ".manifest.json")
        manifest.write_text("null")
        out = tmp_path / "out.jsonl"
        result, requests = self.run(runner, command, paths[command], synthetic_dir, out)
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: expected a JSON object, got None\n")
        assert requests == 0
        assert not out.exists()

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_manifest_with_a_repeated_key_refused(self, runner, built, synthetic_dir,
                                                  command, tmp_path):
        paths, _renamed = built
        manifest = paths[command].with_name(paths[command].name + ".manifest.json")
        text = manifest.read_text()
        manifest.write_text(text.replace('"stepwise": false', '"stepwise": false, "stepwise": true'))
        out = tmp_path / "out.jsonl"
        result, requests = self.run(runner, command, paths[command], synthetic_dir, out)
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: duplicate key 'stepwise'\n")
        assert requests == 0
        assert not out.exists()

    def test_bank_of_another_dataset_runs_and_records_both(self, runner, built, mined_rules,
                                                           synthetic_dir, tmp_path):
        """A rule bank may be applied to another dataset; the manifest
        records the dataset it was mined from beside the one retrieved from."""
        _paths, renamed = built
        out = tmp_path / "out.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(renamed), "--rules", str(mined_rules),
                        "--out", str(out)])
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        mined = json.loads(mined_rules.with_name(mined_rules.name + ".manifest.json").read_text())
        digest = {path: cli._load_data(build_run_config({"dataset": {"dir": str(path)}}))[1]
                  for path in (synthetic_dir, renamed)}
        assert manifest["inputs"]["dataset"] == digest[renamed] != digest[synthetic_dir]
        assert manifest["upstream"] == {"rules": {"fingerprint": mined["fingerprint"],
                                                  "dataset": digest[synthetic_dir]}}

    def test_bank_without_manifest_records_no_lineage(self, runner, mined_rules, synthetic_dir,
                                                     tmp_path):
        rules = tmp_path / "hand-made.json"
        shutil.copy(mined_rules, rules)
        out = tmp_path / "out.jsonl"
        run_ok(runner, ["retrieve", "--dataset-dir", str(synthetic_dir), "--rules", str(rules),
                        "--out", str(out)])
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert manifest["upstream"] == {"rules": None}

    @pytest.mark.parametrize("command", ["retrieve", "export", "eval", "ablate"])
    @pytest.mark.parametrize("text", [
        "{", '{"fingerprint": "f", "fingerprint": "g"}', "[]", '{"fingerprint": "f"}',
        '{"fingerprint": 1, "inputs": {"dataset": "d"}}', "null",
    ], ids=["not-json", "repeated-key", "not-an-object", "no-dataset", "not-a-string", "null"])
    def test_malformed_mine_manifest_refused(self, runner, mined_rules, synthetic_dir,
                                             tmp_path, command, text):
        rules = tmp_path / "rules.json"
        shutil.copy(mined_rules, rules)
        manifest = tmp_path / "rules.json.manifest.json"
        manifest.write_text(text)
        out = tmp_path / "out"
        args = {"retrieve": ["--out", str(out)], "export": ["--k", "4", "--out", str(out)],
                "eval": ["--out-dir", str(out)], "ablate": ["--out-dir", str(out)]}[command]
        result = runner.invoke(main, [command, "--dataset-dir", str(synthetic_dir),
                                      "--rules", str(rules), *args])
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: {manifest}: "), result.output
        assert result.output.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("retrieval, message", [
        (None, "config.retrieval: expected RetrievalConfig, got None"),
        ([], "config.retrieval: expected RetrievalConfig, got []"),
        ({"window": "5"}, "config.retrieval.window: expected int or None, got '5'"),
        ({"window": 0}, "config.retrieval.window: expected an int >= 1, got 0"),
        ({"depth": 2}, "config.retrieval: RetrievalConfig.__init__() got an unexpected "
                       "keyword argument 'depth'"),
    ], ids=["missing", "not-an-object", "wrong-type", "out-of-range", "unknown-field"])
    def test_malformed_retrieval_config_refused(self, runner, built, synthetic_dir, tmp_path,
                                                retrieval, message):
        """`prompt` caps under the retrieval config of its histories'
        manifest, so that section must be there and valid."""
        paths, _renamed = built
        manifest = tmp_path / "h.jsonl.manifest.json"
        payload = json.loads(manifest.read_text())
        if retrieval is None:
            del payload["config"]["retrieval"]
        else:
            payload["config"]["retrieval"] = retrieval
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "out.jsonl"
        result, _requests = self.run(runner, "prompt", paths["prompt"], synthetic_dir, out)
        assert (result.exit_code, result.output) == (1, f"error: {manifest}: {message}\n")
        assert not out.exists()


@pytest.fixture(scope="module")
def seed3(tmp_path_factory):
    """The dataset of `synth --seed 3`, with 37 test queries, and the rule
    bank `mine` writes for it by default."""
    root = tmp_path_factory.mktemp("seed3")
    data, rules = root / "data", root / "rules.json"
    for args in (["synth", "--out", str(data), "--seed", "3"],
                 ["mine", "--dataset-dir", str(data), "--out", str(rules)]):
        run_ok(CliRunner(), args)
    return data, rules


@pytest.fixture
def manifest_disk_full(monkeypatch):
    """`manifest_disk_full()` makes every manifest write through
    `cli.write_json` fail with ENOSPC, as a disk that fills up after the
    command's own file was written."""
    write_json = cli.write_json

    def full_disk(path, payload):
        if path.endswith(".manifest.json"):
            raise OSError(errno.ENOSPC, "No space left on device")
        write_json(path, payload)

    return lambda: monkeypatch.setattr(cli, "write_json", full_disk)


class TestManifestDescribesItsFile:
    """A manifest records the sha256 of the file beside it, and a command
    refuses an input whose manifest records other bytes or none, before its
    output moves or a request is sent."""

    def test_half_written_retrieve_refused(self, runner, monkeypatch, seed3, tmp_path):
        """A retrieve stopped after its manifest is written but before its
        histories move into place leaves the histories of the run before
        beside the new manifest; `prompt` would cap them under the new run's
        retrieval config."""
        data, rules = seed3
        histories = tmp_path / "h.jsonl"
        retrieve = ["retrieve", "--dataset-dir", str(data), "--rules", str(rules),
                    "--out", str(histories)]
        run_ok(runner, [*retrieve, "--window", "30", "--stepwise"])
        before = histories.read_bytes()
        replace = os.replace

        def stopped(src, dst):
            if dst == str(histories):
                raise OSError(errno.EIO, "Input/output error")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", stopped)
        result = runner.invoke(main, retrieve)
        assert (result.exit_code, result.output) == (2, "error: [Errno 5] Input/output error\n")
        monkeypatch.undo()
        assert histories.read_bytes() == before
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
        manifest = tmp_path / "h.jsonl.manifest.json"
        recorded = json.loads(manifest.read_text())
        assert recorded["config"]["retrieval"]["window"] is None
        assert recorded["config"]["retrieval"]["stepwise"] is False
        out = tmp_path / "p.jsonl"
        result = runner.invoke(main, ["prompt", "--dataset-dir", str(data), "--histories",
                                      str(histories), "--max-facts", "10", "--out", str(out)])
        assert result.exit_code == 1, result.output
        digest = hashlib.sha256(before).hexdigest()
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: describes a file of sha256 {recorded['sha256']}, "
               f"but {histories} has sha256 {digest}\n")
        assert not out.exists()

    def test_first_retrieve_without_manifest_leaves_no_histories(self, runner,
                                                                  manifest_disk_full, seed3,
                                                                  tmp_path):
        """A first retrieve whose manifest write fails leaves no histories,
        which `prompt` would read as hand-made and cap under the default
        retrieval config instead of the stepwise one they were retrieved
        with."""
        data, rules = seed3
        first = tmp_path / "first.jsonl"
        manifest_disk_full()
        result = runner.invoke(main, ["retrieve", "--dataset-dir", str(data), "--rules",
                                      str(rules), "--window", "5", "--stepwise",
                                      "--out", str(first)])
        assert (result.exit_code, result.output) == (
            2, "error: [Errno 28] No space left on device\n")
        assert os.listdir(tmp_path) == []
        out = tmp_path / "p.jsonl"
        result = runner.invoke(main, ["prompt", "--dataset-dir", str(data), "--histories",
                                      str(first), "--max-facts", "3", "--out", str(out)])
        assert (result.exit_code, result.output) == (1, f"error: missing input file {first}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mine", "retrieve", "prompt", "infer", "export"])
    def test_failed_manifest_write_keeps_the_old_pair(self, runner, manifest_disk_full, seed3,
                                                      tmp_path, command):
        """A run whose manifest cannot be written keeps the file and the
        manifest of the run before, each byte for byte, where its own file
        would hold other bytes."""
        data, rules = seed3
        common = ["--dataset-dir", str(data)]
        histories, prompts, out = tmp_path / "h.jsonl", tmp_path / "p.jsonl", tmp_path / "out"
        run_ok(runner, ["retrieve", *common, "--rules", str(rules), "--out", str(histories)])
        run_ok(runner, ["prompt", *common, "--histories", str(histories),
                        "--out", str(prompts)])
        fewer = tmp_path / "fewer.jsonl"  # hand-made, so without a manifest
        fewer.write_text("".join(prompts.read_text().splitlines(keepends=True)[:5]))
        stub = StubEndpoint(sequences=["0.e01]"])
        args, other = {
            "mine": (["mine", *common], ["--walks", "50"]),
            "retrieve": (["retrieve", *common, "--rules", str(rules)], ["--window", "5"]),
            "prompt": (["prompt", *common, "--histories", str(histories)],
                       ["--max-facts", "3"]),
            "infer": (["infer", *common, "--prompts", str(prompts), "--endpoint", stub.url],
                      ["--prompts", str(fewer)]),
            "export": (["export", *common, "--rules", str(rules), "--k", "4"],
                       ["--seed", "2"]),
        }[command]
        try:
            run_ok(runner, [*args, "--out", str(out)])
            manifest = tmp_path / "out.manifest.json"
            before = out.read_bytes(), manifest.read_bytes()
            manifest_disk_full()
            result = runner.invoke(main, [*args, *other, "--out", str(out)])
        finally:
            stub.close()
        assert (result.exit_code, result.output) == (
            2, "error: [Errno 28] No space left on device\n")
        assert (out.read_bytes(), manifest.read_bytes()) == before
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    @pytest.mark.parametrize("stale", ["replaced", "no-sha256"])
    @pytest.mark.parametrize("kind", ["rules", "histories", "prompts"])
    def test_manifest_of_other_bytes_refused(self, runner, seed3, tmp_path, kind, stale):
        """The file was replaced by another run's, its manifest left behind,
        or its manifest records no sha256."""
        data, _rules = seed3
        common = ["--dataset-dir", str(data)]
        rules, histories, prompts = tmp_path / "r.json", tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        other, out = tmp_path / "other", tmp_path / "out"
        # (the file, the command writing it, an option that writes other bytes,
        # the command reading it)
        path, writer, option, reader = {
            "rules": (rules, ["mine", *common], ["--min-body-support", "5000"],
                      ["retrieve", *common, "--rules", str(rules)]),
            "histories": (histories, ["retrieve", *common, "--rules", str(rules)],
                          ["--window", "30", "--stepwise"],
                          ["prompt", *common, "--histories", str(histories)]),
            "prompts": (prompts, ["prompt", *common, "--histories", str(histories)],
                        ["--max-facts", "10"],
                        ["infer", *common, "--prompts", str(prompts),
                         "--endpoint", "http://127.0.0.1:9/", "--retries", "0"]),
        }[kind]
        run_ok(runner, ["mine", *common, "--out", str(rules)])
        run_ok(runner, ["retrieve", *common, "--rules", str(rules), "--out", str(histories)])
        run_ok(runner, ["prompt", *common, "--histories", str(histories),
                        "--out", str(prompts)])
        manifest = path.with_name(path.name + ".manifest.json")
        recorded = json.loads(manifest.read_text())
        if stale == "replaced":
            run_ok(runner, [*writer, *option, "--out", str(other)])
            assert other.read_bytes() != path.read_bytes()
            shutil.copy(other, path)
        else:
            del recorded["sha256"]
            manifest.write_text(json.dumps(recorded))
        result = runner.invoke(main, [*reader, "--out", str(out)])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: describes a file of sha256 {recorded.get('sha256')}, "
               f"but {path} has sha256 {digest}\n")
        assert not out.exists()


class TestMissingInput:
    @pytest.mark.parametrize("command, option, name", [
        ("retrieve", "--rules", "nope.json"), ("eval", "--rules", "nope.json"),
        ("prompt", "--histories", "nope.jsonl"), ("infer", "--prompts", "nope.jsonl"),
        ("retrieve", "--config", "nope.cfg"), ("retrieve", "--rules", "dir"),
    ], ids=["retrieve-rules", "eval-rules", "prompt-histories", "infer-prompts",
            "config", "rules-directory"])
    def test_missing_input_file_is_validation_error(self, runner, synthetic_dir, mined_rules,
                                                    tmp_path, command, option, name):
        """An input file that is not there exits 1, as a dataset's missing
        split file does, and so does a directory given for a file."""
        path = tmp_path / name
        if name == "dir":
            path.mkdir()
        out = tmp_path / "out"
        # the command's other inputs; the option given last takes effect
        args = {"retrieve": ["--rules", str(mined_rules), "--out", str(out)],
                "eval": ["--rules", str(mined_rules), "--out-dir", str(out)],
                "prompt": ["--out", str(out)],
                "infer": ["--endpoint", "http://127.0.0.1:9/", "--out", str(out)]}[command]
        result = runner.invoke(main, [command, "--dataset-dir", str(synthetic_dir), *args,
                                      option, str(path)])
        message = (f"{path}: a directory, not a file" if name == "dir"
                   else f"missing input file {path}")
        assert (result.exit_code, result.output) == (1, f"error: {message}\n")
        assert not out.exists()


    @pytest.mark.parametrize("kind", ["rules", "histories"])
    def test_manifest_directory_is_validation_error(self, runner, seed3, tmp_path, kind):
        """A directory where an input's manifest belongs exits 1 naming the
        manifest once, as a directory given for an input file does."""
        data, rules = seed3
        common = ["--dataset-dir", str(data)]
        bank, histories = tmp_path / "r.json", tmp_path / "h.jsonl"
        shutil.copy(rules, bank)
        run_ok(runner, ["retrieve", *common, "--rules", str(bank), "--out", str(histories)])
        path, reader = {"rules": (bank, ["retrieve", *common, "--rules", str(bank)]),
                        "histories": (histories, ["prompt", *common,
                                                  "--histories", str(histories)])}[kind]
        manifest = tmp_path / f"{path.name}.manifest.json"
        manifest.unlink(missing_ok=True)
        manifest.mkdir()
        out = tmp_path / "out"
        result = runner.invoke(main, [*reader, "--out", str(out)])
        assert (result.exit_code, result.output) == (
            1, f"error: {manifest}: a directory, not a file\n")
        assert not out.exists()


class TestOutputOfTheWrongKind:
    # case: (command, the path of the wrong kind, as a suffix of the output
    # path given, and whether a directory belongs there)
    CASES = {
        "synth": ("synth", "", True), "mine": ("mine", "", False),
        "retrieve": ("retrieve", "", False), "prompt": ("prompt", "", False),
        "export": ("export", "", False), "infer": ("infer", "", False),
        "eval": ("eval", "", True), "ablate": ("ablate", "", True),
        **{f"{command}-manifest": (command, ".manifest.json", False)
           for command in ("mine", "retrieve", "prompt", "export", "infer")},
        **{f"eval-{name}": ("eval", f"/{name}", False)
           for name in ("records.jsonl", "report.json", "manifest.json")},
        "eval-seeds-summary.json": ("eval-seeds", "/summary.json", False),
        "eval-seeds-seed-2": ("eval-seeds", "/seed-2", True),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_output_of_the_wrong_kind_refused_before_any_work(self, runner, monkeypatch,
                                                              seed3, tmp_path, command):
        """A directory given for an output file, or a file for an output
        directory, exits 1 naming it before any work: nothing is written, and
        nothing is mined, retrieved, rendered, drawn or sent. That holds for
        the files a command writes beside or under its output too: a
        manifest, the eval journal, report and summary, a seed's run."""
        command, suffix, wants_directory = self.CASES[command]
        data, rules = seed3
        common = ["--dataset-dir", str(data)]
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        run_ok(runner, ["retrieve", *common, "--rules", str(rules), "--out", str(histories)])
        run_ok(runner, ["prompt", *common, "--histories", str(histories),
                        "--out", str(prompts)])
        args = {
            "synth": ["synth", "--seed", "3", "--out"],
            "mine": ["mine", *common, "--out"],
            "retrieve": ["retrieve", *common, "--rules", str(rules), "--out"],
            "prompt": ["prompt", *common, "--histories", str(histories), "--out"],
            "export": ["export", *common, "--rules", str(rules), "--k", "4", "--out"],
            "infer": ["infer", *common, "--prompts", str(prompts),
                      "--endpoint", "http://127.0.0.1:9/", "--out"],
            "eval": ["eval", *common, "--rules", str(rules), "--out-dir"],
            "eval-seeds": ["eval", *common, "--rules", str(rules), "--seeds", "1,2",
                           "--out-dir"],
            "ablate": ["ablate", *common, "--rules", str(rules), "--out-dir"],
        }[command]
        out = tmp_path / "out"
        blocked = tmp_path / f"out{suffix}"
        if wants_directory:
            blocked.parent.mkdir(exist_ok=True)
            blocked.write_text("keep me\n")
            message = f"{blocked}: a file, not a directory"
        else:
            (blocked / "inner").mkdir(parents=True)
            message = f"{blocked}: a directory, not a file"
        before = sorted(path for path in tmp_path.rglob("*"))
        work = {"synth": (synthetic, "generate_events"), "mine": (cli, "learn_rules"),
                "retrieve": (retrieval, "retrieve"), "prompt": (cli, "build_prompt"),
                "export": (cli, "export_finetune_set"),
                "infer": (cli.LLMPredictor, "predict_prompts"),
                "eval": (evaluation, "_forecast"), "eval-seeds": (evaluation, "_forecast"),
                "ablate": (evaluation, "_forecast")}[command]

        def worked(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran")

        monkeypatch.setattr(*work, worked)
        result = runner.invoke(main, [*args, str(out)])
        assert (result.exit_code, result.output) == (1, f"error: {message}\n")
        assert sorted(path for path in tmp_path.rglob("*")) == before
        assert blocked.is_dir() or blocked.read_text() == "keep me\n"


class TestGenerativeRoundTrip:
    """`eval --predictor llm` against an endpoint that answers each prompt
    with the oracle's ranking for its query, written as a model would, gives
    the oracle's records: completions go through the real client and
    `parse_predictions` unchanged."""

    @pytest.mark.parametrize("fmt", ["index", "lexical"])
    def test_oracle_answers_round_trip(self, runner, seed3, tmp_path, fmt):
        data, rules = seed3
        dataset = load_dataset(str(data))
        kg, bank = dataset.union_kg(), RuleBank.load(str(rules))
        retrieval_cfg, prompt_cfg = RetrievalConfig(), PromptConfig(format=fmt)
        names = kg.display_names[0]
        answers = {}
        for query in queries_from_split(dataset, "test"):
            history = select_history(retrieve(kg, bank, query, retrieval_cfg), prompt_cfg,
                                     retrieval_cfg)
            prompt = build_prompt(history, prompt_cfg, kg)
            # `index.name]`, with a fresh index for an entity outside the prompt,
            # or `name]`
            fresh = itertools.count(len(prompt.index_map))
            answers[prompt.text] = [
                f"{prompt.index_map.get(entity, next(fresh))}.{names[entity]}]"
                if fmt == "index" else f"{names[entity]}]"
                for entity in rule_score_predict(history, bank).ranked
            ]
        stub = StubEndpoint(responder=lambda payload: answers[payload["prompt"]])
        args = ["eval", "--dataset-dir", str(data), "--rules", str(rules), "--format", fmt]
        try:
            generated = run_ok(runner, [*args, "--predictor", "llm", "--endpoint", stub.url,
                                        "--out-dir", str(tmp_path / "llm")]).output
        finally:
            stub.close()
        assert stub.attempts == 37
        oracle = run_ok(runner, [*args, "--out-dir", str(tmp_path / "oracle")]).output

        def records(run):
            rows = [json.loads(line) for line in (tmp_path / run / "records.jsonl").open()]
            for row in rows:
                del row["fingerprint"]
            return rows

        assert len(records("oracle")) == 37
        assert records("llm") == records("oracle")
        assert generated == oracle
        assert "n_unparsed\t0\n" in generated


class TestOneFactCap:
    """`prompt`, `eval` and the library cap a stepwise history alike: under
    the retrieval config that retrieved it."""

    def test_every_command_renders_the_same_capped_prompts(
        self, runner, synthetic_dir, synthetic_dataset, mined_rules, tmp_path
    ):
        data = ["--dataset-dir", str(synthetic_dir)]
        bank = ["--rules", str(mined_rules)]
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        run_ok(runner, ["retrieve", *data, *bank, "--window", "5", "--stepwise",
                        "--out", str(histories)])
        run_ok(runner, ["prompt", *data, "--histories", str(histories), "--max-facts", "3",
                        "--out", str(prompts)])
        rows = [json.loads(line) for line in prompts.read_text().splitlines()]

        stub = StubEndpoint(sequences=["0.e01]"])
        try:
            run_ok(runner, ["eval", *data, *bank, "--predictor", "llm", "--endpoint", stub.url,
                            "--window", "5", "--stepwise", "--max-facts", "3",
                            "--num-sequences", "1", "--out-dir", str(tmp_path / "eval")])
        finally:
            stub.close()

        kg, rules = synthetic_dataset.union_kg(), RuleBank.load(str(mined_rules))
        retrieval_cfg = RetrievalConfig(window=5, stepwise=True)
        prompt_cfg = PromptConfig(max_facts=3)
        library = [
            build_prompt(select_history(retrieve(kg, rules, query, retrieval_cfg), prompt_cfg,
                                        retrieval_cfg), prompt_cfg, kg).text
            for query in queries_from_split(synthetic_dataset, "test")
        ]
        assert [row["text"] for row in rows] == library
        # eval sends its requests concurrently, so in no fixed order
        assert sorted(payload["prompt"] for payload in stub.payloads) == sorted(library)
        manifest = json.loads((tmp_path / "p.jsonl.manifest.json").read_text())
        assert RetrievalConfig(**manifest["config"]["retrieval"]) == retrieval_cfg


class TestOneGraphPerSplitSet:
    """`eval` retrieves from the filter index when both name the same
    splits."""

    @staticmethod
    def graphs_of_eval(runner, monkeypatch, args):
        """The retrieval graph and the filter index `eval` hands `run_eval`."""
        seen = []

        def capture(kg, bank, queries, predictor, retrieval_cfg, prompt_cfg, filter_index,
                    **kwargs):
            seen.append((kg, filter_index))
            return run_eval(kg, bank, queries, predictor, retrieval_cfg, prompt_cfg,
                            filter_index, **kwargs)

        monkeypatch.setattr(cli, "run_eval", capture)
        run_ok(runner, ["eval", *args])
        (graphs,) = seen
        return graphs

    def test_eval_retrieves_from_the_filter_index(self, runner, monkeypatch, synthetic_dir,
                                                  mined_rules, tmp_path):
        args = ["--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules)]
        kg, index = self.graphs_of_eval(runner, monkeypatch,
                                        [*args, "--out-dir", str(tmp_path / "a")])
        assert kg is index
        kg, index = self.graphs_of_eval(
            runner, monkeypatch,
            [*args, "--retrieval-splits", "test,valid,train", "--out-dir", str(tmp_path / "b")])
        assert kg is index
        kg, index = self.graphs_of_eval(
            runner, monkeypatch,
            [*args, "--filter-splits", "train", "--out-dir", str(tmp_path / "c")])
        assert kg is not index
        assert len(index) < len(kg)


class TestResumeInputs:
    """A journal is only resumed by a run over the same inputs: the eval
    fingerprint covers the contents of the rule bank and of the dataset."""

    @staticmethod
    def change_rules(dataset, rules):
        run_ok(CliRunner(), ["mine", "--dataset-dir", str(dataset),
                             "--min-body-support", "100000", "--out", str(rules)])

    @staticmethod
    def change_dataset(dataset, _rules):
        train = dataset / "train.txt"
        lines = train.read_text().splitlines(keepends=True)
        train.write_text("".join(lines[:-1]))

    @pytest.mark.parametrize("change", ["change_rules", "change_dataset"])
    def test_changed_input_refuses_stale_journal(
        self, runner, synthetic_dir, mined_rules, tmp_path, change
    ):
        dataset = tmp_path / "data"
        shutil.copytree(synthetic_dir, dataset)
        rules = tmp_path / "rules.json"
        shutil.copy(mined_rules, rules)
        out_dir = tmp_path / "run"
        args = ["eval", "--dataset-dir", str(dataset), "--rules", str(rules),
                "--out-dir", str(out_dir)]
        first = run_ok(runner, args).output
        manifest = strip_created_at(out_dir / "manifest.json")
        assert set(manifest["inputs"]) == {"rules", "dataset"}
        assert run_ok(runner, args).output == first  # same inputs resume

        getattr(self, change)(dataset, rules)
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "was written under fingerprint" in result.output

    def test_request_seed_joins_the_fingerprint(self, runner, seed3, tmp_path):
        """`eval --seeds 1` sends a seed with every request and `eval` none,
        under one config: a journal of either is not resumed by the other,
        before any request."""
        data, rules = seed3
        out_dir = tmp_path / "run"
        stub = StubEndpoint(sequences=["0.e01]"])
        args = ["eval", "--dataset-dir", str(data), "--rules", str(rules), "--predictor",
                "llm", "--endpoint", stub.url, "--num-sequences", "1",
                "--out-dir", str(out_dir)]
        try:
            run_ok(runner, args)
            journal = out_dir / "records.jsonl"
            journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:10]))
            sent = stub.attempts
            result = runner.invoke(main, [*args, "--seeds", "1"])
        finally:
            stub.close()
        assert result.exit_code == 1, result.output
        assert "was written under fingerprint" in result.output
        assert stub.attempts == sent == 37
        assert "seed" not in stub.payloads[0]

    def test_deployment_settings_leave_the_fingerprint(self, runner, seed3, tmp_path):
        """Where the dataset lies and how requests travel leave the answers
        as they are, so a journal cut short resumes under another timeout,
        retry budget, backoff, in-flight cap and spelling of the dataset
        path, sending only the missing requests; a setting that can change
        the answers still refuses it, before any request."""
        data, rules = seed3
        out_dir = tmp_path / "run"
        stub = StubEndpoint(sequences=["0.e01]"])
        args = ["eval", "--rules", str(rules), "--predictor", "llm", "--endpoint", stub.url,
                "--num-sequences", "1", "--out-dir", str(out_dir)]
        journal, report = out_dir / "records.jsonl", out_dir / "report.json"
        try:
            run_ok(runner, [*args, "--dataset-dir", str(data)])
            clean = journal.read_bytes(), report.read_bytes()
            journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:10]))
            run_ok(runner, [*args, "--dataset-dir", os.path.relpath(data), "--timeout", "60",
                            "--retries", "5", "--backoff", "0.5", "--in-flight", "2"])
            assert stub.attempts == 37 + 27
            assert (journal.read_bytes(), report.read_bytes()) == clean
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["config"]["generation"]["timeout"] == 60
            assert manifest["config"]["dataset"]["dir"] == os.path.relpath(data)

            journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:10]))
            result = runner.invoke(main, [*args, "--dataset-dir", str(data),
                                          "--num-sequences", "2"])
        finally:
            stub.close()
        assert result.exit_code == 1, result.output
        assert "was written under fingerprint" in result.output
        assert stub.attempts == 37 + 27

    @pytest.mark.parametrize("command", ["eval", "retrieve"])
    def test_rules_digest_is_of_the_bank_parsed(self, runner, monkeypatch, synthetic_dir,
                                                mined_rules, tmp_path, command):
        """A rule bank replaced after the command parsed it does not lend the
        run its digest: the manifest records the bytes that were parsed, so
        an eval on the new bank does not resume the old bank's records."""
        rules = tmp_path / "rules.json"
        shutil.copy(mined_rules, rules)
        other = tmp_path / "other.json"
        run_ok(runner, ["mine", "--dataset-dir", str(synthetic_dir), "--seed", "2",
                        "--walks", "1", "--min-body-support", "5000", "--out", str(other)])
        assert json.loads(other.read_text())["rules"] == []
        queries_from_split = cli.queries_from_split

        def swapped(*args):
            shutil.copy(other, rules)
            return queries_from_split(*args)

        monkeypatch.setattr(cli, "queries_from_split", swapped)
        out = tmp_path / "out"
        args = [command, "--dataset-dir", str(synthetic_dir), "--rules", str(rules),
                "--out-dir" if command == "eval" else "--out", str(out)]
        run_ok(runner, args)
        manifest = out / "manifest.json" if command == "eval" else tmp_path / "out.manifest.json"
        digest = hashlib.sha256(mined_rules.read_bytes()).hexdigest()
        assert json.loads(manifest.read_text())["inputs"]["rules"] == digest
        if command == "eval":
            monkeypatch.undo()
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert "was written under fingerprint" in result.output

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_input_digest_is_of_the_file_parsed(self, runner, monkeypatch, seed3, tmp_path,
                                                 command):
        """A histories or prompts file replaced after the command hashed it
        is not parsed: the command parses the file it opened and hashed, so
        its output and manifest are a clean run's, and its requests carry
        the prompts of the file hashed."""
        data, rules = seed3
        dataset = ["--dataset-dir", str(data)]
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        other_histories, other_prompts = tmp_path / "oh.jsonl", tmp_path / "op.jsonl"
        for args in (["retrieve", "--rules", str(rules), "--out", str(histories)],
                     ["retrieve", "--rules", str(rules), "--window", "5", "--stepwise",
                      "--out", str(other_histories)],
                     ["prompt", "--histories", str(histories), "--out", str(prompts)],
                     ["prompt", "--histories", str(histories), "--format", "lexical",
                      "--out", str(other_prompts)]):
            run_ok(runner, [*args, *dataset])
        path, other, option = {"prompt": (histories, other_histories, "--histories"),
                               "infer": (prompts, other_prompts, "--prompts")}[command]
        assert path.read_bytes() != other.read_bytes()
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        stub = StubEndpoint(sequences=["0.e01]"])

        def run(out):
            endpoint = ["--endpoint", stub.url] if command == "infer" else []
            run_ok(runner, [command, *dataset, option, str(path), *endpoint, "--out", str(out)])
            return out.read_bytes(), strip_created_at(f"{out}.manifest.json")

        def swapped(call):
            def swap(*args):
                shutil.copy(other, tmp_path / "swap")
                os.replace(tmp_path / "swap", path)
                return call(*args)
            return swap

        try:
            clean = run(tmp_path / "clean.jsonl")
            sent = [payload["prompt"] for payload in stub.payloads]
            name = {"prompt": "claim", "infer": "LLMPredictor"}[command]
            monkeypatch.setattr(cli, name, swapped(getattr(cli, name)))
            assert run(tmp_path / "out.jsonl") == clean
        finally:
            stub.close()
        assert clean[1]["inputs"]["histories" if command == "prompt" else "prompts"] == digest
        assert path.read_bytes() == other.read_bytes()
        assert sorted(payload["prompt"] for payload in stub.payloads) == sorted(sent * 2)

    @pytest.mark.parametrize("command", ["prompt", "infer"])
    def test_input_rewritten_in_place_refused(self, runner, monkeypatch, seed3, tmp_path,
                                              command):
        """A histories or prompts file rewritten in place (same inode) after
        the command opened it is parsed from its new bytes, which its
        manifest does not describe: the digest checked is of the bytes
        parsed, so the run exits 1, leaving no output and sending no
        request."""
        data, rules = seed3
        dataset = ["--dataset-dir", str(data)]
        histories, prompts = tmp_path / "h.jsonl", tmp_path / "p.jsonl"
        other_histories, other_prompts = tmp_path / "oh.jsonl", tmp_path / "op.jsonl"
        for args in (["retrieve", "--rules", str(rules), "--out", str(histories)],
                     ["retrieve", "--rules", str(rules), "--window", "5", "--stepwise",
                      "--out", str(other_histories)],
                     ["prompt", "--histories", str(histories), "--out", str(prompts)],
                     ["prompt", "--histories", str(histories), "--format", "lexical",
                      "--out", str(other_prompts)]):
            run_ok(runner, [*args, *dataset])
        path, other, option = {"prompt": (histories, other_histories, "--histories"),
                               "infer": (prompts, other_prompts, "--prompts")}[command]
        recorded = json.loads(path.with_name(path.name + ".manifest.json").read_text())["sha256"]
        inode = path.stat().st_ino

        def rewritten(call):
            def rewrite(*args):
                shutil.copyfile(other, path)
                return call(*args)
            return rewrite

        name = {"prompt": "claim", "infer": "LLMPredictor"}[command]
        monkeypatch.setattr(cli, name, rewritten(getattr(cli, name)))
        stub = StubEndpoint(sequences=["0.e01]"])
        out = tmp_path / "out.jsonl"
        endpoint = ["--endpoint", stub.url] if command == "infer" else []
        try:
            result = runner.invoke(main, [command, *dataset, option, str(path), *endpoint,
                                          "--out", str(out)])
        finally:
            stub.close()
        assert path.stat().st_ino == inode
        digest = hashlib.sha256(other.read_bytes()).hexdigest()
        assert (result.exit_code, result.output) == (
            1, f"error: {path}.manifest.json: describes a file of sha256 {recorded}, "
               f"but {path} has sha256 {digest}\n")
        assert stub.attempts == 0
        assert not [name for name in os.listdir(tmp_path) if name.startswith("out.jsonl")]

    @pytest.mark.parametrize("option", [
        ["--retrieval-splits", "train", "--filter-splits", "train"],
        ["--retrieval-splits", "train"],
        ["--filter-splits", "train"],
    ], ids=["both", "retrieval", "filter"])
    def test_changed_option_refuses_stale_journal(self, runner, synthetic_dir, mined_rules,
                                                  tmp_path, option):
        """Options outside the config that change the records are part of
        the fingerprint too."""
        args = ["eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--out-dir", str(tmp_path / "run")]
        run_ok(runner, args)
        first = strip_created_at(tmp_path / "run" / "manifest.json")["fingerprint"]
        result = runner.invoke(main, [*args, *option])
        assert result.exit_code == 1, result.output
        assert "was written under fingerprint" in result.output
        fresh = [*args[:-1], str(tmp_path / "fresh")]
        run_ok(runner, [*fresh, *option])
        assert strip_created_at(tmp_path / "fresh" / "manifest.json")["fingerprint"] != first

    @pytest.mark.parametrize("index, message", [
        ("0", "index: expected an int in [0, 37), got '0'"),
        (-1, "index: expected an int in [0, 37), got -1"),
        (99, "index: expected an int in [0, 37), got 99"),
    ], ids=["string", "negative", "past-the-split"])
    def test_journal_index_outside_the_split_refused(
        self, runner, synthetic_dir, mined_rules, tmp_path, index, message
    ):
        out_dir = tmp_path / "run"
        args = ["eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--out-dir", str(out_dir)]
        run_ok(runner, args)
        journal = out_dir / "records.jsonl"
        lines = journal.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        lines[2] = json.dumps({**row, "index": index}) + "\n"
        journal.write_text("".join(lines))
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {journal}:3: {message}\n"

    def test_journal_row_of_another_query_refused(self, runner, synthetic_dir, mined_rules,
                                                  tmp_path):
        """Two rows that swap their indices each carry the record of the
        other's query; resuming them would count each record for the wrong
        query."""
        out_dir = tmp_path / "run"
        args = ["eval", "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
                "--out-dir", str(out_dir)]
        run_ok(runner, args)
        journal = out_dir / "records.jsonl"
        rows = [json.loads(line) for line in journal.read_text().splitlines()]
        rows[0]["index"], rows[1]["index"] = rows[1]["index"], rows[0]["index"]
        journal.write_text("".join(json.dumps(row) + "\n" for row in rows))
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == (f"error: {journal}:1: query: expected {rows[1]['query']}, "
                                 f"got {rows[0]['query']}\n")


class TestCommaLists:
    @pytest.mark.parametrize("command, option, value, message", [
        ("eval", "--seeds", "1,x", "--seeds: expected int, got 'x'"),
        ("eval", "--seeds", "2,2", "--seeds: 2 is given twice"),
        ("ablate", "--lengths", "10,x", "--lengths: expected int, got 'x'"),
        ("ablate", "--lengths", "10,10", "--lengths: 10 is given twice"),
        ("ablate", "--orders", "ascending, ascending", "--orders: ascending is given twice"),
        ("eval", "--seeds", "100000000000000000000",
         "--seeds: expected int, got '100000000000000000000'"),
    ], ids=["seeds-not-int", "seeds-twice", "lengths-not-int", "lengths-twice", "orders-twice",
            "seeds-beyond-64-bits"])
    def test_bad_comma_list_named(self, runner, synthetic_dir, mined_rules, tmp_path,
                                  command, option, value, message):
        result = runner.invoke(main, [
            command, "--dataset-dir", str(synthetic_dir), "--rules", str(mined_rules),
            option, value, "--out-dir", str(tmp_path / "run"),
        ])
        assert result.exit_code == 1, result.output
        assert result.output == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, option", [
        ("mine", "--mine-splits"),
        ("retrieve", "--retrieval-splits"),
        ("eval", "--retrieval-splits"),
        ("eval", "--filter-splits"),
        ("ablate", "--filter-splits"),
    ])
    def test_split_given_twice_refused(self, runner, monkeypatch, synthetic_dir, mined_rules,
                                       tmp_path, command, option):
        """A split named twice would give one run two fingerprints; it is
        refused before the dataset is loaded."""
        def no_load(*args):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        out = tmp_path / "out"
        outputs = {"mine": ["--out", str(out)],
                   "retrieve": ["--rules", str(mined_rules), "--out", str(out)]}
        result = runner.invoke(main, [
            command, "--dataset-dir", str(synthetic_dir), option, "train,valid, train",
            *outputs.get(command, ["--rules", str(mined_rules), "--out-dir", str(out)]),
        ])
        assert (result.exit_code, result.output) == (1, f"error: {option}: train is given twice\n")
        assert not out.exists()


    @pytest.mark.parametrize("command, option, value, allowed", [
        ("mine", "--mine-splits", "train,trian", "train, valid, test"),
        ("retrieve", "--split", "tset", "train, valid, test"),
        ("retrieve", "--retrieval-splits", "train,tset", "train, valid, test"),
        ("eval", "--split", "tset", "train, valid, test"),
        ("eval", "--retrieval-splits", "tset", "train, valid, test"),
        ("eval", "--filter-splits", "train,tset", "train, valid, test"),
        ("ablate", "--split", "tset", "train, valid, test"),
        ("ablate", "--filter-splits", "tset", "train, valid, test"),
        ("ablate", "--orders", "ascending,ascnding",
         "ascending, descending, random, timestamps-removed"),
        ("ablate", "--formats", "lexical,indx", "index, lexical"),
    ])
    def test_unknown_name_refused_before_the_load(self, runner, monkeypatch, synthetic_dir,
                                                  mined_rules, tmp_path, command, option,
                                                  value, allowed):
        """A split, order or format that does not exist is named with its
        option and the names allowed, before the dataset is loaded."""
        def no_load(*args):
            raise AssertionError("the dataset was loaded")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        out = tmp_path / "out"
        outputs = {"mine": ["--out", str(out)],
                   "retrieve": ["--rules", str(mined_rules), "--out", str(out)]}
        result = runner.invoke(main, [
            command, "--dataset-dir", str(synthetic_dir), option, value,
            *outputs.get(command, ["--rules", str(mined_rules), "--out-dir", str(out)]),
        ])
        bad = value.split(",")[-1]
        assert (result.exit_code, result.output) == (
            1, f"error: {option}: expected one of {allowed}, got {bad!r}\n")
        assert not out.exists()


class TestTextInputs:
    """What every text input shares: one reader of lines, and a byte that
    is not UTF-8 named with its file, and its line in a file of lines."""

    @pytest.mark.parametrize("missing", ["entity2id.txt", "relation2id.txt"])
    def test_one_id_map_refused(self, runner, synthetic_dir, tmp_path, missing):
        data = tmp_path / "data"
        shutil.copytree(synthetic_dir, data)
        (data / missing).unlink()
        other = ({"entity2id.txt", "relation2id.txt"} - {missing}).pop()
        result = runner.invoke(main, ["mine", "--dataset-dir", str(data),
                                      "--out", str(tmp_path / "rules.json")])
        assert (result.exit_code, result.output) == (
            1, f"error: {data}/{missing}: missing; {other} is there, and a dataset has both "
               f"id maps or neither\n")
        assert not (tmp_path / "rules.json").exists()

    @pytest.mark.parametrize("kind, line", [
        ("config", None), ("rules", None), ("histories", 1), ("histories-manifest", None),
        ("prompts", 1), ("journal", 1), ("entity2id.txt", 1), ("valid.txt", 1),
    ])
    def test_byte_not_utf8_named(self, runner, synthetic_dir, mined_rules, tmp_path, kind, line):
        """The byte 0xff ends the first line of the input."""
        data, rules, config = tmp_path / "data", tmp_path / "rules.json", tmp_path / "c.json"
        shutil.copytree(synthetic_dir, data)
        shutil.copy(mined_rules, rules)
        config.write_text("{\n}\n")
        histories, prompts, run = tmp_path / "h.jsonl", tmp_path / "p.jsonl", tmp_path / "run"
        common = ["--dataset-dir", str(data), "--config", str(config)]
        retrieve = ["retrieve", *common, "--rules", str(rules), "--out", str(histories)]
        prompt = ["prompt", *common, "--histories", str(histories), "--out", str(prompts)]
        infer = ["infer", *common, "--prompts", str(prompts), "--endpoint",
                 "http://127.0.0.1:9/", "--retries", "0", "--out", str(tmp_path / "x.jsonl")]
        evaluate = ["eval", *common, "--rules", str(rules), "--out-dir", str(run)]
        # (the input, the command reading it, the commands that write it first)
        path, args, writers = {
            "config": (config, retrieve, []),
            "rules": (rules, retrieve, []),
            "histories": (histories, prompt, [retrieve]),
            "histories-manifest": (tmp_path / "h.jsonl.manifest.json", prompt, [retrieve]),
            "prompts": (prompts, infer, [retrieve, prompt]),
            "journal": (run / "records.jsonl", evaluate, [evaluate]),
            "entity2id.txt": (data / "entity2id.txt", retrieve, []),
            "valid.txt": (data / "valid.txt", retrieve, []),
        }[kind]
        for writer in writers:
            run_ok(runner, writer)
        text = path.read_bytes()
        path.write_bytes(text.replace(b"\n", b"\xff\n", 1))
        record_sha256(path)
        result = runner.invoke(main, args)
        # no traceback: the command ends through sys.exit
        assert isinstance(result.exception, SystemExit), result.exception
        where = str(path) if line is None else f"{path}:{line}"
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: {where}: ") and result.output.count("\n") == 1
        assert "can't decode byte 0xff" in result.output, result.output
