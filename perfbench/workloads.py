"""The workloads: set-up builds the inputs, `rep` runs one timed
repetition and returns its operations with the digests of their outputs.

Imported by run.py once `src/` is on the path. Program functions are called
through their modules (`rules.learn_rules`, not a local binding), so the
wrappers that spans.py installs see every call.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tkgrag import cli, evaluation, kg, rules
from tkgrag.prompts import PromptConfig
from tkgrag.retrieval import Query, RetrievalConfig

import desk_graph
from spans import TimingPredictor

SETUP_TRIES = 3  # input generation is repeated and its median time reported
MINING = rules.MiningParams(num_walks=200, seed=7)
CLI_TIMEOUT_S = 60
SRC = Path(kg.__file__).resolve().parent.parent

now = time.perf_counter


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_sha256(report: dict) -> str:
    """Digest of an eval report without its config fingerprint, which names
    the run's configuration rather than anything the pipeline computed."""
    body = {k: v for k, v in report.items() if k != "fingerprint"}
    return sha256(json.dumps(body, sort_keys=True))


def median_time(fn, tries: int):
    """(median time of `tries` calls, the last result)."""
    times, result = [], None
    for _ in range(tries):
        start = now()
        result = fn()
        times.append(now() - start)
    return statistics.median(times), result


class Op:
    """One operation: a repetition, or one CLI command. It fails when it
    raises, exits non-zero, or yields an output whose digest is wrong."""

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.digests: dict[str, str] = {}
        self.error = ""


class Workload:
    # Every workload mines its rule bank during set-up.
    expected_spans = ("kg.build", "kg.index_so", "kg.last_time",
                      "rules.mine", "rules.walk", "rules.confidence")
    rss_of = resource.RUSAGE_SELF
    warmup_reps = 0

    def __init__(self, name: str, seed: int, size: desk_graph.Size):
        self.name, self.seed, self.size = name, seed, size
        self.info: dict = {}

    def check_graph(self, quads, pinned: dict | None) -> None:
        if pinned is None:
            return
        entities, relations = desk_graph.vocabulary(self.size)
        if (2 * len(quads), len(relations), len(entities)) != (74854, 230, 7128):
            raise RuntimeError("the desk graph no longer has 74,854 edges, 230 relation ids "
                               "and 7,128 entities")
        if desk_graph.quads_digest(quads) != pinned["quads"]:
            raise RuntimeError("the desk graph's quads differ from the pinned digest")

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.mine_s


class InMemory(Workload):
    """The graph in memory and test 09's queries; the rule bank is the one
    test 09 mines, `learn_rules(num_walks=200, seed=7)` on the whole graph."""

    expected_spans = Workload.expected_spans + (
        "evaluation.filter_index", "retrieval.retrieve", "prompts.select",
        "prompts.build", "client.predict", "evaluation.filter")
    warmup_reps = 1  # a few seconds; the first one after mining is not timed

    def setup_inputs(self, pinned) -> None:
        def inputs():
            quads = desk_graph.generate_quads(self.seed, self.size)
            self.entities, self.relations = desk_graph.vocabulary(self.size)
            self.full = desk_graph.with_inverses(quads, self.size.n_base)
            return quads

        self.gen_s, quads = median_time(inputs, SETUP_TRIES)
        self.check_graph(quads, pinned)

    def setup(self, pinned):
        self.setup_inputs(pinned)
        start = now()
        graph = self.new_kg()
        n_base = self.size.n_base
        self.queries = [
            Query(int(graph.sub[p]), int(graph.rel[p]) % n_base, int(graph.ts[p]),
                  int(graph.obj[p]))
            for p in desk_graph.query_positions(len(graph), self.size)
        ]
        self.bank = rules.learn_rules(graph, MINING)
        self.mine_s = now() - start
        self.info["rules"] = len(self.bank)
        if pinned is not None and sha256(self.bank.to_json() + "\n") != pinned["rules.json"]:
            raise RuntimeError("the set-up rule bank differs from the pinned rules.json")

    def new_kg(self) -> kg.TemporalKG:
        return kg.TemporalKG(self.entities, self.relations, self.full, self.size.n_base)

    def predictor(self, tracer=None):
        oracle = evaluation.OraclePredictor(self.bank)
        return oracle if tracer is None else TimingPredictor(tracer, oracle)

    def fresh_graph_and_filter(self):
        graph = self.new_kg()
        empty = kg.TemporalKG(self.entities, self.relations, [], self.size.n_base)
        dataset = kg.Dataset(self.entities, self.relations, self.size.n_base,
                             {"train": graph, "valid": empty, "test": empty}, 1, 0)
        return graph, evaluation.build_filter_index(dataset)


class DeskMine(InMemory):
    """Graph build plus rule mining: the timed body is `rules` and the lazy
    `kg` indices. Not in BENCHMARK.json (see README.md)."""

    expected_spans = Workload.expected_spans
    warmup_reps = 0  # a repetition is a whole mine

    def setup(self, pinned):
        self.setup_inputs(pinned)
        self.mine_s = 0.0

    def rep(self, tracer=None):
        op = Op("mine")
        start = now()
        bank = rules.learn_rules(self.new_kg(), MINING)
        op.seconds = now() - start
        op.digests["rules.json"] = sha256(bank.to_json() + "\n")
        self.info["rules"] = len(bank)
        return [op]


class DeskForecast(InMemory):
    """Oracle `run_eval` over test 09's queries: retrieval, prompts and
    prediction, no mining and no disk I/O in the timed body."""

    expected_spans = InMemory.expected_spans + ("evaluation.run_eval",)

    def rep(self, tracer=None):
        op = Op("forecast")
        predictor = self.predictor(tracer)
        start = now()
        graph, filter_index = self.fresh_graph_and_filter()
        report, records = evaluation.run_eval(
            graph, self.bank, self.queries, predictor, RetrievalConfig(max_history=50),
            PromptConfig(max_facts=50), filter_index)
        op.seconds = now() - start
        op.digests["records.jsonl"] = sha256("".join(json.dumps(r.as_dict()) + "\n"
                                                     for r in records))
        op.digests["report.json"] = report_sha256(report.as_dict())
        self.info.update(hits1=report.hits1, hits3=report.hits3, hits10=report.hits10,
                         items=len(self.queries), item_unit="queries")
        return [op]


class AblationGrid(InMemory):
    """2 orders x {10, 50} facts x {index, lexical} over one shared
    retrieval: prompt rendering dominates. Not in BENCHMARK.json (see
    README.md)."""

    expected_spans = InMemory.expected_spans + ("evaluation.ablation",)

    def rep(self, tracer=None):
        op = Op("ablation")
        predictor = self.predictor(tracer)
        start = now()
        graph, filter_index = self.fresh_graph_and_filter()
        cells = evaluation.ablation_run(
            graph, self.bank, self.queries, ["ascending", "descending"], [10, 50],
            ["index", "lexical"], predictor, RetrievalConfig(max_history=50), filter_index)
        op.seconds = now() - start
        op.digests["summary.tsv"] = sha256(evaluation.ablation_summary(cells))
        # The oracle ignores order and format, so cells of one length agree.
        by_length: dict[int, set] = {}
        for cell in cells:
            by_length.setdefault(cell.history_length, set()).add(
                (cell.report.hits1, cell.report.hits3, cell.report.hits10))
        if any(len(reports) != 1 for reports in by_length.values()):
            op.error = "cells of one history length report different hits"
        self.info.update(items=len(self.queries) * len(cells), item_unit="query-cells")
        return [op]


class CliFiles(Workload):
    """The dataset as files, driven through the command line one process
    per command: text parsing, split graphs, filter index, JSONL artifacts,
    a resumed eval, stepwise retrieval and process start-up."""

    expected_spans = Workload.expected_spans + (
        "kg.load", "kg.union", "evaluation.filter_index", "evaluation.run_eval",
        "retrieval.retrieve", "prompts.select", "prompts.build", "prompts.export",
        "client.predict", "evaluation.filter",
        "cli.retrieve", "cli.prompt", "cli.eval", "cli.eval_resume",
        "cli.eval_stepwise", "cli.export")
    rss_of = resource.RUSAGE_CHILDREN  # the largest child's peak

    def setup(self, pinned):
        def inputs():
            quads = desk_graph.generate_quads(self.seed, self.size)
            desk_graph.write_dataset_dir("data", quads, self.size)
            return quads

        self.gen_s, quads = median_time(inputs, SETUP_TRIES)
        self.check_graph(quads, pinned)
        start = now()
        # what `tkgrag mine` does: mine the train split
        dataset = kg.load_dataset("data")
        bank = rules.learn_rules(dataset.union_kg(("train",)), MINING)
        bank.save("rules.json")
        self.mine_s = now() - start
        self.info["rules"] = len(bank)
        self.reps_done = 0

    def commands(self, out: str) -> list[tuple[str, list[str], list[str]]]:
        """(name, arguments, artifacts whose digests the command must match).
        Both evals answer for `eval/report.json`: the resumed one reads the
        journal and must rewrite the same report."""
        data = ["--dataset-dir", "data"]
        bank = ["--rules", "rules.json"]
        return [
            ("retrieve", ["retrieve", *data, *bank, "--out", f"{out}/histories.jsonl"],
             ["histories.jsonl"]),
            ("prompt", ["prompt", *data, "--histories", f"{out}/histories.jsonl",
                        "--out", f"{out}/prompts.jsonl"], ["prompts.jsonl"]),
            ("eval", ["eval", *data, *bank, "--out-dir", f"{out}/eval"],
             ["eval/report.json"]),
            ("eval_resume", ["eval", *data, *bank, "--out-dir", f"{out}/eval"],
             ["eval/report.json"]),
            ("eval_stepwise", ["eval", *data, *bank, "--window", "30", "--stepwise",
                               "--out-dir", f"{out}/eval-stepwise"],
             ["eval-stepwise/report.json"]),
            ("export", ["export", *data, *bank, "--k", str(self.size.export_k),
                        "--seed", "1", "--out", f"{out}/finetune.jsonl"],
             ["finetune.jsonl"]),
        ]

    def rep(self, tracer=None, in_process=False):
        """Each command as a child process, or with `in_process` through the
        command line's entry point in this process (traced when `tracer`)."""
        run = self.in_process(tracer) if in_process else run_child
        self.reps_done += 1
        out = f"rep-{self.reps_done}"
        ops = []
        for name, args, artifacts in self.commands(out):
            op = Op(name)
            start = now()
            code, log = run(name, args)
            op.seconds = now() - start
            if code != 0:
                op.error = f"exit code {code}: {log.strip()[-300:]}"
            else:
                for artifact in artifacts:
                    path = os.path.join(out, artifact)
                    if artifact.endswith("report.json"):
                        with open(path, encoding="utf-8") as fh:
                            op.digests[artifact] = report_sha256(json.load(fh))
                    else:
                        op.digests[artifact] = file_sha256(path)
            ops.append(op)
        self.bytes_written = sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())
        self.journal_bytes = sum(p.stat().st_size for p in Path(out).rglob("records.jsonl"))
        report_path = os.path.join(out, "eval", "report.json")
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                hits = json.load(fh)["hits"]
            self.info.update(hits1=hits["1"], hits3=hits["3"], hits10=hits["10"])
        shutil.rmtree(out)
        return ops

    def in_process(self, tracer=None):
        def run(name, args):
            log = io.StringIO()
            span = tracer.open(f"cli.{name}") if tracer else None
            try:
                with redirect_stdout(log), redirect_stderr(log):
                    cli.main.main(args=args, prog_name="tkgrag", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                if span is not None:
                    tracer.close(span)
            return code, log.getvalue()

        return run


def run_child(_name: str, args: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "tkgrag.cli", *args], env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stderr


def import_seconds() -> float:
    """Start-up of one child process that imports the command line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = now()
    subprocess.run([sys.executable, "-c", "import tkgrag.cli"], env=env, check=True,
                   timeout=CLI_TIMEOUT_S)
    return now() - start


WORKLOADS = {"desk-forecast": DeskForecast, "cli-files": CliFiles,
             "desk-mine": DeskMine, "ablation-grid": AblationGrid}
