"""Corruption harness for the JSON inputs of the command line.

Every field of the config file, `rules.json` (params and rules), histories
(query, facts, provenance), prompts (their query too) and the eval journal
gets the same mutations: a string, a float, a bool, null, a list, a
negative number, 2**64 and the field left out. A mutation must exit 1 with
`error: <path>[:<line>]: <field>…` and no traceback, unless the format allows
it: those are listed in ALLOWED with the reason, and their run goes through.
A history fact given whole as another JSON value is covered too, and so are
two row mutations: a query time step past the dataset's last one, and a key
repeated within a JSON-lines row.

The text inputs of a dataset directory, both id maps and the three split
files, get the same mutations per column, written as text, plus a duplicated
line and a line with an extra column. A mutation must exit 1 with
`error: <path>:<line>: …`, unless TEXT_ALLOWED lists it.
"""
import dataclasses
import json
import shutil

import pytest
from click.testing import CliRunner

from tkgrag.cli import main
from tkgrag.client import GenParams
from tkgrag.config import build_run_config
from tkgrag.evaluation import EvalRecord
from tkgrag.kg import DatasetSpec
from tkgrag.prompts import Prompt, PromptConfig
from tkgrag.retrieval import Query, RetrievalConfig
from tkgrag.rules import MiningParams, Provenance, TemporalRule

from test_client import StubEndpoint

MISSING = object()
MUTATIONS = {"string": "x", "float": 0.5, "bool": True, "null": None, "list": [1],
             "negative": -1, "2**64": 2**64, "missing": MISSING}
# a time step after the last one of the synthetic dataset
PAST_THE_DATA = 10**6


def keys_of(cls) -> list[str]:
    """The JSON keys of a dataclass's fields."""
    renamed = getattr(cls, "json_keys", {})
    return [renamed.get(field.name, field.name) for field in dataclasses.fields(cls)]


SECTIONS = {"dataset": DatasetSpec, "mining": MiningParams, "retrieval": RetrievalConfig,
            "prompt": PromptConfig, "generation": GenParams}
# (input, where, key): the JSON object a field sits in and its key there
FIELDS = (
    [("config", section, key) for section, cls in SECTIONS.items() for key in keys_of(cls)]
    + [("config", "", "endpoint"), ("config", "", "seed")]
    + [("rules", "params", key) for key in keys_of(MiningParams)]
    + [("rules", "rules[1]", key) for key in keys_of(TemporalRule)]
    + [("histories", "query", key) for key in keys_of(Query)]
    + [("histories", "facts", key) for key in ("s", "r", "o", "t", "provenance")]
    + [("histories", "facts.provenance", key) for key in (*keys_of(Provenance), "kind")]
    + [("prompts", "", key) for key in keys_of(Prompt)]
    + [("prompts", "query", key) for key in keys_of(Query)]
    + [("journal", "", key) for key in ["index"] + keys_of(EvalRecord)]
    + [("journal", "query", key) for key in keys_of(Query)]
)


def allow(reason: str, *cases: str) -> dict:
    """{(input, field, mutation): reason} for cases written
    "<input> <field> <mutation>"."""
    return {tuple(case.split()): reason for case in cases}


ALLOWED = {
    **allow("every config field has a default",
            *(f"config {f'{where}.' if where else ''}{key} missing"
              for input_, where, key in FIELDS if input_ == "config" and key != "dir")),
    **allow("a string is a path; one that holds no dataset fails on load, naming the file",
            "config dataset.dir string"),
    **allow("the value has the field's type",
            "config dataset.inverse bool", "config retrieval.stepwise bool",
            "config prompt.instruction string", "config generation.temperature float",
            "config generation.timeout float", "config generation.backoff float",
            "config endpoint string", "histories facts.provenance.confidence float",
            "prompts text string", "prompts query_prefix string"),
    **allow("an Optional field takes null",
            "config retrieval.window null", "config retrieval.top_rules null",
            "config prompt.max_facts null", "config endpoint null", "histories query.gold null",
            "prompts query.gold null"),
    **allow("any integer is a seed",
            "config mining.seed negative", "config prompt.order_seed negative",
            "config seed negative", "rules params.seed negative"),
    **allow("a temperature takes any finite non-negative number",
            "config generation.temperature 2**64"),
    **allow("a parameter the rule bank lacks takes its default",
            *(f"rules params.{key} missing" for key in keys_of(MiningParams))),
    **allow("the field has a default",
            "histories query.gold missing", "prompts query.gold missing",
            "prompts index_map missing",
            "prompts query_prefix missing", "prompts format missing",
            "journal n_skipped missing"),
    **allow("the format is a label that no reader checks", "prompts format string"),
    **allow("a provenance's kind is a label that no reader checks",
            *(f"histories facts.provenance.kind {mutation}" for mutation in MUTATIONS
              if mutation != "list")),
    **allow("forecasting beyond the data is a real use",
            "histories query.t past-the-data", "prompts query.t past-the-data"),
    **allow("a repeated key keeps its last value, as json.loads does: checking every row "
            "costs prompt and eval resumes too much (see README)",
            *(f"{input_} query.t repeated" for input_ in ("histories", "prompts", "journal"))),
}
# allowed cases whose run does not go through, and how it ends instead
FAILS_LATER = {("config", "dataset.dir", "string"): "error: missing split file x/train.txt\n"}
# rejected cases reported under the field they contradict
NAMED_AS = {("journal", "predictions", "list"): "rank"}

# the row mutations: "past-the-data" sets the field to PAST_THE_DATA, and
# "repeated" writes its key twice in the row, first with a wrong value
ROW_CASES = [("histories", "query.t", "past-the-data"), ("prompts", "query.t", "past-the-data"),
             *((input_, "query.t", "repeated") for input_ in ("histories", "prompts", "journal"))]
CASES = [(input_, f"{where}.{key}" if where else key, mutation)
         for input_, where, key in FIELDS for mutation in MUTATIONS] + ROW_CASES


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, synthetic_dir):
    """The intact inputs: a config, a rule bank, histories, prompts and an
    eval run directory holding its journal."""
    root = tmp_path_factory.mktemp("intact")
    data = ["--dataset-dir", str(synthetic_dir)]
    paths = {name: root / name for name in
             ("config.json", "rules.json", "histories.jsonl", "prompts.jsonl", "run")}
    paths["config.json"].write_text(json.dumps(
        build_run_config({"dataset": {"dir": str(synthetic_dir)}}).as_dict()))
    for args in (
        ["mine", *data, "--walks", "200", "--seed", "1", "--out", str(paths["rules.json"])],
        ["retrieve", *data, "--rules", str(paths["rules.json"]),
         "--out", str(paths["histories.jsonl"])],
        ["prompt", *data, "--histories", str(paths["histories.jsonl"]),
         "--out", str(paths["prompts.jsonl"])],
        ["eval", *data, "--rules", str(paths["rules.json"]), "--out-dir", str(paths["run"])],
    ):
        result = CliRunner().invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    return paths


@pytest.fixture(scope="module")
def endpoint():
    stub = StubEndpoint(sequences=["0.x]"])
    yield stub
    stub.close()


def mutate(payload: dict, key: str, mutation: str) -> None:
    if mutation == "missing":
        del payload[key]
    elif mutation == "past-the-data":
        payload[key] = PAST_THE_DATA
    elif mutation == "repeated":
        # the key once more just before itself, marked with a NUL that
        # `write_rows` cuts, and with a wrong value
        items = list(payload.items())
        payload.clear()
        for name, value in items:
            if name == key:
                payload["\0" + name] = "x"
            payload[name] = value
    else:
        payload[key] = MUTATIONS[mutation]


def rows_of(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_rows(path, rows) -> None:
    """One JSON line per row; a key marked by `mutate` loses its NUL."""
    path.write_text("".join(json.dumps(row).replace('"\\u0000', '"') + "\n" for row in rows))


def first_rule_body_fact(rows: list[dict]) -> tuple[int, dict, int]:
    """(line, row, fact index) of the first fact retrieved through a rule
    body, the one mutated in a histories file."""
    line, row = next((n, row) for n, row in enumerate(rows, 1)
                     if any(fact["provenance"]["rank"] for fact in row["facts"]))
    return line, row, next(i for i, fact in enumerate(row["facts"]) if fact["provenance"]["rank"])


def corrupt(input_, label, mutation, inputs, synthetic_dir, endpoint, tmp_path):
    """Write the input with the field at `label` mutated; return the
    command that reads it and where its errors point ("<path>: " or
    "<path>:<line>: ")."""
    where, _, key = label.rpartition(".")
    data = ["--dataset-dir", str(synthetic_dir)]
    rules = ["--rules", str(inputs["rules.json"])]
    if input_ == "config":
        config = json.loads(inputs["config.json"].read_text())
        mutate(config[where] if where else config, key, mutation)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return ["retrieve", "--config", str(path), *rules,
                "--out", str(tmp_path / "h.jsonl")], ""
    if input_ == "rules":
        bank = json.loads(inputs["rules.json"].read_text())
        mutate(bank["params"] if where == "params" else bank["rules"][1], key, mutation)
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(bank))
        return ["retrieve", *data, "--rules", str(path),
                "--out", str(tmp_path / "h.jsonl")], f"{path}: "
    if input_ == "histories":
        rows = rows_of(inputs["histories.jsonl"])
        line, row, at = first_rule_body_fact(rows)
        fact = row["facts"][at]
        target = {"query": row["query"], "facts": fact,
                  "facts.provenance": fact["provenance"]}[where]
        mutate(target, key, mutation)
        path = tmp_path / "histories.jsonl"
        write_rows(path, rows)
        return ["prompt", *data, "--histories", str(path),
                "--out", str(tmp_path / "p.jsonl")], f"{path}:{line}: "
    if input_ == "prompts":
        rows = rows_of(inputs["prompts.jsonl"])
        mutate(rows[1][where] if where else rows[1], key, mutation)
        path = tmp_path / "prompts.jsonl"
        write_rows(path, rows)
        return ["infer", *data, "--prompts", str(path), "--endpoint", endpoint.url,
                "--num-sequences", "1", "--out", str(tmp_path / "x.jsonl")], f"{path}:2: "
    run = tmp_path / "run"
    shutil.copytree(inputs["run"], run)
    rows = rows_of(run / "records.jsonl")
    # a record whose gold is ranked, so that a null rank is a change
    line, row = next((n, row) for n, row in enumerate(rows, 1) if row["rank"])
    mutate(row["query"] if where else row, key, mutation)
    write_rows(run / "records.jsonl", rows)
    return ["eval", *data, *rules, "--out-dir", str(run)], f"{run / 'records.jsonl'}:{line}: "


@pytest.mark.parametrize("input_, label, mutation", CASES,
                         ids=[f"{i}-{label}-{m}" for i, label, m in CASES])
def test_corrupted_field(input_, label, mutation, inputs, synthetic_dir, synthetic_dataset,
                         endpoint, tmp_path):
    if mutation == "past-the-data":
        assert PAST_THE_DATA > int(synthetic_dataset.union_kg().ts.max())
    args, location = corrupt(input_, label, mutation, inputs, synthetic_dir, endpoint,
                             tmp_path)
    result = CliRunner().invoke(main, args)
    # no traceback: the command ends through sys.exit, or returns
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    case = (input_, label, mutation)
    where, _, key = NAMED_AS.get(case, label).rpartition(".")
    named = f"{where}.{key}" if where else key
    message = result.output.removeprefix(f"error: {location}")
    rejected = result.exit_code == 1 and message != result.output \
        and result.output.count("\n") == 1 and (
            message.startswith((f"{named}:", f"{named} "))
            or (where and message.startswith(f"{where}: ") and key in message)
            or f"missing field '{key}'" in message)
    if case not in ALLOWED:
        assert rejected, result.output
    elif case in FAILS_LATER:
        assert (result.exit_code, result.output) == (1, FAILS_LATER[case])
    else:
        assert result.exit_code == 0, f"allowed ({ALLOWED[case]}) but: {result.output}"


@pytest.mark.parametrize("mutation", ["string", "list", "null", "2**64"])
def test_fact_that_is_not_an_object(mutation, inputs, synthetic_dir, tmp_path):
    """A history fact given as another JSON value exits 1 naming its index."""
    rows = rows_of(inputs["histories.jsonl"])
    line, row, at = first_rule_body_fact(rows)
    row["facts"][at] = MUTATIONS[mutation]
    path = tmp_path / "histories.jsonl"
    write_rows(path, rows)
    result = CliRunner().invoke(main, ["prompt", "--dataset-dir", str(synthetic_dir),
                                       "--histories", str(path),
                                       "--out", str(tmp_path / "p.jsonl")])
    assert result.exit_code == 1, result.output
    assert result.output == (f"error: {path}:{line}: facts[{at}]: expected an object, "
                             f"got {MUTATIONS[mutation]!r}\n")


# the columns of each text file of a dataset directory
TEXT_FILES = {
    **dict.fromkeys(("entity2id.txt", "relation2id.txt"), ("name", "id")),
    **dict.fromkeys(("train.txt", "valid.txt", "test.txt"),
                    ("subject", "relation", "object", "timestamp")),
}
# a mutation as the text of a column: null is an empty column
TEXT = {mutation: "" if value is None else value if type(value) is str else json.dumps(value)
        for mutation, value in MUTATIONS.items() if value is not MISSING}
TEXT_CASES = ([(name, column, mutation) for name, columns in TEXT_FILES.items()
               for column in columns for mutation in MUTATIONS]
              + [(name, "line", mutation) for name in TEXT_FILES
                 for mutation in ("duplicated", "extra-column")])
TEXT_ALLOWED = {
    **allow("any string names an entity or relation",
            *(f"{name} name {mutation}" for name in ("entity2id.txt", "relation2id.txt")
              for mutation in MUTATIONS if mutation != "missing")),
    **allow("timestamps are origin-shifted, so they may be negative",
            *(f"{name} timestamp negative" for name in ("train.txt", "valid.txt", "test.txt"))),
    **allow("a repeated event is dropped and counted in duplicates_dropped",
            *(f"{name} line duplicated" for name in ("train.txt", "valid.txt", "test.txt"))),
}


@pytest.fixture(scope="module")
def text_dataset(tmp_path_factory):
    """A small dataset directory with id maps, three lines per file, and an
    empty histories file for `prompt` to load it with."""
    root = tmp_path_factory.mktemp("text")
    data = root / "data"
    data.mkdir()
    files = {"entity2id.txt": [("e0", 0), ("e1", 1), ("e2", 2)],
             "relation2id.txt": [("r0", 0), ("r1", 1), ("r2", 2)],
             "train.txt": [(0, 0, 1, 0), (1, 1, 2, 1), (2, 2, 0, 2)],
             "valid.txt": [(0, 1, 2, 3), (1, 2, 0, 4), (2, 0, 1, 5)],
             "test.txt": [(0, 2, 1, 6), (1, 0, 2, 7), (2, 1, 0, 8)]}
    for name, rows in files.items():
        (data / name).write_text("".join("\t".join(map(str, row)) + "\n" for row in rows))
    (root / "histories.jsonl").write_text("")
    return root


def load_with_prompt(data, histories, out):
    return CliRunner().invoke(main, ["prompt", "--dataset-dir", str(data),
                                     "--histories", str(histories), "--out", str(out)])


@pytest.mark.parametrize("name, column, mutation", TEXT_CASES,
                         ids=[f"{name}-{column}-{m}" for name, column, m in TEXT_CASES])
def test_corrupted_text_column(name, column, mutation, text_dataset, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(text_dataset / "data", data)
    path = data / name
    lines = path.read_text().splitlines()
    cols = lines[1].split("\t")
    line = 3 if mutation == "duplicated" else 2  # the copy is the bad line
    if mutation == "duplicated":
        lines.insert(2, lines[1])
    elif mutation == "extra-column":
        lines[1] += "\t0"
    else:
        at = TEXT_FILES[name].index(column)
        if mutation == "missing":
            del cols[at]
        else:
            cols[at] = TEXT[mutation]
        lines[1] = "\t".join(cols)
    path.write_text("".join(line + "\n" for line in lines))
    result = load_with_prompt(data, text_dataset / "histories.jsonl", tmp_path / "p.jsonl")
    # no traceback: the command ends through sys.exit, or returns
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    if (name, column, mutation) in TEXT_ALLOWED:
        assert result.exit_code == 0, result.output
    else:
        assert result.exit_code == 1, result.output
        assert result.output.startswith(f"error: {path}:{line}: ") \
            and result.output.count("\n") == 1, result.output


@pytest.mark.parametrize("name", ["entity2id.txt", "relation2id.txt"])
def test_repeated_id_names_its_line(name, text_dataset, tmp_path):
    """Of ids given twice, the later line is named."""
    data = tmp_path / "data"
    shutil.copytree(text_dataset / "data", data)
    path = data / name
    path.write_text(path.read_text().replace("2\t2\n", "2\t0\n"))
    result = load_with_prompt(data, text_dataset / "histories.jsonl", tmp_path / "p.jsonl")
    assert (result.exit_code, result.output) == (
        1, f"error: {path}:3: id 0 repeats an earlier id; ids must be dense 0..2\n")
