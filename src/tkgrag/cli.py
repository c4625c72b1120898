"""Command-line pipeline driver.

Every subcommand maps to one module entry point, and every one that writes
artifacts records a manifest next to them through `_write_manifest`. Exit
codes, decided by `_exit_code` alone: 0 ok, 1 validation failure (a usage
error among them), 2 runtime failure, 3 transport failure.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import typing
from datetime import datetime, timezone
from typing import Optional

import click

from . import retrieval
from .client import ClientError, GenParams, TransportError, resolve_endpoint
from .config import ConfigError, RunConfig, build_run_config, load_config_file, stable_hash
from .evaluation import (
    CHUNK_SIZE,
    LLMPredictor,
    OraclePredictor,
    ablation_run,
    ablation_summary,
    build_filter_index,
    run_eval,
)
from .files import (
    atomic_directory,
    claim,
    create_text,
    fields_of,
    json_fields,
    open_input,
    parse_json,
    read_jsonl,
    staged,
    typed,
    write_json,
    write_jsonl,
)
from .kg import SPLIT_FILES, Dataset, check_ids, load_dataset
from .prompts import (
    FORMATS,
    ORDERS,
    Prompt,
    PromptConfig,
    build_prompt,
    export_finetune_set,
    select_history,
)
from .retrieval import (
    Query,
    RetrievalConfig,
    check_query_ids,
    history_from_dict,
    history_to_dict,
    queries_from_split,
)
from .rules import MiningParams, RuleBank, learn_rules
from .synthetic import SyntheticSpec, write_synthetic_dataset


def _stack(*options):
    """One decorator applying `options` so that --help lists them in order."""

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn

    return decorate


_config_options = _stack(
    click.option("--config", "config_path", default=None),
    click.option("--inverse/--no-inverse", default=None),
    click.option("--time-gap", type=int, default=None),
    click.option("--data-root", default="data", show_default=True),
    click.option("--dataset", "dataset_name", default=None,
                 help="Dataset name resolved under --data-root."),
    click.option("--dataset-dir", default=None, help="Dataset directory."),
)

_eval_options = _stack(
    _config_options,
    click.option("--rules", "rules_path", required=True),
    click.option("--predictor", type=click.Choice(["oracle", "llm"]), default="oracle",
                 show_default=True),
    click.option("--split", default="test", show_default=True),
    click.option("--retrieval-splits", default="train,valid,test", show_default=True),
    click.option("--filter-splits", default="train,valid,test", show_default=True),
    click.option("--endpoint", default=None),
)

_FLAG_NAMES = {"max_history": "--history-len"}
_CHOICES = {"format": FORMATS, "order": ORDERS}


def _section_options(cls):
    """One override flag per field of a config section, named after the
    field and defaulting to None (not set). Fields are applied in order, so
    --help lists them last field first."""
    hints = typing.get_type_hints(cls)

    def decorate(fn):
        for field in dataclasses.fields(cls):
            flag = _FLAG_NAMES.get(field.name, "--" + field.name.replace("_", "-"))
            kind = (typing.get_args(hints[field.name]) or (hints[field.name],))[0]
            if kind is bool:
                flag += f"/--no-{flag[2:]}"
            elif field.name in _CHOICES:
                kind = click.Choice(_CHOICES[field.name])
            fn = click.option(flag, field.name, type=kind, default=None)(fn)
        return fn

    return decorate


def _one_of(option: str, value, allowed):
    """`value` when it is one of `allowed`, else ValueError naming the
    option and the values allowed."""
    if value not in allowed:
        raise ValueError(f"{option}: expected one of {', '.join(allowed)}, got {value!r}")
    return value


def _comma_list(option: str, text: str, kind: type = str, allowed=None) -> list:
    """The items of a comma-separated option as `kind`, an int of 64 bits as
    the codec reads it (`typed`), each given once and, when `allowed` is
    given, each one of it (`_one_of`)."""
    values = []
    for item in (s.strip() for s in text.split(",")):
        try:
            value = typed(kind, kind(item), option)
        except ValueError:
            raise ValueError(f"{option}: expected {kind.__name__}, got {item!r}") from None
        if allowed is not None:
            _one_of(option, value, allowed)
        if value in values:
            raise ValueError(f"{option}: {value} is given twice")
        values.append(value)
    return values


def _config(options: dict, endpoint=None, seed=None, **sections) -> RunConfig:
    """The --config file overridden by the dataset options and by the flags
    of each given section (name=config class). Every option used is popped
    from the command's `options`."""
    config_path = options.pop("config_path")
    dataset_dir = options.pop("dataset_dir")
    dataset_name = options.pop("dataset_name")
    data_root = options.pop("data_root")
    overrides = {
        name: {field.name: options.pop(field.name, None) for field in dataclasses.fields(cls)}
        for name, cls in sections.items()
    }
    overrides["dataset"] = {
        "dir": dataset_dir or (os.path.join(data_root, dataset_name) if dataset_name else None),
        "time_gap": options.pop("time_gap"),
        "inverse": options.pop("inverse"),
    }
    payload = load_config_file(config_path) if config_path else {}
    return build_run_config(payload, {**overrides, "endpoint": endpoint, "seed": seed})


def _load_data(config: RunConfig) -> tuple[Dataset, str]:
    """The dataset the config names, and the sha256 of its vocabularies and
    of every split's edges as loaded."""
    if not config.dataset.dir:
        raise ConfigError("dataset.dir: no dataset directory given")
    dataset = load_dataset(config.dataset.dir, config.dataset)
    sizes = [len(dataset.split(name)) for name in SPLIT_FILES]
    digest = hashlib.sha256(json.dumps([dataset.entities, dataset.relations, sizes]).encode())
    for name in SPLIT_FILES:
        kg = dataset.split(name)
        for column in (kg.sub, kg.rel, kg.obj, kg.ts):
            digest.update(column.tobytes())
    return dataset, digest.hexdigest()


def _file_digest(path: str) -> str:
    """sha256 of the bytes of the file at `path`, read in fixed-size blocks."""
    digest = hashlib.sha256()
    with open_input(path) as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_manifest(path: str) -> Optional[dict]:
    """The manifest next to the input file `path`, or None when there is
    none, so hand-made inputs stay allowed. ValueError naming the manifest
    when it is a directory (`open_input`), is not JSON or repeats a key."""
    manifest_path = path + ".manifest.json"
    if not os.path.exists(manifest_path):
        return None
    with open_input(manifest_path, "r", encoding="utf-8") as fh:
        try:
            return parse_json(fh.read())
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: {exc}") from None


def _check_describes(path: str, manifest: dict, digest: str) -> None:
    """ValueError naming the manifest of the file at `path` when it records
    another sha256 than `digest`, the file's, or none: the file was written
    after its manifest, or its manifest is left from an earlier file."""
    recorded = manifest.get("sha256")
    if recorded != digest:
        raise ValueError(f"{path}.manifest.json: describes a file of sha256 {recorded}, "
                         f"but {path} has sha256 {digest}")


def _load_rules(path: str, dataset: Dataset) -> tuple[RuleBank, str, dict]:
    """The rule bank at `path`, checked against the dataset's relations; the
    sha256 of the very bytes it was parsed from, read once, so a bank
    replaced during the run cannot lend the run its digest; and its lineage
    as a manifest records it under "upstream": the fingerprint and dataset
    digest of the bank's mine manifest (`_read_manifest`), or None for a
    bank without one, and ValueError naming the manifest when it lacks
    either or describes other bytes (`_check_describes`). A bank may be
    applied to another dataset."""
    with open_input(path) as fh:
        data = fh.read()
    bank = RuleBank.load(path, len(dataset.relations), data)
    digest, manifest = hashlib.sha256(data).hexdigest(), _read_manifest(path)
    if manifest is None:
        return bank, digest, {"rules": None}
    try:
        mined = {"fingerprint": manifest["fingerprint"], "dataset": manifest["inputs"]["dataset"]}
        if all(type(value) is str for value in mined.values()):
            _check_describes(path, manifest, digest)
            return bank, digest, {"rules": mined}
    except (LookupError, TypeError):
        pass
    raise ValueError(f"{path}.manifest.json: expected a string fingerprint and inputs.dataset")


def _built_from(path: str, dataset_digest: str) -> tuple[str, Optional[dict]]:
    """The sha256 of the histories or prompts file at `path` and its
    manifest (`_read_manifest`). ValueError naming the manifest when it
    records another dataset under inputs.dataset than the loaded one, whose
    digest is `dataset_digest`, or describes other bytes (`_check_describes`)."""
    manifest_path = path + ".manifest.json"
    digest, manifest = _file_digest(path), _read_manifest(path)
    if manifest is not None:
        try:
            recorded = manifest["inputs"]["dataset"]
        except (LookupError, TypeError):
            raise ValueError(f"{manifest_path}: no dataset digest under inputs.dataset") from None
        if recorded != dataset_digest:
            raise ValueError(f"{path}: built from dataset {recorded} (see {manifest_path}), "
                             f"but the loaded dataset is {dataset_digest}")
        _check_describes(path, manifest, digest)
    return digest, manifest


def _load_eval(options: dict, **sections):
    """What an eval or ablate run loads once, from the shared eval options
    (popped from `options`): the run config, the manifest entries, the rule
    bank's lineage (`_load_rules`), and the retrieval graph, rule bank,
    queries, filter index and predictor. When both name the same splits,
    the retrieval graph is the filter index. The manifest entries are the
    content digests of the rule bank and the dataset ("inputs") and the
    eval options ("options"), which `_fingerprint` folds into the run's
    fingerprint."""
    rules_path = options.pop("rules_path")
    predictor = options.pop("predictor")
    split = _one_of("--split", options.pop("split"), SPLIT_FILES)
    retrieval_splits = _comma_list("--retrieval-splits", options.pop("retrieval_splits"),
                                   allowed=SPLIT_FILES)
    filter_splits = _comma_list("--filter-splits", options.pop("filter_splits"),
                                allowed=SPLIT_FILES)
    endpoint = options.pop("endpoint")
    config = _config(options, endpoint=endpoint, retrieval=RetrievalConfig,
                     generation=GenParams, **sections)
    dataset, dataset_digest = _load_data(config)
    bank, rules_digest, upstream = _load_rules(rules_path, dataset)
    filter_index = build_filter_index(dataset, filter_splits)
    kg = (filter_index if set(retrieval_splits) == set(filter_splits)
          else dataset.union_kg(retrieval_splits))
    queries = queries_from_split(dataset, split)
    if predictor == "oracle":
        engine = OraclePredictor(bank)
    else:
        engine = LLMPredictor(kg, resolve_endpoint(config.endpoint), config.generation)
    manifest = {"inputs": {"dataset": dataset_digest, "rules": rules_digest},
                "options": {"split": split, "retrieval_splits": retrieval_splits,
                            "filter_splits": filter_splits, "predictor": predictor}}
    return config, manifest, upstream, kg, bank, queries, filter_index, engine


def _fingerprint(config: RunConfig, inputs: dict, options: dict) -> str:
    """A run's fingerprint: the hash of its config, its input digests and
    the command's `options` outside the config that shape its artifacts
    (such as `--split`). A journal resumes only under the same fingerprint."""
    return stable_hash({"config": config.as_dict(), "inputs": inputs, "options": options})


def _write_manifest(path: str, command: str, config: RunConfig, inputs: dict, options: dict,
                    **counts):
    """What a run records about itself: the command, its fingerprint, its
    config, when it was written and its input digests, then its `options`
    and its `counts`, each as a top-level entry. Counts, among them the
    "sha256" of the file a manifest beside a file describes, and last the
    rule bank's lineage ("upstream"), are not part of the fingerprint."""
    write_json(path, {
        "command": command,
        "fingerprint": _fingerprint(config, inputs, options),
        "config": config.as_dict(),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        **options,
        **counts,
    })


def _exit_code(step, *args):
    """`step(*args)`, each failure ended by its exit code: a click usage error
    keeps click's text and exits 1; else one `error: <message>` line, and 1 for
    a ValueError, 3 for a TransportError, 2 for another ClientError or OSError."""
    try:
        return step(*args)
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except (ValueError, ClientError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1 if isinstance(exc, ValueError) else 3 if isinstance(exc, TransportError) else 2)


class _Pipeline(click.Group):
    """The command group, whose own arguments and every subcommand, which
    `invoke` parses and runs, pass through `_exit_code`."""

    def parse_args(self, ctx, args):
        return _exit_code(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _exit_code(super().invoke, ctx)


@click.group(cls=_Pipeline)
def main():
    """Temporal knowledge graph forecasting pipeline."""


@main.command()
@click.option("--out", required=True, help="Directory to create the dataset in.")
@click.option("--entities", "n_entities", type=int, default=None)
@click.option("--noise-relations", "n_noise_relations", type=int, default=None)
@click.option("--body-events", "n_body_events", type=int, default=None)
@click.option("--noise-events", "n_noise_events", type=int, default=None)
@click.option("--follow-prob", type=float, default=None)
@click.option("--t-span", type=int, default=None)
@click.option("--planted-entities", type=int, default=None)
@click.option("--seed", type=int, default=None)
def synth(out, **fields):
    """Generate a synthetic dataset with one planted temporal implication."""
    spec = SyntheticSpec(**{k: v for k, v in fields.items() if v is not None})
    truth = write_synthetic_dataset(out, spec)
    click.echo(
        f"wrote {truth['n_events']} events to {out} "
        f"(splits {truth['split_sizes']})"
    )


@main.command()
@_config_options
@click.option("--walks", "num_walks", type=int, default=None)
@click.option("--min-body-support", type=int, default=None)
@click.option("--grounding-cap", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--mine-splits", default="train", show_default=True,
              help="Comma-separated splits the mining graph merges.")
@click.option("--out", default="rules.json", show_default=True)
def mine(workers, mine_splits, out, **options):
    """Mine temporal rules from the training split."""
    splits = _comma_list("--mine-splits", mine_splits, allowed=SPLIT_FILES)
    config = _config(options, mining=MiningParams)
    dataset, dataset_digest = _load_data(config)
    claim(out + ".manifest.json")
    with staged(out) as path:
        bank = learn_rules(dataset.union_kg(splits), config.mining, workers=workers)
        bank.save(path)
        _write_manifest(out + ".manifest.json", "mine", config, {"dataset": dataset_digest},
                        {"mine_splits": splits}, n_rules=len(bank), sha256=_file_digest(path))
    click.echo(f"mined {len(bank)} rules -> {out}")


@main.command(name="retrieve")
@_config_options
@click.option("--rules", "rules_path", required=True)
@click.option("--split", default="test", show_default=True)
@click.option("--retrieval-splits", default="train,valid,test", show_default=True,
              help="Comma-separated splits the retrieval graph merges.")
@_section_options(RetrievalConfig)
@click.option("--out", default="histories.jsonl", show_default=True)
def retrieve_cmd(rules_path, split, retrieval_splits, out, **options):
    """Retrieve rule-guided histories for a split's queries."""
    _one_of("--split", split, SPLIT_FILES)
    splits = _comma_list("--retrieval-splits", retrieval_splits, allowed=SPLIT_FILES)
    config = _config(options, retrieval=RetrievalConfig)
    dataset, dataset_digest = _load_data(config)
    bank, rules_digest, upstream = _load_rules(rules_path, dataset)
    kg = dataset.union_kg(splits)
    queries = queries_from_split(dataset, split)
    claim(out + ".manifest.json")
    with staged(out) as path:
        count = write_jsonl(path, (
            history_to_dict(retrieval.retrieve(kg, bank, query, config.retrieval))
            for query in queries
        ))
        _write_manifest(out + ".manifest.json", "retrieve", config,
                        {"dataset": dataset_digest, "rules": rules_digest},
                        {"split": split, "retrieval_splits": splits}, n_queries=len(queries),
                        sha256=_file_digest(path), upstream=upstream)
    click.echo(f"retrieved {count} histories -> {out}")


@main.command(name="prompt")
@_config_options
@click.option("--histories", "histories_path", required=True)
@_section_options(PromptConfig)
@click.option("--out", default="prompts.jsonl", show_default=True)
def prompt_cmd(histories_path, out, **options):
    """Render retrieved histories into prompts."""
    config = _config(options, prompt=PromptConfig)
    dataset, dataset_digest = _load_data(config)
    histories_digest, manifest = _built_from(histories_path, dataset_digest)
    inputs = {"dataset": dataset_digest, "histories": histories_digest}
    # the fact cap replays the retrieval config the histories were retrieved
    # with; without a manifest, the config file's
    if manifest is not None:
        section = manifest.get("config")
        section = section.get("retrieval") if type(section) is dict else None
        config = dataclasses.replace(config, retrieval=fields_of(
            RetrievalConfig, section, f"{histories_path}.manifest.json: config.retrieval",
            closed=True))
    kg = dataset.train
    claim(out + ".manifest.json")
    with staged(out) as path:
        count = write_jsonl(path, (
            {"query": json_fields(history.query),
             **json_fields(build_prompt(select_history(history, config.prompt, config.retrieval),
                                        config.prompt, kg))}
            for history in read_jsonl(histories_path, lambda row: history_from_dict(row, kg))
        ))
        _write_manifest(out + ".manifest.json", "prompt", config, inputs, {}, n_prompts=count,
                        sha256=_file_digest(path))
    click.echo(f"rendered {count} prompts -> {out}")


@main.command()
@_config_options
@click.option("--rules", "rules_path", required=True)
@click.option("--k", type=int, required=True, help="Number of samples to export.")
@click.option("--seed", type=int, default=None)
@_section_options(RetrievalConfig)
@_section_options(PromptConfig)
@click.option("--out", default="finetune.jsonl", show_default=True)
def export(rules_path, k, seed, out, **options):
    """Export an instruction-tuning dataset sampled from the training split."""
    config = _config(options, seed=seed, retrieval=RetrievalConfig, prompt=PromptConfig)
    dataset, dataset_digest = _load_data(config)
    bank, rules_digest, upstream = _load_rules(rules_path, dataset)
    claim(out + ".manifest.json")
    with staged(out) as path:
        counts = export_finetune_set(dataset, bank, k, config.retrieval, config.prompt,
                                     config.seed, path)
        _write_manifest(out + ".manifest.json", "export", config,
                        {"dataset": dataset_digest, "rules": rules_digest}, {"k": k}, **counts,
                        sha256=_file_digest(path), upstream=upstream)
    click.echo(f"exported {counts['n_samples']} samples -> {out}")


@main.command()
@_config_options
@click.option("--prompts", "prompts_path", required=True)
@click.option("--endpoint", default=None, help="Completion endpoint URL (or TKGRAG_ENDPOINT).")
@_section_options(GenParams)
@click.option("--out", default="predictions.jsonl", show_default=True)
def infer(prompts_path, endpoint, out, **options):
    """Send rendered prompts to the completion endpoint and parse predictions."""
    config = _config(options, endpoint=endpoint, generation=GenParams)
    dataset, dataset_digest = _load_data(config)
    prompts_digest, _manifest = _built_from(prompts_path, dataset_digest)
    inputs = {"dataset": dataset_digest, "prompts": prompts_digest}
    kg = dataset.train
    predictor = LLMPredictor(kg, resolve_endpoint(config.endpoint), config.generation)

    def parse(row: dict) -> tuple[Query, Prompt]:
        query, prompt = fields_of(Query, row["query"], "query"), fields_of(Prompt, row)
        check_query_ids(query, kg)
        check_ids("index_map", list(prompt.index_map), len(kg.entities))
        return query, prompt

    rows = list(read_jsonl(prompts_path, parse))

    def predicted():
        """One request batch of at most `CHUNK_SIZE` prompts at a time, so a
        failing endpoint stops the run within the chunk it fails in."""
        for start in range(0, len(rows), CHUNK_SIZE):
            chunk = rows[start : start + CHUNK_SIZE]
            parsed = predictor.predict_prompts([prompt for _query, prompt in chunk])
            for (query, _prompt), prediction in zip(chunk, parsed):
                yield {"query": json_fields(query), **json_fields(prediction)}

    claim(out + ".manifest.json")
    with staged(out) as path:
        write_jsonl(path, predicted())
        _write_manifest(out + ".manifest.json", "infer", config, inputs, {},
                        n_prompts=len(rows), sha256=_file_digest(path))
    click.echo(f"parsed predictions for {len(rows)} prompts -> {out}")


@main.command(name="eval")
@_eval_options
@click.option("--seeds", default=None,
              help="Comma-separated run seeds; multiple seeds report the "
                   "mean and half-range across runs.")
@_section_options(RetrievalConfig)
@_section_options(PromptConfig)
@_section_options(GenParams)
@click.option("--out-dir", default="runs/eval", show_default=True)
def eval_cmd(seeds, out_dir, **options):
    """Run time-aware filtered Hits@1/3/10 evaluation on a split."""
    seed_list = _comma_list("--seeds", seeds, int) if seeds else [None]
    run_dirs = [out_dir] if len(seed_list) == 1 else [
        os.path.join(out_dir, f"seed-{seed}") for seed in seed_list]
    outputs = [os.path.join(run_dir, name) for run_dir in run_dirs
               for name in ("records.jsonl", "report.json", "manifest.json")]
    claim(*outputs, *([os.path.join(out_dir, "summary.json")] if len(seed_list) > 1 else []))
    config, manifest, upstream, kg, bank, queries, filter_index, engine = _load_eval(
        options, prompt=PromptConfig
    )
    reports = []
    for seed, run_dir in zip(seed_list, run_dirs):
        run_config = config if seed is None else dataclasses.replace(config, seed=seed)
        run_engine, run_manifest = engine, manifest
        if isinstance(engine, LLMPredictor):
            run_engine = dataclasses.replace(engine, seed=seed)
            if seed is not None:  # sent with every request, so it shapes the records
                run_manifest = {**manifest, "options": {**manifest["options"], "seed": seed}}
        report, _records = run_eval(
            kg, bank, queries, run_engine, run_config.retrieval, run_config.prompt, filter_index,
            out_dir=run_dir, fingerprint=_fingerprint(run_config, **run_manifest),
        )
        _write_manifest(os.path.join(run_dir, "manifest.json"), "eval", run_config,
                        **run_manifest, upstream=upstream)
        reports.append(report)

    hits = {}
    for k in ("1", "3", "10"):
        values = [getattr(r, f"hits{k}") for r in reports]
        hits[k] = {
            "mean": sum(values) / len(values),
            "half_range": (max(values) - min(values)) / 2,
            "per_seed": values,
        }
        spread = f" ± {hits[k]['half_range']:.4f}" if len(reports) > 1 else ""
        click.echo(f"hits@{k}\t{hits[k]['mean']:.4f}{spread}")
    click.echo(f"n_queries\t{reports[0].n_queries}\n"
               f"n_unparsed\t{reports[0].n_unparsed}")
    if len(reports) > 1:
        write_json(os.path.join(out_dir, "summary.json"), {"seeds": seed_list, "hits": hits})


@main.command()
@_eval_options
@click.option("--orders", default="ascending", show_default=True)
@click.option("--lengths", default="50", show_default=True)
@click.option("--formats", default="index", show_default=True)
@_section_options(RetrievalConfig)
@_section_options(GenParams)
@click.option("--out-dir", default="runs/ablation", show_default=True)
def ablate(orders, lengths, formats, out_dir, **options):
    """Evaluate a grid of prompt order, history length, and format configs."""
    grid = {"orders": _comma_list("--orders", orders, allowed=ORDERS),
            "lengths": _comma_list("--lengths", lengths, int),
            "formats": _comma_list("--formats", formats, allowed=FORMATS)}
    config, manifest, upstream, kg, bank, queries, filter_index, engine = _load_eval(options)
    manifest["options"].update(grid)
    with atomic_directory(out_dir, ("summary.tsv", "reports.json", "manifest.json")) as staging:
        cells = ablation_run(
            kg, bank, queries,
            orders=grid["orders"],
            history_lengths=grid["lengths"],
            formats=grid["formats"],
            predictor=engine,
            retrieval_cfg=config.retrieval,
            filter_index=filter_index,
            base_prompt_cfg=config.prompt,
            fingerprint=_fingerprint(config, **manifest),
        )
        summary = ablation_summary(cells)
        with create_text(os.path.join(staging, "summary.tsv")) as fh:
            fh.write(summary)
        write_json(os.path.join(staging, "reports.json"), [
            {"order": c.order, "history_length": c.history_length, "format": c.format,
             "report": c.report.as_dict()}
            for c in cells
        ])
        _write_manifest(os.path.join(staging, "manifest.json"), "ablate", config, **manifest,
                        n_cells=len(cells), upstream=upstream)
    click.echo(summary, nl=False)


if __name__ == "__main__":
    main()
