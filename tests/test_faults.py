"""Every write fault of every command that writes, enumerated.

Each command runs as a first run and over an earlier run with other options.
A clean run counts its fault points under the output directory
(`write_faults`); then the command runs once per point, failing there with
EIO, and once more on a disk that fills up after a few characters. After
each fault the run exits 2, each output set it leaves is the old set, the
new set, absent, or refused by its consumer, and a clean rerun (which
resumes a partial eval journal) reproduces the clean run's bytes, manifests
compared without `created_at`.
"""
from __future__ import annotations

import json
import os
import shutil

import pytest
from click.testing import CliRunner

from tkgrag import cli
from tkgrag.cli import main

from test_client import StubEndpoint

WHOLE = "whole"  # the old set, the new set or absent
DESCRIBED = "described"  # that, or a file and manifest its consumer refuses
JOURNAL = "journal"  # anything; the rerun completes it

# command: (arguments, the earlier run's other options, the output sets as
# (path prefixes, kind)), paths under the output directory {out}
CASES = {
    "synth": (["synth", "--out", "{out}/data", "--seed", "4"], ["--seed", "3"],
              [(("data/",), WHOLE)]),
    "mine": (["mine", "{data}", "--walks", "50", "--out", "{out}/r.json"], ["--walks", "30"],
             [(("r.json",), DESCRIBED)]),
    "retrieve": (["retrieve", "{data}", "--rules", "{rules}", "--out", "{out}/h.jsonl"],
                 ["--window", "5"], [(("h.jsonl",), DESCRIBED)]),
    "prompt": (["prompt", "{data}", "--histories", "{histories}", "--out", "{out}/p.jsonl"],
               ["--max-facts", "3"], [(("p.jsonl",), DESCRIBED)]),
    "export": (["export", "{data}", "--rules", "{rules}", "--k", "4", "--out", "{out}/e.jsonl"],
               ["--seed", "2"], [(("e.jsonl",), DESCRIBED)]),
    "infer": (["infer", "{data}", "--prompts", "{few}", "--endpoint", "{url}",
               "--out", "{out}/i.jsonl"], ["--prompts", "{others}"],
              [(("i.jsonl",), DESCRIBED)]),
    "eval": (["eval", "{data}", "--rules", "{rules}", "--out-dir", "{out}/ev"],
             ["--seeds", "1,2"],
             [(("ev/records.jsonl", "ev/report.json", "ev/manifest.json"), JOURNAL),
              (("ev/seed-1/", "ev/seed-2/", "ev/summary.json"), WHOLE)]),
    "eval-seeds": (["eval", "{data}", "--rules", "{rules}", "--seeds", "1,2",
                    "--out-dir", "{out}/ev"], ["--seeds", "1,3"],
                   [(("ev/seed-1/", "ev/seed-2/"), JOURNAL),
                    (("ev/seed-3/",), WHOLE), (("ev/summary.json",), WHOLE)]),
    "ablate": (["ablate", "{data}", "--rules", "{rules}", "--lengths", "10,50",
                "--formats", "index,lexical", "--out-dir", "{out}/ab"],
               ["--lengths", "10", "--formats", "index"], [(("ab/",), WHOLE)]),
}
ROOMS = (8,)  # characters a file takes before the disk is full


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The commands' inputs on `synth --seed 3`, the digest of its dataset,
    and a scripted endpoint; the prompts files `few` and `others` are
    hand-made, five prompts each."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    paths = {name: str(root / name) for name in ("rules", "histories", "prompts", "few",
                                                  "others")}
    common = ["--dataset-dir", str(data)]
    for args in (["synth", "--out", str(data), "--seed", "3"],
                 ["mine", *common, "--out", paths["rules"]],
                 ["retrieve", *common, "--rules", paths["rules"], "--out", paths["histories"]],
                 ["prompt", *common, "--histories", paths["histories"],
                  "--out", paths["prompts"]]):
        assert CliRunner().invoke(main, args).exit_code == 0
    rows = open(paths["prompts"], encoding="utf-8").readlines()
    for name, part in (("few", rows[:5]), ("others", rows[5:10])):
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(part)
    with open(paths["histories"] + ".manifest.json", encoding="utf-8") as fh:
        digest = json.load(fh)["inputs"]["dataset"]
    stub = StubEndpoint(responder=lambda payload: [f"{len(payload['prompt']) % 5}.e01]",
                                                   "0.e02]"])
    yield {"data": common, "url": stub.url, **paths}, digest
    stub.close()


def snapshot(root) -> dict:
    """Each file under `root` by its path relative to it: its bytes, or for
    a manifest its JSON without `created_at`."""
    files = {}
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith("manifest.json"):
                payload = json.loads(data)
                payload.pop("created_at", None)
                data = payload
            files[os.path.relpath(path, root).replace(os.sep, "/")] = data
    return files


def part(files: dict, prefixes) -> dict:
    return {path: data for path, data in files.items() if path.startswith(prefixes)}


@pytest.mark.parametrize("earlier", [False, True], ids=["first-run", "over-earlier-run"])
@pytest.mark.parametrize("command", list(CASES))
def test_every_write_fault(inputs, write_faults, tmp_path, command, earlier):
    (values, digest), (args, other, sets) = inputs, CASES[command]
    out, template = tmp_path / "out", tmp_path / "template"
    fill = {**values, "out": str(out)}
    args = [word for arg in args for word in (fill[arg[1:-1]] if arg == "{data}"
                                               else [arg.format(**fill)])]
    runner = CliRunner()

    def run(argv, code=0):
        result = runner.invoke(main, argv)
        assert result.exit_code == code, (argv, result.output)
        return result

    out.mkdir()
    if earlier:
        run([*args, *(arg.format(**fill) for arg in other)])
    shutil.copytree(out, template, symlinks=True)

    def restore():
        shutil.rmtree(out)
        shutil.copytree(template, out, symlinks=True)

    before = snapshot(out)
    points = write_faults.arm(out)
    run(args)
    write_faults.disarm()
    new, points = snapshot(out), list(points)
    assert points and new != before
    completed = []  # faults whose partial journal the rerun completed
    for fault in [{"fail": n} for n in range(len(points))] + [{"room": k} for k in ROOMS]:
        restore()
        write_faults.arm(out, **fault)
        result = run(args, code=2)
        write_faults.disarm()
        where = (fault, points[fault["fail"]] if "fail" in fault else None)
        assert result.stderr.startswith("error: "), where
        left = snapshot(out)
        assert not [name for name in left if ".tmp" in name or ".old" in name], (where, left)
        assert not [name for name in left if not name.startswith(
            tuple(prefix for prefixes, _kind in sets for prefix in prefixes))], (where, left)
        for prefixes, kind in sets:
            state = part(left, prefixes)
            if state in (part(before, prefixes), part(new, prefixes), {}):
                continue
            if kind == JOURNAL:
                completed.append(where)
                continue
            assert kind == DESCRIBED, (where, sorted(state))
            with pytest.raises(ValueError):
                cli._built_from(str(out / prefixes[0]), digest)
        if left != before:
            run(args)
            assert snapshot(out) == new, where
    assert completed or JOURNAL not in [kind for _prefixes, kind in sets]
