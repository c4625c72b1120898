#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --base HEAD --label oracle-chunk --pairs 10

Run it anywhere in a git checkout. The base commit's committed files are
extracted with `git archive` into a temporary directory (no network, and the
repository's worktree list is left alone); the working tree is the change,
uncommitted edits included. For each of the benchmark's two workloads, each
pair runs

    python3 perfbench/run.py --workload W --seconds 40 --trace 0

once in each tree, one process at a time, the base first in pairs 1, 3,
5, ... and the change first in the others. A run that does not end with
`"correct": true` stops the script with its output. After every pair,
`BENCH_<label>.json` at the root of the repository is rewritten with each
pair's `run_s`, `setup_s` and `peak_rss_mb`, each side's median and
quartiles, and how many pairs the change won; every metric is
lower-is-better. `gain_shown` applies the claim rule: the change wins at
least nine tenths of the pairs (ties count for neither side) and its median
beats the base's by more than the base's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
SIDES = ("base", "change")
WORKLOADS = ("desk-forecast", "cli-files")
SECONDS = 40


def git(*args: str) -> str:
    return subprocess.run(("git", *args), check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(commit: str, into: Path) -> None:
    """The committed files of `commit` under `into`."""
    with tempfile.TemporaryFile() as archive:
        subprocess.run(("git", "archive", "--format=tar", commit), check=True,
                       stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            # `filter` exists from Python 3.10.12, 3.11.4 and 3.12 on
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(into, **safe)


def bench(tree: Path, workload: str) -> dict:
    """One benchmark run in `tree`: its metrics and its `# ` report line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=10 * SECONDS + 600)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        report = json.loads(next(line[2:] for line in lines if line.startswith("# {")))
    except (IndexError, StopIteration, ValueError):
        result, report = {}, {}
    if done.returncode or result.get("correct") is not True:
        sys.exit(f"bench_pairs: {workload} in {tree} was not correct "
                 f"(exit {done.returncode}):\n{done.stdout[-4000:]}{done.stderr[-4000:]}")
    return {"metrics": {name: result["metrics"][name]["value"] for name in METRICS},
            "src_sha256": report.get("src_sha256")}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def summary(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        base = [pair["base"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        sides = {"base": spread(base), "change": spread(change)} if len(pairs) > 1 else {}
        wins = sum(c < b for b, c in zip(base, change))
        losses = sum(c > b for b, c in zip(base, change))
        entry = {**sides, "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses}
        if sides:
            entry["median_change_pct"] = (sides["change"]["median"] / sides["base"]["median"]
                                          - 1) * 100
            entry["gain_shown"] = (10 * wins >= 9 * len(pairs) and sides["base"]["median"]
                                   - sides["change"]["median"] > sides["base"]["iqr"])
        out[name] = entry
    return out


def write(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the commit to compare against")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    change = Path(git("rev-parse", "--show-toplevel"))
    out = change / f"BENCH_{args.label}.json"
    base_commit = git("rev-parse", args.base)
    payload = {
        "label": args.label,
        "base": base_commit,
        "change": f"working tree on {git('rev-parse', 'HEAD')}",
        "command": f"perfbench/run.py --workload W --seconds {SECONDS} --trace 0",
        "seconds": SECONDS,
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base = Path(tmp)
        extract(base_commit, base)
        trees = {"base": base, "change": change}
        for workload in WORKLOADS:
            entry = payload["workloads"][workload] = {"pairs": []}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs = {side: bench(trees[side], workload) for side in order}
                entry["pairs"].append({"first": order[0],
                                       **{side: runs[side]["metrics"] for side in SIDES}})
                for side in SIDES:
                    entry[f"{side}_src_sha256"] = runs[side]["src_sha256"]
                entry["summary"] = summary(entry["pairs"])
                write(out, payload)
                print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                    f"{side} run_s {runs[side]['metrics']['run_s']:.3f}" for side in SIDES),
                    flush=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
