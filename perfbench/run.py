#!/usr/bin/env python3
"""Desk-scale pipeline benchmark for tkgrag.

    python3 perfbench/run.py --workload desk-forecast --seed 75000 --seconds 40 --trace 0

Run from the root of a source checkout. The program is imported from `src/`
and driven only through its public functions and its command line; nothing
needs a language model or the network. Each invocation runs one workload in
this process (the `cli-files` commands run one child process at a time),
repeats its timed body for `--seconds` (at least twice), checks
every output against pinned digests (default seed) or against the first
repetition (any other seed), and prints one JSON object as its last line.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` runs set-up and one repetition under the span wrappers of
`spans.py`, one repetition without them, and reports the per-layer metrics.
See perfbench/README.md for what each workload stresses.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
MIN_REPS = 2
WORKLOAD_NAMES = ("desk-forecast", "cli-files", "desk-mine", "ablation-grid")
MIN_COVERAGE = 0.9

now = time.perf_counter


def import_package() -> None:
    """Put this checkout's `src/` first on the path; refuse any other tkgrag."""
    package = SRC / "tkgrag"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(SRC))
    import tkgrag

    if Path(tkgrag.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported tkgrag from {tkgrag.__file__}, not {package}")


class Checker:
    """Pinned digests at the default seed and size; otherwise every
    repetition must reproduce the first one."""

    def __init__(self, pinned: dict | None):
        self.reference = dict(pinned) if pinned is not None else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ops) -> None:
        self.attempted += len(ops)
        if self.reference is None:
            self.reference = {k: v for op in ops for k, v in op.digests.items()}
        for op in ops:
            for artifact, digest in op.digests.items():
                if self.reference.get(artifact) != digest:
                    op.error = op.error or f"{artifact} digest {digest} does not match"
            if op.error:
                self.fail(op.name, op.error)

    def fail(self, name: str, error: str) -> None:
        self.failed += 1
        self.errors.append(f"{name}: {error}")


def run_rep(workload, checker: Checker, fn) -> list:
    """One repetition, checked; returns its operations. An exception fails
    the repetition and the run goes on."""
    gc.collect()
    try:
        ops = fn()
    except Exception:
        checker.attempted += 1
        checker.fail(f"{workload.name} repetition", traceback.format_exc(limit=3))
        return []
    checker.check(ops)
    return ops


def seconds(ops) -> float:
    return sum(op.seconds for op in ops)


def measure(workload, checker: Checker, budget_s: float) -> tuple[dict, dict]:
    """Repeat the timed body within `budget_s`: after the workload's warm-up
    repetitions (checked, not timed), start another while the median one so
    far still fits, and at least MIN_REPS; run_s is the median repetition."""
    samples = []
    start = now()
    for _ in range(workload.warmup_reps):
        run_rep(workload, checker, workload.rep)
    while (len(samples) < MIN_REPS
           or now() - start + statistics.median(samples) <= budget_s):
        samples.append(seconds(run_rep(workload, checker, workload.rep)))
    run_s = statistics.median(samples)
    metrics = {"run_s": run_s, "setup_s": workload.setup_s,
               "peak_rss_mb": resource.getrusage(workload.rss_of).ru_maxrss / 1024}
    report = {"samples": len(samples), "run_s_samples": samples}
    if "items" in workload.info:
        report["queries_per_s"] = workload.info["items"] / run_s
        report["queries_per_s_unit"] = workload.info["item_unit"] + "/s"
    return metrics, report


def measure_traced(workload, checker: Checker, pinned: dict | None) -> tuple[dict, dict]:
    import spans
    import workloads

    tracer = spans.Tracer()
    with spans.installed(tracer):
        workload.setup(pinned)
    metrics = {name: 0 for name in ("cli.import_s", "cli.retrieve_s", "cli.prompt_s",
                                    "cli.eval_s", "cli.eval_resume_s", "cli.eval_stepwise_s",
                                    "cli.export_s", "cli.bytes_written",
                                    "evaluation.journal_bytes")}
    is_cli = isinstance(workload, workloads.CliFiles)
    if is_cli:
        ops = run_rep(workload, checker, workload.rep)  # the commands as child processes
        metrics.update({f"cli.{op.name}_s": op.seconds for op in ops})
        metrics["cli.bytes_written"] = workload.bytes_written
        metrics["cli.import_s"] = workloads.import_seconds()
    untraced_s = seconds(run_rep(workload, checker, lambda: workload.rep(in_process=True)
                                 if is_cli else workload.rep()))
    with spans.installed(tracer):
        with tracer.span("rep") as root:
            traced_s = seconds(run_rep(workload, checker,
                                       lambda: workload.rep(tracer, in_process=True)
                                       if is_cli else workload.rep(tracer)))
    if is_cli:
        metrics["evaluation.journal_bytes"] = workload.journal_bytes

    missing = spans.missing_spans(tracer, workload.expected_spans)
    if missing:
        raise RuntimeError(f"expected spans never fired: {', '.join(missing)}; "
                           f"errors: {checker.errors}")
    covered = spans.coverage(tracer, root, traced_s)
    if covered < MIN_COVERAGE:
        raise RuntimeError(f"traced layers cover only {covered:.1%} of the traced repetition")
    metrics.update(spans.layer_metrics(tracer))
    metrics.update({
        "trace.run_s": traced_s,
        "trace.untraced_run_s": untraced_s,
        "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100,
        "trace.coverage": covered,
        "trace.spans": len(tracer.spans),
    })
    tracer.dump(str(WORK / f"spans-{workload.name}.jsonl"))
    return metrics, {}


def metadata(args) -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "tkgrag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "commit": commit, "src_sha256": digest.hexdigest(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=75000)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("desk", "tiny"), default="desk",
                        help="input size; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import desk_graph
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    pinned = json.loads((HERE / "pinned.json").read_text())
    if (args.seed, args.size) != (pinned["seed"], "desk"):
        pinned = None
    workload = workloads.WORKLOADS[args.workload](args.workload, args.seed,
                                                  desk_graph.SIZES[args.size])
    checker = Checker(pinned[args.workload] if pinned else None)
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        os.chdir(work)
        if args.trace:
            metrics, report = measure_traced(workload, checker, pinned)
        else:
            workload.setup(pinned)
            metrics, report = measure(workload, checker, args.seconds)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    names = [metric["name"] for metric in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(names) ^ set(metrics))} "
                           "do not match BENCHMARK.json")
    report.update(metadata(args))
    report.update(attempted=checker.attempted, failed=checker.failed,
                  error_rate=checker.failed / checker.attempted,
                  setup={"inputs_s": workload.gen_s, "mine_s": workload.mine_s},
                  **{k: v for k, v in workload.info.items()
                     if k.startswith("hits") or k == "rules"},
                  digests=checker.reference, errors=checker.errors)
    print("# " + json.dumps(report))
    for metric in wanted:
        print(f"# {metric['name']} = {metrics[metric['name']]} {metric['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": metric["unit"]}
                    for name, metric in zip(names, wanted)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
