"""The benchmark's traced run wraps module attributes of the package
(`rules.estimate_confidence`, `rules.sample_walk`, the lazy
`TemporalKG.returning_positions` and `TemporalKG.last_time_of`, the `cli.*`
names the commands call, ...) and fails when one of its spans never fires.
Running it on the tiny graph keeps a rename or a bypass of a wrapped
function from going unnoticed."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_tiny_run(workload: str) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--size", "tiny", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    return result["metrics"]


def test_traced_mine_fires_every_span():
    metrics = traced_tiny_run("desk-mine")
    assert metrics["rules.confidence_calls"]["value"] > 0
    # one traced `sample_walk` per walk: 24 heads x 200 walks, of which the
    # seeded streams close the same 2,533 as ever
    assert metrics["rules.walks"]["value"] == 4800
    assert metrics["rules.walks_closed"]["value"] == 2533


def test_traced_desk_forecast_fires_every_span():
    metrics = traced_tiny_run("desk-forecast")
    calls = metrics["retrieval.calls"]["value"]
    assert calls > 0
    # one traced `retrieve` per query: no batch path around it
    assert calls == metrics["prompts.calls"]["value"] == metrics["client.predictions"]["value"]


def test_traced_cli_files_fires_every_span():
    assert traced_tiny_run("cli-files")["evaluation.cells"]["value"] > 0
