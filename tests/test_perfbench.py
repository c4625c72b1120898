"""The benchmark's traced run wraps module attributes of the package
(`rules.estimate_confidence`, `rules.sample_walk`, the lazy
`TemporalKG.returning_positions` and `TemporalKG.last_time_of`, ...) and
fails when one of its spans never fires. Running it on the tiny graph keeps
a rename or a bypass of a wrapped function from going unnoticed."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_mine_fires_every_span():
    command = [sys.executable, "perfbench/run.py", "--workload", "desk-mine",
               "--size", "tiny", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["metrics"]["rules.confidence_calls"]["value"] > 0
