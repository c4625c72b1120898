"""The claim rule of `tools/bench_pairs.py`: `summary` on fixed pairs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten base values whose quartiles are exact binary fractions:
# q1 12.25, median 14.5, q3 16.75, so the interquartile range is 4.5
BASE = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def pairs_of(base, change):
    return [{"first": "base",
             "base": {name: b for name in bench_pairs.METRICS},
             "change": {name: c for name in bench_pairs.METRICS}}
            for b, c in zip(base, change)]


def run_s(base, change):
    return bench_pairs.summary(pairs_of(base, change))["run_s"]


class TestSummary:
    def test_quartiles_and_counts(self):
        got = run_s(BASE, [b - 5 for b in BASE])
        assert (got["base"]["q1"], got["base"]["median"], got["base"]["q3"]) == (12.25, 14.5, 16.75)
        assert got["base"]["iqr"] == 4.5
        assert got["change"]["median"] == 9.5
        assert (got["wins"], got["losses"], got["ties"]) == (10, 0, 0)
        assert got["gain_shown"]

    @pytest.mark.parametrize("gap, shown", [(4.5, False), (4.75, True)])
    def test_median_gap_must_exceed_the_base_iqr(self, gap, shown):
        got = run_s(BASE, [b - gap for b in BASE])
        assert got["wins"] == 10
        assert got["base"]["median"] - got["change"]["median"] == gap
        assert got["gain_shown"] is shown

    @pytest.mark.parametrize("others, counts, shown", [
        ([+0.0], (9, 0, 1), True),          # nine wins and a tie
        ([+1.0], (9, 1, 0), True),          # nine wins and a loss
        ([+0.0, +0.0], (8, 0, 2), False),   # ties count for neither side
        ([+1.0, +0.0], (8, 1, 1), False),
    ])
    def test_nine_of_ten_wins(self, others, counts, shown):
        change = [b - 8 for b in BASE]  # the medians stay more than 4.5 apart
        for i, delta in enumerate(others):
            change[i] = BASE[i] + delta
        got = run_s(BASE, change)
        assert (got["wins"], got["losses"], got["ties"]) == counts
        assert got["gain_shown"] is shown

    def test_one_pair_has_no_spread(self):
        got = run_s([2.0], [1.0])
        assert (got["wins"], got["losses"], got["ties"]) == (1, 0, 0)
        assert "gain_shown" not in got and "base" not in got
