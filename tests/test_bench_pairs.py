"""The verdict rule and the summaries of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def scaled(runs, k):
    return [k * x for x in runs]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_better_in_every_run(better):
    k = 0.8 if better == "lower" else 1.25
    assert bench_pairs.verdict(STEADY, scaled(STEADY, k), better, 0.25) == "better in every run"


def test_better_in_every_run_outranks_the_spread():
    wide = [1.0, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]  # spread 0.5
    assert bench_pairs.verdict(wide, scaled(STEADY, 0.5), "lower", 0.25) == "better in every run"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_a_wide_side_is_unresolved(side):
    wide = STEADY[:-1] + [1.3]  # spread (1.3 - 0.98) / 1.0 = 0.32
    parent, change = (wide, STEADY) if side == "parent" else (STEADY, wide)
    assert bench_pairs.verdict(parent, change, "lower", 0.25) == "unresolved"
    assert bench_pairs.verdict(parent, change, "lower", 0.35) == "within bound"


@pytest.mark.parametrize("better, k", [("lower", 1.3), ("higher", 0.7)])
def test_worse_by_more_than_the_bound(better, k):
    change = scaled(STEADY, k)
    assert bench_pairs.verdict(STEADY, change, better, 0.25) == "worse by more than the bound"
    assert bench_pairs.verdict(STEADY, change, better, 0.35) == "within bound"


def test_a_tie_is_within_bound():
    assert bench_pairs.verdict(STEADY, list(STEADY), "higher", 0.25) == "within bound"


def test_summary():
    s = bench_pairs.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert s["spread_over_median"] == 4.0 / 3.0


@pytest.mark.parametrize("path", ["BENCH_28.json", "BENCH_29.json"])
def test_reproduces_the_recorded_metrics(path):
    """Every metric record of a file written under the same rule is
    rebuilt from its runs alone."""
    record = json.loads((ROOT / path).read_text(encoding="utf-8"))
    for workload in record["workloads"].values():
        for m in workload["metrics"].values():
            rebuilt = bench_pairs.metric_record(
                m["runs"]["parent"], m["runs"]["change"], m["unit"], m["better"], m["bound"]
            )
            assert rebuilt == m


def test_claim_check():
    parent = [1.0 + i / 100 for i in range(10)]  # iqr 0.045
    change = [x - 0.1 for x in parent]
    change[3] = 2.0  # one pair lost
    m = bench_pairs.metric_record(parent, change, "ms", "lower", 0.25)
    check = bench_pairs.claim_check(m)
    assert check["pairs_won"] == "9/10" and check["claim_holds"]
    assert check["median_gain_ms"] > check["parent_iqr_ms"] == m["parent"]["iqr"]
    change[4] = 2.0  # two pairs lost
    m = bench_pairs.metric_record(parent, change, "ms", "lower", 0.25)
    assert not bench_pairs.claim_check(m)["claim_holds"]
    near = [x - 0.01 for x in parent]  # every pair won, by less than the iqr
    check = bench_pairs.claim_check(bench_pairs.metric_record(parent, near, "1/s", "higher", 0.25))
    assert check["pairs_won"] == "0/10" and "median_gain_per_s" in check
    check = bench_pairs.claim_check(bench_pairs.metric_record(parent, near, "ms", "lower", 0.25))
    assert check["pairs_won"] == "10/10" and not check["claim_holds"]
