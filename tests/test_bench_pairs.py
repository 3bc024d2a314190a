"""The summary of tools/bench_pairs.py on fixed numbers: medians, quartiles,
pairs won with ties counting for neither side, the rule of a speed claim,
and the committed BENCH_*.json files, which it reproduces from their runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_fixed_runs(bench_pairs):
    m = bench_pairs.summarize("s", [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.5, 1.0])
    assert m == {
        "unit": "s",
        "parent": {"median": 3.0, "quartiles": [2.0, 4.0], "runs": [1.0, 2.0, 3.0, 4.0, 5.0]},
        "change": {"median": 2.0, "quartiles": [1.0, 2.5], "runs": [0.5, 2.0, 2.5, 4.5, 1.0]},
        "change_better_pairs": 3,  # the tie (2.0, 2.0) counts for neither side
        "pairs": 5,
    }
    assert not bench_pairs.claim_met(m)
    with pytest.raises(ValueError):
        bench_pairs.summarize("s", [1.0, 2.0], [1.0])


def test_claim_rule(bench_pairs):
    parent = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0225 and 1.0675
    won_nine = [p - 0.1 for p in parent[:9]] + [parent[9]]
    assert bench_pairs.claim_met(bench_pairs.summarize("s", parent, won_nine))
    won_eight = [p - 0.1 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.claim_met(bench_pairs.summarize("s", parent, won_eight))
    narrow = [p - 0.01 for p in parent]  # every pair won, gap 0.01 < IQR 0.045
    assert not bench_pairs.claim_met(bench_pairs.summarize("s", parent, narrow))


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_reproduces_committed_files(bench_pairs, path):
    report = json.loads(path.read_text())
    assert report["order"] == bench_pairs.ORDER
    for entry in report["workloads"].values():
        for m in entry["metrics"].values():
            runs = (m["parent"]["runs"], m["change"]["runs"])
            assert bench_pairs.summarize(m["unit"], *runs) == m
