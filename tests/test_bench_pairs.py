"""The summary of tools/bench_pairs.py on fixed numbers: medians, quartiles,
pairs won with ties counting for neither side, the rule of a speed claim,
the committed BENCH_*.json files, which it reproduces from their runs, and
its arguments, which it checks before it copies or runs anything."""

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


GOOD = {
    "--parent": ".", "--change": ".", "--workload": "lin128-resume:9001", "--pairs": "10",
    "--claim": "lin128-resume/wall_s", "--note": "n", "--out": "unused.json",
}


def _argv(**changes):
    opts = {**GOOD, **{"--" + k.replace("_", "-"): v for k, v in changes.items()}}
    argv = []
    for key, value in opts.items():
        for v in value if isinstance(value, list) else [value]:
            argv += [key, v]
    return argv


class Started(Exception):
    pass


@pytest.fixture
def no_runs(bench_pairs, monkeypatch):
    """Copying a checkout or running the benchmark raises ``Started``."""
    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(bench_pairs.shutil, "copytree", started)
    monkeypatch.setattr(bench_pairs, "run_bench", started)


@pytest.mark.parametrize(
    "changes",
    [
        {"pairs": "1"},
        {"pairs": "0"},
        {"claim": "sim-n64/wall_s"},  # a workload that no --workload runs
        {"claim": "lin128-resume/stepping.step_s"},  # a per-layer metric
        {"claim": "lin128-resume"},
        {"workload": "lin128-resume"},
        {"workload": "lin128-resume:"},
        {"workload": "lin128-resume:-3"},
        {"workload": "lin128-resume:x"},
        {"workload": ["lin128-resume:1", "sim-n128:1"]},  # no such workload
    ],
    ids=lambda c: " ".join(f"{k}={v}" for k, v in c.items()),
)
def test_bad_arguments_exit_2_before_anything_runs(bench_pairs, no_runs, capsys, changes):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(_argv(**changes))
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_good_arguments_go_on_to_copy(bench_pairs, no_runs):
    argv = _argv(workload=["lin128-resume:9001", "sim-n64:9101"], pairs="2", claim="sim-n64/peak_rss_mb")
    args, firsts = bench_pairs.parse_args(argv)
    assert firsts == {"lin128-resume": 9001, "sim-n64": 9101} and args.pairs == 2
    with pytest.raises(Started):
        bench_pairs.main(argv)
