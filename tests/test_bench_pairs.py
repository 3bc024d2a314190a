"""The summary of tools/bench_pairs.py on fixed numbers: medians, quartiles,
pairs won with ties counting for neither side, the rule of a speed claim,
the verdict against each metric's bound, the committed BENCH_*.json files,
which it reproduces from their runs, its arguments, which it checks before
it copies or runs anything, and a run without a claim."""

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


def test_bound_verdict(bench_pairs):
    parent = [1.0, 1.0, 1.0, 1.1, 1.1]  # median 1.0, IQR 0.1
    verdict = bench_pairs.bound_verdict
    assert verdict(bench_pairs.summarize("s", parent, [1.15] * 5), 0.2, "lower") == "within"
    assert verdict(bench_pairs.summarize("s", parent, [0.5] * 5), 0.2, "lower") == "within"
    assert verdict(bench_pairs.summarize("s", parent, [1.25] * 5), 0.2, "lower") == "worse"
    assert verdict(bench_pairs.summarize("s", parent, [0.75] * 5), 0.2, "higher") == "worse"
    # an IQR of 0.1 is wider than a bound of 5% of the median: the runs cannot tell
    assert verdict(bench_pairs.summarize("s", parent, [1.5] * 5), 0.05, "lower") == "unresolved"


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


def test_run_without_claim(bench_pairs, monkeypatch, tmp_path, capsys):
    """Without --claim the file records ``"claimed": null`` and the tool
    prints a verdict per workload and end-to-end metric, and no claim line."""
    values = iter([1.0, 1.05, 1.02, 1.06])  # wall_s, pair by pair as run

    def fake_run(copy, workload, seed, seconds):
        metrics = {"wall_s": next(values), "setup_s": 0.2, "peak_rss_mb": 60.0}
        return {
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
            "attempted": 1, "failed": 0, "correct": True,
        }

    monkeypatch.setattr(bench_pairs.shutil, "copytree", lambda *args, **kwargs: None)
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "bench.json"
    argv = [a for a in _argv(pairs="2", out=str(out)) if a not in ("--claim", GOOD["--claim"])]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["claimed"] is None
    wall = report["workloads"]["lin128-resume"]["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [1.0, 1.06] and wall["change"]["runs"] == [1.05, 1.02]
    printed = capsys.readouterr().out
    assert "lin128-resume wall_s: median +0.5% against the parent, bound 20%: within" in printed
    assert "lin128-resume peak_rss_mb: median +0.0% against the parent, bound 10%: within" in printed
    assert "claim" not in printed
