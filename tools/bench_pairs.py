"""Interleaved benchmark pairs of two checkouts, written out as a BENCH_*.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent <checkout> --change <checkout> \\
        --workload lin128-resume:8101 --workload sim-n64:8201 --pairs 10 \\
        --seconds 30 [--claim lin128-resume/wall_s] --note "what changed" \\
        --out BENCH_name.json

Each checkout is copied first, without ``__pycache__`` or benchmark
outputs, and every run starts from its copy with PYTHONDONTWRITEBYTECODE=1.
For each workload ``NAME:FIRST_SEED``, pair i runs
``python3 bench/run.py --workload NAME --seed FIRST_SEED+i --seconds S
--trace 0`` in both copies, the parent first when i is even and the change
first when i is odd.  The file records, per workload and end-to-end
metric, each side's median, quartiles and runs, and the pairs the change
won (lower is better; ties count for neither), plus the operations each
side attempted and failed.  For each workload and end-to-end metric it
prints whether the change's median is within the metric's bound of
BENCHMARK.json, read as a share of the parent's median, on the worse side
(``within`` or ``worse``), or ``unresolved`` where the parent's
interquartile range is wider than that bound.  With ``--claim``, the claim
line printed at the end applies the rule of a speed claim: the change wins
at least nine tenths of the pairs, and the medians differ by more than the
parent's interquartile range.  Without it, the file records
``"claimed": null``.

Arguments are checked before anything is copied or run, and a bad one
exits with code 2: fewer than 2 pairs (no quartiles), a workload that is
not ``NAME:FIRST_SEED`` with a workload of BENCHMARK.json and a seed >= 0,
or a claim whose workload is not among ``--workload`` or whose metric is
not an end-to-end metric of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ORDER = "pair i runs parent first when i is even, change first when i is odd"
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
IGNORED = shutil.ignore_patterns("__pycache__", ".git", ".hypothesis", ".pytest_cache", "out")


def side(runs: list[float]) -> dict:
    """Median, quartiles (linear interpolation) and the runs of one side."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "quartiles": [q1, q3], "runs": list(runs)}


def summarize(unit: str, parent: list[float], change: list[float]) -> dict:
    """One metric over paired runs; pair i is (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    return {
        "unit": unit,
        "parent": side(parent),
        "change": side(change),
        "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def claim_met(metric: dict) -> bool:
    """At least nine tenths of the pairs won, and a median gap wider than
    the parent's interquartile range."""
    q1, q3 = metric["parent"]["quartiles"]
    gap = metric["parent"]["median"] - metric["change"]["median"]
    return 10 * metric["change_better_pairs"] >= 9 * metric["pairs"] and gap > q3 - q1


def bound_verdict(metric: dict, bound: float, better: str) -> str:
    """``within`` when the change's median is no worse than the parent's by
    more than ``bound`` times the parent's median, else ``worse``;
    ``unresolved`` when the parent's interquartile range is wider than that
    allowance, so the runs cannot tell the two apart."""
    parent = metric["parent"]["median"]
    q1, q3 = metric["parent"]["quartiles"]
    allowance = bound * abs(parent)
    if q3 - q1 > allowance:
        return "unresolved"
    worse_by = metric["change"]["median"] - parent
    if better == "higher":
        worse_by = -worse_by
    return "within" if worse_by <= allowance else "worse"


def load_benchmark() -> dict:
    """The parsed BENCHMARK.json of the repository."""
    with open(BENCHMARK) as fh:
        return json.load(fh)


def run_bench(copy: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``bench/run.py`` run in a checkout copy."""
    cmd = [sys.executable, os.path.join(copy, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("metrics"):
        raise RuntimeError(f"{' '.join(cmd)} reported no metrics:\n{proc.stderr}")
    return result


def measure(copies: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    """Paired runs of one workload, summarized in the BENCH_*.json layout."""
    results = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            results[name].append(run_bench(copies[name], workload, seed, seconds))
            wall = results[name][-1]["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {i} seed {seed} {name}: wall_s {wall:.4f}", file=sys.stderr)
    metrics = {
        key: summarize(
            first["unit"],
            *([r["metrics"][key]["value"] for r in results[name]] for name in ("parent", "change")),
        )
        for key, first in results["parent"][0]["metrics"].items()
    }
    ops = {
        name: {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
        }
        for name, runs in results.items()
    }
    return {"seeds": seeds, "metrics": metrics, "ops": ops}


def parse_args(argv=None) -> tuple[argparse.Namespace, dict[str, int]]:
    """The arguments and the first seed per workload; exits with code 2 on
    a bad argument (see the module docstring)."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True, metavar="NAME:FIRST_SEED")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--claim", metavar="WORKLOAD/METRIC", help="the speed claim, if any")
    ap.add_argument("--note", required=True, help="what the change does")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = load_benchmark()
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2 to give quartiles, got {args.pairs}")
    firsts = {}
    for spec in args.workload:
        name, sep, first = spec.partition(":")
        if not sep or name not in {w["name"] for w in bench["workloads"]} or not first.isdigit():
            ap.error(f"--workload {spec!r} is not NAME:FIRST_SEED with a benchmark workload")
        firsts[name] = int(first)
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in firsts:
            ap.error(f"--claim {args.claim!r} names a workload that no --workload runs")
        if metric not in {m["name"] for m in bench["end_to_end"]}:
            ap.error(f"--claim {args.claim!r} names no end-to-end metric of {BENCHMARK}")
    return args, firsts


def main(argv=None) -> int:
    args, firsts = parse_args(argv)
    claimed = None
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        claimed = {"workload": workload, "metric": metric}

    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for name in ("parent", "change"):
            copies[name] = os.path.join(tmp, name)
            shutil.copytree(getattr(args, name), copies[name], ignore=IGNORED)
        workloads = {}
        for workload, first in firsts.items():
            seeds = [first + i for i in range(args.pairs)]
            workloads[workload] = measure(copies, workload, seeds, args.seconds)

    report = {
        "change": args.note,
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} "
                   "--trace 0",
        "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()} host; both "
                "sides run from copies without __pycache__ (PYTHONDONTWRITEBYTECODE=1)",
        "order": ORDER,
        "claimed": claimed,
        "workloads": workloads,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in workloads.items():
        for key, m in entry["metrics"].items():
            print(f"{workload} {key}: parent {m['parent']['median']:.6g} "
                  f"[{m['parent']['quartiles'][0]:.6g}, {m['parent']['quartiles'][1]:.6g}], "
                  f"change {m['change']['median']:.6g} "
                  f"[{m['change']['quartiles'][0]:.6g}, {m['change']['quartiles'][1]:.6g}] "
                  f"{m['unit']}, change better in {m['change_better_pairs']}/{m['pairs']}")
    end_to_end = load_benchmark()["end_to_end"]
    for workload, entry in workloads.items():
        for spec in end_to_end:
            m = entry["metrics"][spec["name"]]
            change = m["change"]["median"] / m["parent"]["median"] - 1.0
            verdict = bound_verdict(m, spec["bound"], spec["better"])
            print(f"{workload} {spec['name']}: median {change:+.1%} against the parent, "
                  f"bound {spec['bound']:.0%}: {verdict}")
    if claimed is not None:
        met = claim_met(workloads[claimed["workload"]]["metrics"][claimed["metric"]])
        print(f"claim {args.claim}: {'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
