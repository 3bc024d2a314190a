"""Byte-for-byte comparison of the benchmark workloads' outputs of two checkouts.

Usage (from the repository root):

    python3 tools/same_outputs.py PARENT CHANGE [--seed 1 --seed 7] [--out DIR]

For each seed (default 1 and 7), every workload of this repository's
``bench/workloads.py`` runs in each checkout: ``simulate``, then ``resume``
from the workload's snapshot where it has one, through the checkout's own
``RunConfig``/``simulate``/``resume``, in a fresh process with only the
checkout's ``src`` on ``PYTHONPATH``.  The outputs go to ``DIR/a`` and
``DIR/b``; DIR should be empty, and without ``--out`` it is a temporary
directory, removed at the end.  Every file is then compared byte for byte;
each file that differs or exists on one side only is printed, and for a
``diag.csv`` that differs, the largest relative change of each column.
Exits 0 when all files are identical, 1 on any difference, and 2 when an
operation of a workload does not exit 0.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import math
import os
import subprocess
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# Runs in the child process: argv is the bench directory, the output
# directory and the seeds; exits 1 when an operation returns a nonzero code.
RUNNER = """
import os, sys
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS, ops, run_config_kwargs, snapshot_name
from mhd2tor.config import RunConfig
from mhd2tor.driver import resume, simulate

failed = False
for seed in map(int, sys.argv[3:]):
    for name in WORKLOADS:
        cfg = RunConfig(**run_config_kwargs(name, seed))
        base = os.path.join(sys.argv[2], f"{name}-{seed}")
        sim = os.path.join(base, "simulate")
        for op in ops(name):
            if op == "simulate":
                code = simulate(cfg, sim)
            else:
                snap = os.path.join(sim, snapshot_name(WORKLOADS[name]["resume_from"]))
                code = resume(cfg, snap, os.path.join(base, "resume"))
            if code:
                print(f"{name} seed {seed}: {op} exited {code}", file=sys.stderr)
                failed = True
sys.exit(1 if failed else 0)
"""


def run_workloads(checkout: str, out: str, seeds: list[int]) -> int:
    """Run every workload at ``seeds`` with the package of ``checkout``,
    writing under ``out``; returns the runner's exit status."""
    env = {
        **os.environ,
        "PYTHONPATH": os.path.join(os.path.abspath(checkout), "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    args = [sys.executable, "-c", RUNNER, BENCH, out, *map(str, seeds)]
    return subprocess.run(args, env=env).returncode


def relative_files(root: str) -> set[str]:
    """Paths of all files under ``root``, relative to it."""
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, files in os.walk(root) for f in files
    }


def differing_files(a: str, b: str) -> tuple[list[str], int]:
    """The relative paths whose bytes differ between the trees ``a`` and
    ``b``, or that exist in one alone, sorted, and the number of paths seen."""
    paths = relative_files(a) | relative_files(b)
    differ = [
        p
        for p in sorted(paths)
        if not (
            os.path.isfile(os.path.join(a, p))
            and os.path.isfile(os.path.join(b, p))
            and filecmp.cmp(os.path.join(a, p), os.path.join(b, p), shallow=False)
        )
    ]
    return differ, len(paths)


def column_changes(a: str, b: str) -> dict[str, float] | None:
    """The largest relative change |y - x| / |x| over the rows of each
    column of the CSV files ``a`` (x) and ``b`` (y), which is 0 where both
    read 0 and inf where only x does; None when their headers or their
    numbers of rows differ."""
    tables = []
    for path in (a, b):
        with open(path, newline="") as fh:
            tables.append(list(csv.reader(fh)))
    (head, *rows_a), (head_b, *rows_b) = tables
    if head != head_b or len(rows_a) != len(rows_b):
        return None
    changes = dict.fromkeys(head, 0.0)
    for row_a, row_b in zip(rows_a, rows_b):
        for name, x, y in zip(head, map(float, row_a), map(float, row_b)):
            rel = abs(y - x) / abs(x) if x else (0.0 if y == x else math.inf)
            changes[name] = max(changes[name], rel)
    return changes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seed", type=int, action="append", dest="seeds")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = args.seeds or [1, 7]
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or tmp
        dirs = [os.path.join(out, side) for side in ("a", "b")]
        for checkout, d in zip((args.parent, args.change), dirs):
            if run_workloads(checkout, d, seeds):
                print(f"an operation failed in {checkout}")
                return 2
        differ, total = differing_files(*dirs)
        for path in differ:
            print(f"differs: {path}")
            pair = [os.path.join(d, path) for d in dirs]
            if os.path.basename(path) == "diag.csv" and all(map(os.path.isfile, pair)):
                changes = column_changes(*pair)
                if changes is None:
                    print("  columns or rows differ")
                else:
                    cols = ", ".join(f"{name} {rel:.2e}" for name, rel in changes.items())
                    print(f"  largest relative change: {cols}")
    print(f"{total - len(differ)} of {total} files identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
