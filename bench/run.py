"""Benchmark of `mhd2tor` simulate and resume.

Usage (from the repository root):

    python3 bench/run.py --workload sim-n64 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload, one after another

A run repeats rounds of one workload until ``--seconds`` have passed; each
round is a fresh worker process (``worker.py``) with ``MHD2_THREADS=1``.
After each round the outputs are checked here, apart from the solver
(``checks.py``).  An operation is one ``simulate`` or ``resume`` call; it
fails on a nonzero exit code or a failed check, and a failed check of an
operation that exited 0 also makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics (medians over rounds):
setup_s (process launch until the solver is ready), wall_s (the round's
simulate/resume calls) and peak_rss_mb (the worker's peak RSS).
``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics of the traced ones, plus trace.overhead_s.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import UNITS  # noqa: E402
from workloads import WORKLOADS, ops, run_config_kwargs  # noqa: E402

WORKER_TIMEOUT_S = 100.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["MHD2_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def run_worker(name: str, seed: int, round_dir: str, traced: bool):
    """Launch one round; (setup_s, worker result or None, stderr text)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed),
           round_dir, "1" if traced else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=worker_env(), text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        return None, None, "worker timed out\n" + err
    if first.strip() != "ready" or proc.returncode != 0:
        return None, None, err
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]), err


def check_round(name: str, seed: int, round_dir: str, results: list[dict]) -> list:
    """Check the outputs of one round; a failure reason (or None) per operation."""
    spec = WORKLOADS[name]
    cfg = run_config_kwargs(name, seed)
    reasons: list[str | None] = []
    finals = {}
    for res in results:
        op = res["op"]
        if res["code"] != 0:
            reasons.append(f"exit code {res['code']}")
            continue
        t_start = spec["resume_from"] if op == "resume" else 0.0
        try:
            t_final, finals[op] = checks.check_run(
                os.path.join(round_dir, op), cfg, t_start, spec["energy_gap_cap"]
            )
            if op == "simulate" and not cfg.get("nonlinearity", True):
                initial = np.load(os.path.join(round_dir, "initial.npy"))
                checks.check_linear(initial, finals[op], t_final)
            if op == "resume":
                if "simulate" not in finals:
                    raise checks.CheckFailed("no uninterrupted run to compare with")
                checks.check_resume(finals["simulate"], finals[op])
        except (checks.CheckFailed, OSError) as exc:
            reasons.append(str(exc))
            continue
        reasons.append(None)
    return reasons


def metric(values, unit: str) -> dict:
    """Median of one metric over rounds; counts stay whole numbers."""
    value = float(statistics.median(values))
    if unit == "count" and value.is_integer():
        value = int(value)
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    base = os.path.join(OUT, f"{name}-seed{seed}-pid{os.getpid()}")
    attempted = failed = 0
    correct = True
    setups, walls, rss = [], [], []
    traced_walls, layers = [], []
    start = time.perf_counter()
    rnd = 0
    min_rounds = 2 if trace else 1
    while rnd < min_rounds or time.perf_counter() - start < seconds:
        traced = trace and rnd % 2 == 1
        round_dir = os.path.join(base, f"round{rnd}")
        setup, res, err = run_worker(name, seed, round_dir, traced)
        n_ops = len(ops(name))
        attempted += n_ops
        if res is None:
            failed += n_ops
            print(f"round {rnd}: worker failed\n{err}", file=sys.stderr)
        else:
            for reason, r in zip(check_round(name, seed, round_dir, res["ops"]), res["ops"]):
                if reason is not None:
                    failed += 1
                    correct = correct and r["code"] != 0
                    print(f"round {rnd}: {r['op']} failed: {reason}", file=sys.stderr)
            wall = sum(r["wall_s"] for r in res["ops"])
            print(f"round {rnd}{' traced' if traced else ''}: setup {setup:.4f} s, "
                  f"wall {wall:.4f} s, peak rss {res['peak_rss_mb']:.1f} MiB",
                  file=sys.stderr)
            if traced:
                traced_walls.append(wall)
                layers.append(res["layers"])
                shutil.copy(os.path.join(round_dir, "spans.json"),
                            os.path.join(OUT, f"spans-{name}-seed{seed}.json"))
            else:
                setups.append(setup)
                walls.append(wall)
                rss.append(res["peak_rss_mb"])
        shutil.rmtree(round_dir, ignore_errors=True)
        rnd += 1
    shutil.rmtree(base, ignore_errors=True)

    metrics = {}
    if trace and layers:
        for key in layers[0]:
            metrics[key] = metric([l[key] for l in layers], UNITS.get(key, "s"))
        if walls:
            metrics["trace.overhead_s"] = {
                "value": metric(traced_walls, "s")["value"] - metric(walls, "s")["value"],
                "unit": "s",
            }
    elif not trace and walls:
        metrics = {
            "setup_s": metric(setups, "s"),
            "wall_s": metric(walls, "s"),
            "peak_rss_mb": metric(rss, "MiB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(name: str, result: dict) -> None:
    print(f"[{name}] attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mhd2tor", "driver.py")):
        print(f"mhd2tor sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # Byte-compile up front so the first round's setup_s does not include it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "mhd2tor"),
                    HERE], check=True, stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
