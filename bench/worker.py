"""One round of a workload in a fresh process.

Usage: ``python3 worker.py <workload> <seed> <round_dir> <trace 0|1>``, with
``src`` on ``PYTHONPATH``.  Prints ``ready`` as soon as the solver is set up
(imports, config and initial data), then one JSON line with the exit code
and wall time of every operation, the process's peak RSS and, when traced,
the per-layer metrics.  Output checks are made by the parent process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np
from workloads import WORKLOADS, ops, run_config_kwargs, snapshot_name

from mhd2tor.config import RunConfig
from mhd2tor.driver import initial_state, resume, simulate


def initial_samples(st0):
    """Physical samples (u1, u2, b1, b2) of a state, by the documented convention.

    f(x) = sum_k fhat_k exp(i k.x) on the grid x_j = -pi + 2 pi j / n, so the
    samples are n^2 ifft2(fhat * (-1)^(k1 + k2)).
    """
    n = st0.grid.n
    k = np.fft.fftfreq(n, 1.0 / n).astype(int)
    phase = np.where((k[:, None] + k[None, :]) % 2 == 0, 1.0, -1.0)
    return np.stack([(n * n * np.fft.ifft2(c * phase)).real for c in st0.coeff_arrays()])


def main(argv: list[str]) -> int:
    name, seed, round_dir, traced = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    cfg = RunConfig(**run_config_kwargs(name, seed))
    st0 = initial_state(cfg)
    print("ready", flush=True)

    os.makedirs(round_dir, exist_ok=True)
    if "resume_from" in WORKLOADS[name]:
        np.save(os.path.join(round_dir, "initial.npy"), initial_samples(st0))

    tracer = None
    if traced:
        import importlib

        from spans import TARGETS, Tracer

        tracer = Tracer()
        tracer.install({
            mod: importlib.import_module(f"mhd2tor.{mod}") for mod, _, _ in TARGETS
        })

    results = []
    sim_dir = os.path.join(round_dir, "simulate")
    for op in ops(name):
        if op == "simulate":
            call = lambda: simulate(cfg, sim_dir)
        else:
            snap = os.path.join(sim_dir, snapshot_name(WORKLOADS[name]["resume_from"]))
            call = lambda: resume(cfg, snap, os.path.join(round_dir, "resume"))
        t0 = time.perf_counter()
        if tracer is None:
            code = call()
        else:
            with tracer.span("op"):
                code = call()
        results.append({"op": op, "code": code, "wall_s": time.perf_counter() - t0})

    out = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        heat = sys.modules["mhd2tor.stepping"]._heat_factors
        csv_rows = 0
        for op in ops(name):
            with open(os.path.join(round_dir, op, "diag.csv")) as fh:
                csv_rows += sum(1 for _ in fh) - 1
        out["layers"] = tracer.layer_metrics(heat.cache_info().misses, csv_rows)
        tracer.dump(os.path.join(round_dir, "spans.json"))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
