"""Workload definitions shared by the orchestrator and the worker.

Every workload uses s = 2 and epsilon = 1e-2 and draws its initial data
with the benchmark's ``--seed`` as the config seed (``--seed 1`` is the
repository's reference run).  Lengths are chosen so that one round takes
one to four seconds single-threaded, which leaves several rounds per run.

``energy_gap_cap`` caps the energy-law allowance (``checks.energy_law``)
at that share of the initial energy: about three times the largest Simpson
h/2h gap seen on any operation over seeds 1-20, 1000, 123456 and 2^31-1
(seeds 1-6, 1000 and 2^31-1 on ``sim-n256-cfl``).
"""

from __future__ import annotations

COMMON = {"s": 2, "epsilon": 1e-2}

WORKLOADS = {
    # dt_max binds (CFL dt is about 0.04 at n=64): dt = 0.01 on every step,
    # so per-call overhead of the IF-RK4 step dominates.
    "sim-n64": {
        "config": {"n": 64, "t_end": 3.0, "sample_every": 0.1},
        "energy_gap_cap": 3e-2,  # largest gap 9.6e-3, residual 1.3e-3
    },
    # The CFL bound binds, dt changes on every step; FFT throughput, memory
    # and 2 MiB checkpoint writes (one per sample) dominate.
    "sim-n256-cfl": {
        "config": {
            "n": 256, "t_end": 0.2, "sample_every": 0.05, "snapshot_every": 0.05,
        },
        "energy_gap_cap": 1.5e-3,  # largest gap 4.5e-4, residual 4.1e-5
    },
    # Linear, FFT-free rhs; every step is a sample, so diagnostics, CSV rows
    # and checkpoint I/O dominate.  Followed by a resume from mid-run.
    "lin128-resume": {
        "config": {
            "n": 128, "t_end": 1.0, "nonlinearity": False,
            "sample_every": 0.01, "snapshot_every": 0.05,
        },
        "resume_from": 0.5,
        "energy_gap_cap": 1e-5,  # largest gap 2.9e-6, residual 1.9e-7
    },
}


def run_config_kwargs(name: str, seed: int) -> dict:
    """Keyword arguments of ``mhd2tor.config.RunConfig`` for one workload."""
    return {**COMMON, **WORKLOADS[name]["config"], "seed": seed}


def ops(name: str) -> tuple[str, ...]:
    """The operations of one round, in order."""
    return ("simulate", "resume") if "resume_from" in WORKLOADS[name] else ("simulate",)


def snapshot_name(t: float) -> str:
    """File name the driver gives the snapshot at time t (documented format)."""
    return f"state_{t:012.6f}.chk"
