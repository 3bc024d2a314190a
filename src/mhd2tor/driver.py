"""End-to-end run driver: initial data -> trajectory -> diag.csv + checkpoints.

Outputs per run directory:

    diag.csv       one row per sample time, floats printed with %.17g
    state_*.chk    periodic checkpoints (if snapshot_every > 0)
    final.chk      state at the end of the run (also written on failure)
    summary.txt    key = value run summary
"""

from __future__ import annotations

import os
import sys

import numpy as np

from .checkpoint import checkpoint_header, read_checkpoint, write_checkpoint
from .config import RunConfig
from .diagnostics import (
    DiagnosticsRecord,
    EnergyLedger,
    EnergyParams,
    decay_fit,
    ledger_update,
)
from .dynamics import energy_balance_series
from .errors import (
    GridMismatch,
    InsufficientSamples,
    NonFiniteState,
    NonPositiveValue,
    StepTooSmall,
)
from .spectral import GridSpec, fft_workers
from .stepping import StepperConfig, run
from .symmetry import InitialDataSpec, MHDState, make_initial_data

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FLOAT_FMT = "%.17g"


def csv_header(s: int) -> list[str]:
    orders = (2 * s - 2, 2 * s - 1, 2 * s, 2 * s + 1)
    cols = ["t"]
    cols += [f"u_H{m}" for m in orders]
    cols += [f"b_H{m}" for m in orders + (2 * s + 2,)]
    cols += [f"d2u_H{m}" for m in (2 * s - 2, 2 * s)]
    cols += [
        "l2_energy", "grad_b_l2_sq", "symmetry_defect",
        "div_defect_u", "div_defect_b", "mean_abs_max", "e0", "e1",
    ]
    return cols


def _csv_row(rec: DiagnosticsRecord, led: EnergyLedger) -> list[float]:
    s = led.s
    orders = (2 * s - 2, 2 * s - 1, 2 * s, 2 * s + 1)
    vals = [rec.t]
    vals += [rec.norm_u[m] for m in orders]
    vals += [rec.norm_b[m] for m in orders + (2 * s + 2,)]
    vals += [rec.norm_d2u[m] for m in (2 * s - 2, 2 * s)]
    vals += [
        rec.l2_energy, rec.grad_b_l2_sq, rec.symmetry_defect,
        rec.div_defect_u, rec.div_defect_b, rec.mean_abs_max, led.e0, led.e1,
    ]
    return vals


def _fit_or_nan(series) -> float:
    try:
        return decay_fit(series)
    except (InsufficientSamples, NonPositiveValue):
        return float("nan")


def _execute(cfg: RunConfig, st0: MHDState, outdir: str) -> int:
    """Advance st0 to cfg.t_end, streaming diagnostics to outdir."""
    fft_workers()  # a bad MHD2_THREADS fails here, before any output exists
    os.makedirs(outdir, exist_ok=True)
    s = cfg.s
    stepper = StepperConfig(
        t_end=cfg.t_end, cfl=cfg.cfl, dt_max=cfg.dt_max, dt_min=cfg.dt_min
    )
    led = EnergyLedger(s)
    params = EnergyParams(s)
    ts, energies, dissipations = [], [], []
    series_u, series_b = [], []
    max_sym = 0.0
    max_div = 0.0
    last = {"rec": None, "st": st0}

    diag_path = os.path.join(outdir, "diag.csv")
    fh = open(diag_path, "w")
    fh.write(",".join(csv_header(s)) + "\n")

    def sink(rec: DiagnosticsRecord, st: MHDState) -> None:
        nonlocal max_sym, max_div
        ledger_update(led, rec)
        fh.write(",".join(_FLOAT_FMT % v for v in _csv_row(rec, led)) + "\n")
        ts.append(rec.t)
        energies.append(rec.l2_energy)
        dissipations.append(rec.grad_b_l2_sq)
        series_u.append((rec.t, rec.norm_u[2 * s - 1]))
        series_b.append((rec.t, rec.norm_b[2 * s - 1]))
        max_sym = max(max_sym, rec.symmetry_defect)
        max_div = max(max_div, rec.div_defect_u, rec.div_defect_b)
        last["rec"], last["st"] = rec, st
        if cfg.snapshot_every > 0 and rec.t > st0.t:
            ratio = rec.t / cfg.snapshot_every
            if abs(ratio - round(ratio)) < 1e-9:
                write_checkpoint(
                    st, os.path.join(outdir, f"state_{rec.t:012.6f}.chk"), s
                )

    status, reason, code = "ok", "", EXIT_OK
    try:
        final = run(
            st0, stepper, cfg.sample_every, sink,
            energy_params=params,
            nonlinear=cfg.nonlinearity, coupling=cfg.coupling,
        )
    except (NonFiniteState, StepTooSmall) as exc:
        status, reason, code = "failed", f"{type(exc).__name__}: {exc}", EXIT_NUMERICAL
        print(f"numerical failure: {reason}", file=sys.stderr)
        final = last["st"]
    finally:
        fh.close()

    write_checkpoint(final, os.path.join(outdir, "final.chk"), s)
    balance = (
        energy_balance_series(np.array(ts), np.array(energies), np.array(dissipations))
        if len(ts) >= 2
        else float("nan")
    )
    rec = last["rec"]
    lines = [
        ("status", status),
        ("reason", reason),
        ("n", cfg.n),
        ("s", s),
        ("epsilon", _FLOAT_FMT % cfg.epsilon),
        ("seed", cfg.seed),
        ("t_start", _FLOAT_FMT % st0.t),
        ("t_final", _FLOAT_FMT % final.t),
        ("samples", len(ts)),
        ("e0", _FLOAT_FMT % led.e0),
        ("e1", _FLOAT_FMT % led.e1),
        ("e_total", _FLOAT_FMT % led.total),
        ("energy_balance_residual", _FLOAT_FMT % balance),
        ("decay_rate_u", _FLOAT_FMT % _fit_or_nan(series_u)),
        ("decay_rate_b", _FLOAT_FMT % _fit_or_nan(series_b)),
        ("max_symmetry_defect", _FLOAT_FMT % max_sym),
        ("max_div_defect", _FLOAT_FMT % max_div),
    ]
    if rec is not None:
        lines += [
            ("final_l2_energy", _FLOAT_FMT % rec.l2_energy),
            (f"final_u_H{2 * s - 1}", _FLOAT_FMT % rec.norm_u[2 * s - 1]),
            (f"final_b_H{2 * s - 1}", _FLOAT_FMT % rec.norm_b[2 * s - 1]),
        ]
    with open(os.path.join(outdir, "summary.txt"), "w") as sf:
        for key, val in lines:
            sf.write(f"{key} = {val}\n")
    return code


def initial_state(cfg: RunConfig) -> MHDState:
    spec = InitialDataSpec(
        epsilon=cfg.epsilon,
        s=cfg.s,
        seed=cfg.seed,
        spectrum_decay=cfg.spectrum_decay,
        max_wavenumber=cfg.max_wavenumber,
    )
    return make_initial_data(spec, GridSpec(cfg.n))


def simulate(cfg: RunConfig, outdir: str | None = None) -> int:
    """Fresh run from the seeded initial data; returns a process exit code."""
    return _execute(cfg, initial_state(cfg), outdir or cfg.outdir)


def resume(cfg: RunConfig, checkpoint_path: str, outdir: str | None = None) -> int:
    """Continue a checkpointed run to cfg.t_end; grid size n and index s must match."""
    _, s, _ = checkpoint_header(checkpoint_path)
    if s != cfg.s:
        raise GridMismatch(f"checkpoint has s={s}, expected s={cfg.s}")
    st = read_checkpoint(checkpoint_path, GridSpec(cfg.n))
    return _execute(cfg, st, outdir or cfg.outdir)
