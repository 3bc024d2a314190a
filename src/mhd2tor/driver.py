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

from . import diagnostics
from .checkpoint import checkpoint_header, read_checkpoint, write_checkpoint
from .config import RunConfig
from .dynamics import energy_balance_series
from .errors import (
    GridMismatch,
    InsufficientSamples,
    NonFiniteState,
    NonPositiveValue,
    StepTooSmall,
)
from .stepping import StepCounts, run, step_rows
from .symmetry import MHDState, make_initial_data

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_FLOAT_FMT = "%.17g"
# the scalar columns of diag.csv that a record holds, after its norms
_SCALARS = (
    "l2_energy", "grad_b_l2_sq", "symmetry_defect", "div_defect_u", "div_defect_b", "mean_abs_max",
)


def csv_header(s: int) -> list[str]:
    cols = ["t"]
    for field, orders in zip(("u", "b", "d2u"), diagnostics._orders(s)):
        cols += [f"{field}_H{m}" for m in orders]
    return cols + list(_SCALARS) + ["e0", "e1"]


def _csv_row(rec: diagnostics.DiagnosticsRecord, led: diagnostics.EnergyLedger) -> list[float]:
    vals = [rec.t]
    for norms, orders in zip((rec.norm_u, rec.norm_b, rec.norm_d2u), diagnostics._orders(led.s)):
        vals += [norms[m] for m in orders]
    return vals + [getattr(rec, col) for col in _SCALARS] + [led.e0, led.e1]


def _or_nan(fn, *args) -> float:
    """fn(*args), or nan when there are too few samples or a value <= 0."""
    try:
        return fn(*args)
    except (InsufficientSamples, NonPositiveValue):
        return float("nan")


def _execute(cfg: RunConfig, st0: MHDState, outdir: str) -> int:
    """Advance st0 to cfg.t_end, streaming diagnostics to outdir."""
    os.makedirs(outdir, exist_ok=True)
    s = cfg.s
    led = diagnostics.EnergyLedger(s)
    counts = StepCounts()
    recs: list[diagnostics.DiagnosticsRecord] = []
    last = {"st": st0}

    diag_path = os.path.join(outdir, "diag.csv")
    fh = open(diag_path, "w")
    fh.write(",".join(csv_header(s)) + "\n")

    def sink(st: MHDState) -> None:
        # looked up on the module at each call, so that a wrapper set there sees it
        rec = diagnostics.instantaneous(st, cfg.energy)
        recs.append(rec)
        diagnostics.ledger_update(led, rec)
        fh.write(",".join(_FLOAT_FMT % v for v in _csv_row(rec, led)) + "\n")
        last["st"] = st
        if cfg.snapshot_every > 0 and rec.t > st0.t:
            ratio = rec.t / cfg.snapshot_every
            if abs(ratio - round(ratio)) < 1e-9:
                write_checkpoint(
                    st, os.path.join(outdir, f"state_{rec.t:012.6f}.chk"), s
                )

    status, reason, code = "ok", "", EXIT_OK
    try:
        final = run(
            st0, cfg.stepper, cfg.sample_every, sink,
            nonlinear=cfg.nonlinearity, coupling=cfg.coupling, counts=counts,
        )
    except (NonFiniteState, StepTooSmall) as exc:
        status, reason, code = "failed", f"{type(exc).__name__}: {exc}", EXIT_NUMERICAL
        print(f"numerical failure: {reason}", file=sys.stderr)
        final = last["st"]
    finally:
        fh.close()

    write_checkpoint(final, os.path.join(outdir, "final.chk"), s)
    # run samples st0 first, so recs is never empty here
    col = lambda name: [getattr(r, name) for r in recs]
    balance = _or_nan(energy_balance_series, col("t"), col("l2_energy"), col("grad_b_l2_sq"))
    h, rec = 2 * s - 1, recs[-1]
    rate = lambda norm: _or_nan(diagnostics.decay_fit, [(r.t, getattr(r, norm)[h]) for r in recs])
    divs = [d for r in recs for d in (r.div_defect_u, r.div_defect_b)]
    dt_min, dt_mean, dt_max = counts.dt_stats()
    lines = [
        ("status", status),
        ("reason", reason),
        ("n", cfg.n),
        ("s", s),
        ("epsilon", _FLOAT_FMT % cfg.epsilon),
        ("seed", cfg.seed),
        ("t_start", _FLOAT_FMT % st0.t),
        ("t_final", _FLOAT_FMT % final.t),
        ("samples", len(recs)),
        ("steps", counts.steps),
        ("steps_cfl", counts.cfl),
        ("steps_dt_max", counts.dt_max),
        ("steps_landing", counts.landing),
        ("step_dt_min", _FLOAT_FMT % dt_min),
        ("step_dt_mean", _FLOAT_FMT % dt_mean),
        ("step_dt_max", _FLOAT_FMT % dt_max),
        ("step_rows", step_rows(final, cfg.nonlinearity)),
        ("e0", _FLOAT_FMT % led.e0),
        ("e1", _FLOAT_FMT % led.e1),
        ("e_total", _FLOAT_FMT % led.total),
        ("energy_balance_residual", _FLOAT_FMT % balance),
        ("decay_rate_u", _FLOAT_FMT % rate("norm_u")),
        ("decay_rate_b", _FLOAT_FMT % rate("norm_b")),
        ("max_symmetry_defect", _FLOAT_FMT % max([0.0] + col("symmetry_defect"))),
        ("max_div_defect", _FLOAT_FMT % max([0.0] + divs)),
        ("final_l2_energy", _FLOAT_FMT % rec.l2_energy),
        (f"final_u_H{h}", _FLOAT_FMT % rec.norm_u[h]),
        (f"final_b_H{h}", _FLOAT_FMT % rec.norm_b[h]),
    ]
    with open(os.path.join(outdir, "summary.txt"), "w") as sf:
        for key, val in lines:
            sf.write(f"{key} = {val}\n")
    return code


def initial_state(cfg: RunConfig) -> MHDState:
    """The seeded initial data of ``cfg`` (``make_initial_data``)."""
    return make_initial_data(cfg.initial_data, cfg.grid)


def simulate(cfg: RunConfig, outdir: str | None = None) -> int:
    """Fresh run from the seeded initial data; returns a process exit code."""
    return _execute(cfg, initial_state(cfg), outdir or cfg.outdir)


def resume(cfg: RunConfig, checkpoint_path: str, outdir: str | None = None) -> int:
    """Continue a checkpointed run to cfg.t_end; grid size n and index s must match."""
    _, s, _ = checkpoint_header(checkpoint_path)
    if s != cfg.s:
        raise GridMismatch(f"checkpoint has s={s}, expected s={cfg.s}")
    st = read_checkpoint(checkpoint_path, cfg.grid)
    return _execute(cfg, st, outdir or cfg.outdir)
