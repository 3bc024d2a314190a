"""Integrating-factor RK4 time stepping for the MHD state.

The diffusion Lap b is diagonal in Fourier space, so the b equation is
integrated in the transformed variable w_k = exp(|k|^2 t) b_k: pure
diffusion is reproduced exactly (to roundoff), and classical RK4 handles
the remaining terms at fourth order.

The invariants of the exact flow are carried by the step itself, not
restored after it.  Every stage tendency is Leray-projected with its k = 0
mode zeroed (``dynamics``), the integrating factor is diagonal and equal on
both components of b, and the discrete step commutes with the x2
reflection, an exact index permutation.  So divergence-free fields stay
divergence-free to roundoff, the k = 0 modes (means) are conserved
exactly, and a state in the symmetry class stays in it to roundoff; the
diagnostics measure all three.

The step works on the state's own array: the stacked half spectra of
(u1, u2, b1, b2), shape (4, n//2+1, n), in the convention of ``spectral``
(rows k1 = 0..n/2, grid anchored at 0, ``norm="forward"``).  Nothing is
converted to full spectra inside the run loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .dynamics import _rhs_arrays
from .dynamics import _rhs_total_arrays  # noqa: F401  traced by name in bench/spans.py
from .errors import NonFiniteState, StepTooSmall
from .spectral import half_samples
from .symmetry import MHDState
from .symmetry import ifft_samples, symmetry_defect  # noqa: F401  traced by name in bench/spans.py

_LANDING_TOL = 1e-12


@lru_cache(maxsize=4)
def _heat_factors(grid, dt: float):
    """exp(-|k|^2 dt/2) and exp(-|k|^2 dt) on the half spectrum, per (grid, dt).

    A run bound by dt_max repeats one dt, so a few entries keep it hitting;
    a CFL-bound run never repeats one, so more entries would only hold memory.
    """
    e_half = np.exp(-grid.half.ksq * (0.5 * dt))
    return e_half, e_half * e_half


@dataclass(frozen=True)
class StepperConfig:
    """Step-size control parameters."""

    t_end: float
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-8

    def __post_init__(self):
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_max <= 0 or self.dt_min <= 0:
            raise ValueError("dt_max and dt_min must be positive")
        if self.dt_min >= self.dt_max:
            raise ValueError(f"dt_min {self.dt_min} must be < dt_max {self.dt_max}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")


def cfl_dt(st: MHDState, cfg: StepperConfig) -> float:
    """Advective CFL step from the pointwise speed |u| + |b + e2|, sampled on
    the grid anchored at 0: the same points as the one anchored at -pi."""
    grid = st.grid
    U1, U2, B1, B2 = half_samples(grid, st.x)
    B2 = B2 + 1.0  # total field includes e2
    speed = float(np.max(np.sqrt(U1**2 + U2**2) + np.sqrt(B1**2 + B2**2)))
    dt = min(cfg.dt_max, cfg.cfl * grid.spacing / (speed + 1e-12))
    if dt < cfg.dt_min:
        raise StepTooSmall(f"CFL step {dt:.3e} below dt_min {cfg.dt_min:.3e}")
    return dt


def step_ifrk4(st: MHDState, dt: float, nonlinear: bool = True, coupling: bool = True) -> MHDState:
    """Advance one step of size dt with integrating-factor RK4."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = st.grid

    def rhs(x):
        return _rhs_arrays(grid, x, nonlinear, coupling)

    # only b diffuses: the factors are 1 on the u rows of the stack
    heat = _heat_factors(grid, dt)
    one = np.ones_like(heat[0])
    e_half, e_full = (np.stack([one, one, e, e]) for e in heat)

    x = st.x
    k1 = rhs(x)
    k2 = rhs(e_half * (x + 0.5 * dt * k1))
    k3 = rhs(e_half * x + 0.5 * dt * k2)
    k4 = rhs(e_full * x + dt * e_half * k3)
    x = e_full * x + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)

    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"state became non-finite during step from t={st.t:.6g}")
    return MHDState(grid, st.t + dt, x)


def run(
    st0: MHDState,
    cfg: StepperConfig,
    sample_every: float,
    sink: Callable[[object, MHDState], None],
    energy_params=None,
    nonlinear: bool = True,
    coupling: bool = True,
) -> MHDState:
    """Advance to t_end with CFL steps, landing exactly on sample times.

    ``sink(record, state)`` is invoked at the initial time, at every multiple
    of ``sample_every``, and at t_end.  Deterministic for fixed inputs.
    """
    from .diagnostics import EnergyParams, instantaneous

    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    params = energy_params if energy_params is not None else EnergyParams(s=2)

    st = st0
    sink(instantaneous(st, params), st)
    if cfg.t_end <= st.t + _LANDING_TOL:
        return st
    last_emitted = st.t
    # sample times are k * sample_every for an integer k, never a running
    # sum, so they land exactly; on resume k continues from the start time
    k = int(np.floor(st.t / sample_every + 1e-9)) + 1
    while st.t < cfg.t_end - _LANDING_TOL:
        next_sample = k * sample_every
        target = min(next_sample, cfg.t_end)
        try:
            dt = cfl_dt(st, cfg)
            landing = st.t + dt >= target - _LANDING_TOL
            st = step_ifrk4(
                st, target - st.t if landing else dt, nonlinear=nonlinear, coupling=coupling
            )
            if landing:
                st.t = target  # exact landing
        except (NonFiniteState, StepTooSmall) as exc:
            raise type(exc)(f"{exc} (last good t={st.t:.6g})") from exc
        if st.t >= next_sample - _LANDING_TOL:
            sink(instantaneous(st, params), st)
            last_emitted = st.t
            k += 1
    if last_emitted < st.t - _LANDING_TOL:
        sink(instantaneous(st, params), st)
    return st
