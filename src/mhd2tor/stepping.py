"""Integrating-factor RK4 time stepping for the MHD state.

The diffusion Lap b is diagonal in Fourier space, so the b equation is
integrated in the transformed variable w_k = exp(|k|^2 t) b_k: pure
diffusion is reproduced exactly (to roundoff), and classical RK4 handles
the remaining terms at fourth order.

The invariants of the exact flow are carried by the step itself, not
restored after it.  Every stage tendency is divergence-free to roundoff
by the form of its multipliers, which have the Leray projection folded in,
so no projection pass runs, and it is exactly zero at k = 0
(``dynamics``); the integrating factor is diagonal and equal on both
components of b, and the discrete step commutes with the x2 reflection,
an exact index permutation.  So divergence-free fields stay
divergence-free to roundoff, the k = 0 modes (means) are conserved
exactly, and a state in the symmetry class stays in it to roundoff; the
diagnostics measure all three.

The step works on the state's own array: the stacked half spectra of
(u1, u2, b1, b2), shape (4, n//2+1, n), in the convention of ``spectral``
(rows k1 = 0..n/2, grid anchored at 0, ``norm="forward"``).  Nothing is
converted to full spectra inside the run loop.  Each step works on the
leading rows that hold content, and at least on the 2/3 band when the
products are on: a run from band-limited initial data keeps its higher
rows exactly zero, and a state read from a checkpoint has content on all
n/2 + 1 rows.

``run`` first takes dt from an upper bound of the speed |u| + |b + e2|
from the coefficients (``dynamics._speed_bound``).  When that dt is dt_max
or a landing on a sample time, the sampled speed would give it too, and
the step takes it as it is: a linear step then makes no transform.
Otherwise ``run`` chooses dt after stage 1 of its step, from the speed of
the stage-1 samples that the right-hand side makes anyway, so its CFL
bound costs no transform either: a nonlinear step makes 16 inverse and 12
forward field transforms.  Solver states lie inside the 2/3 band, so that
speed equals ``cfl_dt``'s on the same state bit for bit (see
``dynamics``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .dynamics import _band_rows, _rhs_arrays, _sample_speed, _speed_bound
from .dynamics import _rhs_total_arrays  # noqa: F401  traced by name in bench/spans.py
from .errors import NonFiniteState, StepTooSmall
from .spectral import _content_rows, _leading
from .symmetry import MHDState
from .symmetry import ifft_samples, symmetry_defect  # noqa: F401  traced by name in bench/spans.py

_LANDING_TOL = 1e-12


@lru_cache(maxsize=4)
def _heat_buffer(grid) -> np.ndarray:
    """The one real pair of half spectra per grid that ``_heat_factors`` fills."""
    return np.empty((2, grid.n // 2 + 1, grid.n))


@lru_cache(maxsize=1)
def _heat_factors(grid, dt: float):
    """exp(-|k|^2 dt/2) and exp(-|k|^2 dt) on the half spectrum, written into
    the grid's ``_heat_buffer`` and valid until the next call for that grid.

    Only a miss writes the buffer, and the cache keeps one entry, so a hit
    (the same grid and dt as the call before) finds the factors that call
    left there.  A run bound by dt_max repeats one dt between landings and
    keeps hitting; a CFL-bound run misses on every step, and a miss
    allocates nothing.
    """
    e_half, e_full = _heat_buffer(grid)
    np.exp(np.multiply(grid.half.ksq, -0.5 * dt, out=e_half), out=e_half)
    return e_half, np.square(e_half, out=e_full)


@dataclass(frozen=True)
class StepperConfig:
    """Step-size control parameters."""

    t_end: float
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-8

    def __post_init__(self):
        for name in ("t_end", "cfl", "dt_max", "dt_min"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.dt_max <= 0 or self.dt_min <= 0:
            raise ValueError("dt_max and dt_min must be positive")
        if self.dt_min >= self.dt_max:
            raise ValueError(f"dt_min {self.dt_min} must be < dt_max {self.dt_max}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")


def _cfl_limit(speed: float, grid, cfg: StepperConfig) -> float:
    """The advective CFL step for the max speed ``speed``, capped at dt_max."""
    dt = min(cfg.dt_max, cfg.cfl * grid.spacing / (speed + 1e-12))
    if dt < cfg.dt_min:
        raise StepTooSmall(f"CFL step {dt:.3e} below dt_min {cfg.dt_min:.3e}")
    return dt


def cfl_dt(st: MHDState, cfg: StepperConfig) -> float:
    """Advective CFL step from the pointwise speed |u| + |b + e2|, sampled on
    the grid anchored at 0: the same points as the one anchored at -pi."""
    return _cfl_limit(_sample_speed(st.grid, st.x), st.grid, cfg)


def step_rows(st: MHDState, nonlinear: bool = True) -> int:
    """The number of half-spectrum rows k1 = 0, 1, ... that ``step_ifrk4``
    works on: those of ``st`` that hold content, and at least the 2/3 band
    when ``nonlinear`` (the products land there)."""
    return _content_rows(st.x, _band_rows(st.grid) if nonlinear else 0)


@lru_cache(maxsize=4)
def _stage_storage(grid) -> np.ndarray:
    """Flat room for two stacked half spectra, which ``step_ifrk4``
    overwrites on every step with two contiguous stacks of its rows."""
    return np.empty(2 * 4 * (grid.n // 2 + 1) * grid.n, dtype=np.complex128)


def step_ifrk4(
    st: MHDState,
    dt: float | Callable[[float], float],
    nonlinear: bool = True,
    coupling: bool = True,
    rows: int | None = None,
) -> MHDState:
    """Advance one step of size dt with integrating-factor RK4.

    x_new = e_full x + dt/6 (e_full k1 + 2 e_half k2 + 2 e_half k3 + k4),
    with e_half = exp(-|k|^2 dt/2) and e_full = exp(-|k|^2 dt) on the b rows
    alone (only b diffuses).

    The step works on the first m rows of the half spectra, m =
    ``step_rows(st, nonlinear)``: every row past them is zero in ``st``,
    and the tendencies are zero there (the products vanish above the 2/3
    band, and the linear terms are diagonal), so those rows of the new
    state are 0.0, written once.  The stage arithmetic runs on contiguous
    (4, m, n) stacks: the weighted sum of the stage tendencies accumulates
    in one, each tendency lands in a second (both in one flat per-grid
    storage), and the stage inputs are formed at the start of the new
    state's array, which the returned state owns.  A state with content in
    its last row gets m = n/2 + 1.  A caller that has found m already
    passes it as ``rows``.

    ``dt`` may also be a function that maps the max speed |u| + |b + e2|
    of the stage-1 samples to the step size (see ``dynamics``): ``run``
    takes a dt that its speed bound does not settle this way, with no
    transform of its own.  An error it raises leaves ``st`` as it was.
    """
    grid, x = st.grid, st.x
    m = step_rows(st, nonlinear) if rows is None else rows
    shape = (4, m, grid.n)
    acc, k = _leading(_stage_storage(grid), (2,) + shape)
    x_new = np.empty_like(x)
    y = _leading(x_new, shape)
    x = x[:, :m]

    def rhs(stage_input, out):
        return _rhs_arrays(grid, stage_input, nonlinear, coupling, out=out)

    if callable(dt):
        dt = dt(_rhs_arrays(grid, x, nonlinear, coupling, out=acc, speed=True))
    else:
        rhs(x, acc)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    e_half, e_full = (e[:m] for e in _heat_factors(grid, dt))
    # y = e_half (x + dt/2 k1); acc = e_full k1
    np.multiply(acc, 0.5 * dt, out=y)
    y += x
    y[2:] *= e_half
    acc[2:] *= e_full
    rhs(y, k)
    # y = e_half x + dt/2 k2; acc += 2 e_half k2
    np.multiply(k, 0.5 * dt, out=y)
    y[:2] += x[:2]
    k[2:] *= e_half
    k *= 2.0
    acc += k
    y[2:] += np.multiply(x[2:], e_half, out=k[2:])
    rhs(y, k)
    # y = e_full x + dt e_half k3; acc += 2 e_half k3
    k[2:] *= e_half
    np.multiply(k, dt, out=y)
    k *= 2.0
    acc += k
    y[:2] += x[:2]
    y[2:] += np.multiply(x[2:], e_full, out=k[2:])
    rhs(y, k)
    # x_new = e_full x + dt/6 (acc + k4), its rows past m zero
    acc += k
    y = x_new[:, :m]
    np.multiply(acc, dt / 6.0, out=y)
    y[:2] += x[:2]
    y[2:] += np.multiply(x[2:], e_full, out=k[2:])
    x_new[:, m:] = 0.0

    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"state became non-finite during step from t={st.t:.6g}")
    return MHDState(grid, st.t + dt, x_new)


@dataclass
class StepCounts:
    """What set the size of each step ``run`` took (the CFL bound, dt_max,
    or landing on a sample time or t_end), the sizes themselves, and how
    many of those steps needed the speed of their stage-1 samples."""

    cfl: int = 0
    dt_max: int = 0
    landing: int = 0
    speed_sampled: int = 0
    dt_sum: float = 0.0
    dt_smallest: float = np.inf
    dt_largest: float = 0.0

    @property
    def steps(self) -> int:
        return self.cfl + self.dt_max + self.landing

    def add(self, limit: str, dt: float, sampled: bool) -> None:
        """Tally one step of size dt, set by ``limit``; ``sampled`` when its
        dt needed the speed of the stage-1 samples."""
        setattr(self, limit, getattr(self, limit) + 1)
        self.speed_sampled += sampled
        self.dt_sum += dt
        self.dt_smallest = min(self.dt_smallest, dt)
        self.dt_largest = max(self.dt_largest, dt)

    def dt_stats(self) -> tuple[float, float, float]:
        """Smallest, mean and largest dt taken; nan for each with no step."""
        if not self.steps:
            return (np.nan,) * 3
        return self.dt_smallest, self.dt_sum / self.steps, self.dt_largest


def run(
    st0: MHDState,
    cfg: StepperConfig,
    sample_every: float,
    sink: Callable[[object, MHDState], None],
    energy_params=None,
    nonlinear: bool = True,
    coupling: bool = True,
    counts: StepCounts | None = None,
) -> MHDState:
    """Advance to t_end with CFL steps, landing exactly on sample times.

    ``sink(record, state)`` is invoked at the initial time, at every multiple
    of ``sample_every``, and at t_end.  Deterministic for fixed inputs.
    Each dt is first taken from ``_speed_bound``, an upper bound of the
    speed from the coefficients; when that gives dt_max or a landing, it is
    the step's dt.  Otherwise dt is chosen after stage 1 of the step, from
    the speed of the stage-1 samples (the speed ``cfl_dt`` would read).
    Both give the same dt bit for bit, and the bound costs no transform.
    ``counts``, when given, tallies each dt and what set it.
    """
    from .diagnostics import EnergyParams, instantaneous

    if not (np.isfinite(sample_every) and sample_every > 0):
        raise ValueError(f"sample_every must be positive and finite, got {sample_every}")
    params = energy_params if energy_params is not None else EnergyParams(s=2)
    counts = counts if counts is not None else StepCounts()

    st = st0
    sink(instantaneous(st, params), st)
    if cfg.t_end <= st.t + _LANDING_TOL:
        return st
    last_emitted = st.t
    # sample times are k * sample_every for an integer k, never a running
    # sum, so they land exactly; on resume k continues from the start time
    k = int(np.floor(st.t / sample_every + 1e-9)) + 1
    limit, dt = "", 0.0

    def choose(speed: float, bound: bool = False) -> float | None:
        """dt of the step from the loop's st towards its target at the max
        speed ``speed``.  With ``bound``, ``speed`` is only an upper bound,
        and the result is None unless it is dt_max or a landing, and never
        StepTooSmall: the CFL step only grows as the speed falls (IEEE
        rounding is monotone), so those hold at the true speed too, with
        the same dt."""
        nonlocal limit, dt
        try:
            dt = _cfl_limit(speed, st.grid, cfg)
        except StepTooSmall:
            if bound:
                return None
            raise
        if st.t + dt >= target - _LANDING_TOL:
            limit, dt = "landing", target - st.t
        else:
            limit = "cfl" if dt < cfg.dt_max else "dt_max"
        return None if bound and limit == "cfl" else dt

    while st.t < cfg.t_end - _LANDING_TOL:
        next_sample = k * sample_every
        target = min(next_sample, cfg.t_end)
        m = step_rows(st, nonlinear)
        settled = choose(_speed_bound(st.grid, st.x[:, :m]), bound=True)
        try:
            st = step_ifrk4(
                st, choose if settled is None else settled,
                nonlinear=nonlinear, coupling=coupling, rows=m,
            )
        except (NonFiniteState, StepTooSmall) as exc:
            raise type(exc)(f"{exc} (last good t={st.t:.6g})") from exc
        if limit == "landing":
            st.t = target  # exact landing
        counts.add(limit, dt, sampled=settled is None)
        if st.t >= next_sample - _LANDING_TOL:
            sink(instantaneous(st, params), st)
            last_emitted = st.t
            k += 1
    if last_emitted < st.t - _LANDING_TOL:
        sink(instantaneous(st, params), st)
    return st
