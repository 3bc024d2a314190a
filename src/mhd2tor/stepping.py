"""Lawson RK4 time stepping of the MHD state with the exact propagator of
the linear part, and the run loop with its dt rule (README, Numerics)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .dynamics import _band_rows, _rhs_arrays
from .dynamics import _rhs_total_arrays  # noqa: F401  traced by name in bench/spans.py
from .errors import NonFiniteState, StepTooSmall, require, require_finite
from .spectral import _content_rows, _leading, _transform_workspace, thread_cache
from .symmetry import MHDState, _in_class, _pack, _unpack
from .symmetry import ifft_samples, symmetry_defect  # noqa: F401  traced by name in bench/spans.py

_LANDING_TOL = 1e-12


@thread_cache(maxsize=8)
def _propagator(grid, coupling: bool):
    """Constants and room of ``_heat_factors``, per grid and thread.  With
    a = |k|^2/2, k2 from the Nyquist-zeroed ``ik2`` (0 without ``coupling``) and
    delta^2 = a^2 - k2^2: r = k2^2/(a + delta), 2 delta, h = r/delta and
    g = k2/delta where delta > 0 (0 elsewhere); the other modes as (row,
    column, a, k2, sqrt(-delta^2)); and the complex stack (p11, p22, p12),
    whose other parts stay 0, so that no multiply by a factor casts it, and
    four real scratch arrays."""
    half = grid.half
    k2 = half.ik2.imag if coupling else np.zeros_like(half.ksq)
    a = 0.5 * half.ksq
    d2 = a * a - k2 * k2
    generic = d2 > 0
    delta = np.sqrt(np.where(generic, d2, 1.0))
    r = np.where(generic, k2 * k2 / (a + delta), 0.0)
    g = np.where(generic, k2 / delta, 0.0)
    listed = [
        (i, j, float(a[i, j]), float(k2[i, j]), math.sqrt(-d2[i, j]))
        for i, j in zip(*np.nonzero(~generic))
    ]
    room = np.zeros((3,) + half.ksq.shape, dtype=np.complex128), np.empty((4,) + half.ksq.shape)
    return r, np.where(generic, 2.0 * delta, 0.0), r / delta, g, listed, room


@thread_cache(maxsize=1)
def _heat_factors(grid, t: float, coupling: bool = True):
    """exp(t L) per mode on the half spectrum, as complex (p11, p22, p12),
    from the formulas of README Numerics: it maps (u, b) to (p11 u + p12 b,
    p12 u + p22 b) on both pairs.  p11 and p22 are real and p12 imaginary,
    stored with the other part +0.0.  Written into the calling thread's
    room of ``_propagator``.  The cache keeps one entry and only a miss
    writes the room, so a hit returns the buffers that the last miss wrote:
    they hold these factors until that thread's next miss for that grid and
    ``coupling``.
    """
    r, two_delta, h, g, listed, (factors, work) = _propagator(grid, coupling)
    p11, p22, s12 = factors[0].real, factors[1].real, factors[2].imag
    es, q, w, hw = work
    np.exp(np.multiply(r, -t, out=es), out=es)
    np.multiply(two_delta, -t, out=w)
    np.exp(w, out=q)
    q *= es
    np.expm1(w, out=w)
    w *= es
    w *= -0.5
    np.add(es, np.multiply(h, w, out=hw), out=p11)
    np.subtract(q, hw, out=p22)
    np.multiply(g, w, out=s12)
    for i, j, a, k2, omega in listed:
        ea = math.exp(-a * t)
        c = ea * math.cos(omega * t)
        s = ea * (math.sin(omega * t) / omega if omega else t)
        p11[i, j], p22[i, j], s12[i, j] = c + a * s, c - a * s, k2 * s
    return tuple(factors)


def _propagate(P, scratch: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """dst = P src on stacked (u1, u2, b1, b2) rows, or on the packed
    (u1 + u2, b1 + b2) rows of a class state, in place when ``dst`` is
    ``src``; P is ``_heat_factors`` cut to the rows of ``src``, and
    ``scratch`` holds two stacks of the shape of ``src[:f]``.  exp(tL) acts
    on (u1, b1) and on (u2, b2) with the same factors, so it maps the packed
    pair alike: the u fields ``[:f]`` pair with the b fields ``[f:]``, with
    f = 2 or 1."""
    p11, p22, p12 = P
    pu, pb = scratch
    f = len(src) // 2
    np.multiply(p12, src[f:], out=pu)
    np.multiply(p12, src[:f], out=pb)
    np.multiply(src[:f], p11, out=dst[:f])
    dst[:f] += pu
    np.multiply(src[f:], p22, out=dst[f:])
    dst[f:] += pb
    return dst


@dataclass(frozen=True)
class StepperConfig:
    """Step-size control parameters; construction raises InvalidValue for a
    field outside its rule."""

    t_end: float
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-8

    def __post_init__(self):
        require_finite(t_end=self.t_end, cfl=self.cfl, dt_max=self.dt_max, dt_min=self.dt_min)
        require(self.t_end >= 0, "t_end", self.t_end, "must be >= 0")
        require(0 < self.cfl <= 1, "cfl", self.cfl, "must lie in (0, 1]")
        dt_rule = "requires 0 < dt_min < dt_max"
        require(0 < self.dt_min < self.dt_max, "dt_min", self.dt_min, dt_rule)


def require_sample_every(sample_every: float, dt_min: float) -> None:
    """The rule on the spacing of the samples that ``run`` emits: at least
    the step floor ``dt_min``, since each landing on a sample time caps the
    step at the spacing (at 1e-320 the run stalls)."""
    require_finite(sample_every=sample_every)
    rule = f"must be >= dt_min = {dt_min!r}"
    require(sample_every >= dt_min, "sample_every", sample_every, rule)


def _cfl_limit(speed: float, grid, cfg: StepperConfig) -> float:
    """The advective CFL step for the max speed ``speed``, capped at dt_max."""
    dt = min(cfg.dt_max, cfg.cfl * grid.spacing / (speed + 1e-12))
    if dt < cfg.dt_min:
        raise StepTooSmall(f"CFL step {dt:.3e} below dt_min {cfg.dt_min:.3e}")
    return dt


def cfl_dt(st: MHDState, cfg: StepperConfig) -> float:
    """The CFL step that ``run`` takes from ``st`` short of a landing: the
    advective limit of the max speed |u| + |b| of the stage-1 samples of
    ``step_ifrk4``, capped at dt_max.  Runs that stage's right-hand side,
    packed for a state in the class."""
    _, _, x, (acc, *_) = _stage_input(st)
    return _cfl_limit(_rhs_arrays(st.grid, x, out=acc, speed=True), st.grid, cfg)


def step_rows(st: MHDState, nonlinear: bool = True) -> int:
    """The number of half-spectrum rows k1 = 0, 1, ... that ``step_ifrk4``
    works on: those of ``st`` that hold content, and at least the 2/3 band
    when ``nonlinear`` (the products land there)."""
    return _content_rows(st.x, _band_rows(st.grid) if nonlinear else 0)


@thread_cache(maxsize=4)
def _stage_storage(grid) -> np.ndarray:
    """Flat room for two stacked half spectra, per grid and thread, which
    ``step_ifrk4`` overwrites on every step with two contiguous stacks of
    its rows."""
    return np.empty(2 * 4 * (grid.n // 2 + 1) * grid.n, dtype=np.complex128)


@thread_cache(maxsize=8)
def _stage_plan(grid, m: int, fields: int) -> tuple:
    """The arrays of ``step_ifrk4`` on m rows of ``fields`` fields of the
    grid, bound once per thread: the stage sums ``acc`` and ``k`` and, for
    the packed fields (2), the room of the packed state (None for 4), each
    (fields, m, n) over the ``_stage_storage``; ``tmp``, (fields, m, n)
    over the transform workspace's complex stack, free between two
    right-hand sides; and the same memory as the two stacks
    (2, fields/2, m, n) of ``_propagate``'s scratch."""
    shape = (fields, m, grid.n)
    acc, k, *room = _leading(_stage_storage(grid), (3 if fields == 2 else 2,) + shape)
    tmp = _leading(_transform_workspace(grid).spec, shape)
    return acc, k, room[0] if room else None, tmp, tmp.reshape((2, fields // 2, m, grid.n))


def _stage_input(
    st: MHDState, nonlinear: bool = True, rows: int | None = None, in_class: bool | None = None
) -> tuple:
    """The start of ``step_ifrk4`` from ``st``: its rows m, whether its
    stages run on the packed fields, the arrays of ``_stage_plan`` and the
    stage input, the m rows of ``st.x`` or their ``_pack`` in the plan's
    room."""
    grid = st.grid
    m = step_rows(st, nonlinear) if rows is None else rows
    x = st.x[:, :m]
    packed = nonlinear and (_in_class(grid, x) if in_class is None else in_class)
    plan = _stage_plan(grid, m, 2 if packed else 4)
    return m, packed, _pack(x, plan[2]) if packed else x, plan


def step_ifrk4(
    st: MHDState,
    dt: float | Callable[[float], float],
    nonlinear: bool = True,
    coupling: bool = True,
    rows: int | None = None,
    in_class: bool | None = None,
) -> MHDState:
    """The state one Lawson RK4 step of size dt after ``st`` (README,
    Numerics), in a new array; without ``nonlinear``, exp(dt L) x with no
    right-hand side.

    The step works on the first m rows, m = ``rows`` or ``step_rows(st,
    nonlinear)``; the rows past them must be zero in ``st`` and are +0.0 in
    the result.  ``dt`` may be a function that maps the max speed
    |u| + |b| of the stage-1 samples, or 0.0 on a linear step, to the
    step size; a linear step makes no transform.  Raises ValueError for
    dt <= 0 and NonFiniteState for a non-finite result; an error leaves
    ``st`` as it was.  A nonlinear step from a state in the class runs
    every stage on its packed fields (h, g) = (u1 + u2, b1 + b2), with the
    packed kernel, and ``_unpack`` splits the result by k2 parity, so it is
    in the class bit for bit; any other step runs the same stages on the
    four fields.  ``in_class`` says whether the m rows of ``st`` are in the
    class (``_in_class`` decides when None); the caller vouches for it.
    The stages run in the arrays of ``_stage_plan``, over the per-grid
    ``_stage_storage`` and the shared transform workspace, and in the new
    state's array.
    """
    grid = st.grid
    m, packed, x, (acc, k, _, tmp, scratch) = _stage_input(st, nonlinear, rows, in_class)
    x_new = np.empty_like(st.x)
    if callable(dt):
        dt = dt(_rhs_arrays(grid, x, out=acc, speed=True) if nonlinear else 0.0)
    elif nonlinear:
        _rhs_arrays(grid, x, out=acc)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    P = [f[:m] for f in _heat_factors(grid, 0.5 * dt if nonlinear else dt, coupling)]
    apply = partial(_propagate, P, scratch)
    if not nonlinear:
        apply(x, x_new[:, :m])
    else:
        # y = P(x + dt/2 k1); acc = x + dt/6 k1
        y = _leading(x_new, tmp.shape)
        np.multiply(acc, 0.5 * dt, out=y)
        y += x
        apply(y, y)
        acc *= dt / 6.0
        acc += x
        _rhs_arrays(grid, y, out=k)
        # acc = P acc + dt/3 k2; y = P x; k = y3 = P x + dt/2 k2
        apply(acc, acc)
        acc += np.multiply(k, dt / 3.0, out=tmp)
        apply(x, y)
        k *= 0.5 * dt
        k += y
        _rhs_arrays(grid, k, out=k)
        # acc += dt/3 k3; k = y4 = P(P x + dt k3)
        acc += np.multiply(k, dt / 3.0, out=tmp)
        k *= dt
        k += y
        apply(k, k)
        _rhs_arrays(grid, k, out=k)
        # x_new = P acc + dt/6 k4
        apply(acc, acc)
        acc += np.multiply(k, dt / 6.0, out=k)
        if packed:
            _unpack(acc, x_new[:, :m])
        else:
            x_new[:, :m] = acc
    x_new[:, m:] = 0.0
    # max and min see a NaN or inf in either part, with no temporary
    parts = x_new[:, :m].view(np.float64)
    if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
        raise NonFiniteState(f"state became non-finite during step from t={st.t:.6g}")
    return MHDState(grid, st.t + dt, x_new)


@dataclass
class StepCounts:
    """What set the size of each step ``run`` took (the CFL bound, dt_max,
    or landing on a sample time or t_end) and the sizes themselves."""

    cfl: int = 0
    dt_max: int = 0
    landing: int = 0
    dt_sum: float = 0.0
    dt_smallest: float = np.inf
    dt_largest: float = 0.0

    @property
    def steps(self) -> int:
        return self.cfl + self.dt_max + self.landing

    def add(self, limit: str, dt: float) -> None:
        """Tally one step of size dt, set by ``limit``."""
        setattr(self, limit, getattr(self, limit) + 1)
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
    sink: Callable[[MHDState], None],
    nonlinear: bool = True,
    coupling: bool = True,
    counts: StepCounts | None = None,
) -> MHDState:
    """Advance ``st0`` to t_end by the dt rule of README Numerics, landing
    exactly on every multiple of ``sample_every``; returns the final state.

    ``sink(state)`` is invoked at the initial time, at every sample time and
    at t_end; it must not write into its states.  ``counts``, when given,
    tallies each dt and what set it.  Raises InvalidValue for a
    ``sample_every`` outside ``require_sample_every``, and NonFiniteState
    or StepTooSmall with the last good t; StepTooSmall also when a landing
    cannot advance t (sample times finer than the float spacing of t).
    """
    require_sample_every(sample_every, cfg.dt_min)
    counts = counts if counts is not None else StepCounts()

    st = st0
    sink(st)
    # sample times are k * sample_every for an integer k, never a running
    # sum, so they land exactly; on resume k continues from the start time
    k = int(np.floor(st.t / sample_every + 1e-9)) + 1
    limit, dt = "", 0.0

    def choose(speed: float) -> float:
        """dt of the step from the loop's st towards its target at the max
        speed ``speed``: dt_max or the landing at speed 0."""
        nonlocal limit, dt
        dt = _cfl_limit(speed, st.grid, cfg)
        if st.t + dt >= target - _LANDING_TOL:
            limit, dt = "landing", target - st.t
            if dt <= 0:
                raise StepTooSmall(f"landing step {dt:.3e} does not advance t")
        else:
            limit = "cfl" if dt < cfg.dt_max else "dt_max"
        return dt

    m = step_rows(st, nonlinear)  # rows past the content change no bit
    # a packed step's result is in the class bit for bit: one test holds
    # for the whole run
    in_class = nonlinear and _in_class(st.grid, st.x[:, :m])
    while st.t < cfg.t_end - _LANDING_TOL:
        next_sample = k * sample_every
        target = min(next_sample, cfg.t_end)
        try:
            st = step_ifrk4(
                st, choose, nonlinear=nonlinear, coupling=coupling, rows=m, in_class=in_class
            )
        except (NonFiniteState, StepTooSmall) as exc:
            raise type(exc)(f"{exc} (last good t={st.t:.6g})") from exc
        counts.add(limit, dt)
        if limit == "landing":  # on the next sample time or on t_end
            st.t = target  # exact landing
            sink(st)
            k += 1
    return st
