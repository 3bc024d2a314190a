"""Sobolev-norm diagnostics and the time-weighted energy ledger.

Two running functionals are tracked over a trajectory:

    E0(t) = sup_{tau<=t} (||u||_{H^{2s+1}}^2 + ||b||_{H^{2s+1}}^2)
          + int_0^t (||b||_{H^{2s+2}}^2 + ||d2 u||_{H^{2s}}^2) dtau

    E1(t) = sup_{tau<=t} (1+tau)^2 (||u||_{H^{2s-1}}^2 + ||b||_{H^{2s-1}}^2)
          + int_0^t (1+tau)^2 (||b||_{H^{2s}}^2 + ||d2 u||_{H^{2s-2}}^2) dtau

Their joint boundedness is the quantitative content of the small-data
global-existence statement this package exercises numerically.  Integrals
are accumulated by trapezoid on diagnostic samples.

The anisotropic Poincare check quantifies the chain

    ||grad u||_{H^k} = ||omega||_{H^k} <= ||d2 omega||_{H^k}
                     <= sqrt(2) ||d2 u||_{H^{k+1}}

for divergence-free zero-mean velocities in the symmetry class: the first
link is the Calderon-Zygmund equality (exact in the spectral norm), the
second is the unit-constant Poincare inequality in x2 (omega is odd in x2,
so its modes with k2 = 0 vanish), and the last costs a component-counting
factor sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InsufficientSamples,
    NonMonotoneTime,
    NonPositiveValue,
    NotInClass,
    PoincareBoundExceeded,
)
from .spectral import (
    MEASURE,
    GridSpec,
    SpectralScalar,
    VectorField,
    _coeff_arrays,
    _content_rows,
    _divergence_defect_in,
    _phys_as_complex,
    _spec_as_real,
    derivative_multiplier,
    divergence_defect,
    half_sobolev_multiplier,
    partial_derivative,
    require_s,
    sobolev_norm,
)
from .symmetry import MHDState, PARITY, _reflect_coeffs, symmetry_defect

SQRT2 = float(np.sqrt(2.0))
# numpy's einsum accumulates a contiguous run of products in SIMD blocks
# (at most 32 float64 values on the widest vector units) and adds a shorter
# tail in another order.  A norm sum over leading rows that end on a block
# edge sees its products in the same blocks as the sum over all rows, and
# the zero rows past them only add +0.0; ending inside a block moves the
# sum at roundoff (n = 10, 12, 14, 100 showed it on random states).
_SUM_BLOCK = 32


@dataclass(frozen=True)
class EnergyParams:
    """Regularity index of the energy framework; construction raises
    InvalidValue unless s lies in [2, MAX_S] (``require_s``)."""

    s: int

    def __post_init__(self):
        require_s(self.s)


@dataclass
class DiagnosticsRecord:
    """Instantaneous norms, defects, and means at one time.

    norm_u / norm_b map Sobolev order m to the H^m norm; norm_d2u maps m to
    the H^m norm of d2 u.
    """

    t: float
    norm_u: dict[int, float]
    norm_b: dict[int, float]
    norm_d2u: dict[int, float]
    l2_energy: float
    grad_b_l2_sq: float
    symmetry_defect: float
    div_defect_u: float
    div_defect_b: float
    mean_abs_max: float


def _orders(s: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sobolev orders of the u, b and d2 u norms that E0 and E1 use."""
    orders = (2 * s - 2, 2 * s - 1, 2 * s, 2 * s + 1)
    return orders, orders + (2 * s + 2,), (2 * s - 2, 2 * s)


@lru_cache(maxsize=4)
def _norm_weights(grid: GridSpec, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Squared-norm multipliers on the half spectrum, times its row weights.

    On |u|^2: the u orders, the d2 u orders, then the L2 weight.  On |b|^2:
    the b orders, the L2 weight, then |k|^2 (the weight of ||grad b||^2).
    """
    half = grid.half
    mu = lambda m: half.weight * half_sobolev_multiplier(grid, m)
    u, b, d2u = _orders(s)
    d2 = half.ik2.imag**2
    l2 = np.broadcast_to(half.weight, half.ksq.shape)
    wu = np.stack([mu(m) for m in u] + [d2 * mu(m) for m in d2u] + [l2])
    return wu, np.stack([mu(m) for m in b] + [l2, half.weight * half.ksq])


def _squared_sum(v1: np.ndarray, v2: np.ndarray, work: np.ndarray) -> np.ndarray:
    """|v1|^2 + |v2|^2 per mode, written into ``work[0]`` and returned;
    ``work`` holds three real arrays of the shape of ``v1``."""
    s, s2, t = work
    np.square(v1.real, out=s)
    s += np.square(v1.imag, out=t)
    np.square(v2.real, out=s2)
    s2 += np.square(v2.imag, out=t)
    s += s2
    return s


def _sum_rows(x: np.ndarray, m: int) -> int:
    """The content rows m of ``x`` (``_content_rows``), rounded up to whole
    blocks of ``_SUM_BLOCK`` values: the leading rows whose norm sums are
    the bits of the sums over all n/2 + 1 rows."""
    rows = _SUM_BLOCK // math.gcd(x.shape[-1], _SUM_BLOCK)
    return min(x.shape[-2], -(-m // rows) * rows)


def instantaneous(st: MHDState, p: EnergyParams) -> DiagnosticsRecord:
    """All norms entering E0 and E1, the L2 energy, ||grad b||^2 and the
    structural defects of ``st``.  The sums run over the leading rows that
    ``_sum_rows`` picks, which give the bits of the sums over all rows.
    Uses the shared transform workspace.
    """
    grid, x = st.grid, st.x
    u_orders, b_orders, d2u_orders = _orders(p.s)
    wu, wb = _norm_weights(grid, p.s)
    content = _content_rows(x)
    m = _sum_rows(x, content)
    c = x[:, :m]
    work = _spec_as_real(grid, (3, m, grid.n))
    su = MEASURE * np.einsum("kij,ij->k", wu[:, :m], _squared_sum(c[0], c[1], work))
    sb = MEASURE * np.einsum("kij,ij->k", wb[:, :m], _squared_sum(c[2], c[3], work))
    nu, nb = np.sqrt(su[:-1]), np.sqrt(sb[:-2])
    defect = symmetry_defect(st, rows=content)
    scratch = _phys_as_complex(grid, (2, m, grid.n))
    return DiagnosticsRecord(
        t=st.t,
        norm_u=dict(zip(u_orders, nu[:4].tolist())),
        norm_b=dict(zip(b_orders, nb.tolist())),
        norm_d2u=dict(zip(d2u_orders, nu[4:].tolist())),
        l2_energy=0.5 * float(su[-1] + sb[-2]),
        grad_b_l2_sq=float(sb[-1]),
        symmetry_defect=defect,
        div_defect_u=_divergence_defect_in(grid.half, c[0], c[1], scratch),
        div_defect_b=_divergence_defect_in(grid.half, c[2], c[3], scratch),
        mean_abs_max=float(MEASURE * np.max(np.abs(x[:, 0, 0].real))),
    )


@dataclass
class EnergyLedger:
    """Running suprema and trapezoid integrals composing E0(t) and E1(t)."""

    s: int
    sup0: float = 0.0
    int0: float = 0.0
    sup1: float = 0.0
    int1: float = 0.0
    last_t: float | None = None
    last_integrand0: float = 0.0
    last_integrand1: float = 0.0

    @property
    def e0(self) -> float:
        return self.sup0 + self.int0

    @property
    def e1(self) -> float:
        return self.sup1 + self.int1

    @property
    def total(self) -> float:
        return self.e0 + self.e1


def ledger_update(led: EnergyLedger, rec: DiagnosticsRecord) -> EnergyLedger:
    """Fold one record into the ledger (in place; returns the ledger)."""
    s = led.s
    if led.last_t is not None and rec.t < led.last_t:
        raise NonMonotoneTime(f"record at t={rec.t} precedes ledger time {led.last_t}")
    w = (1.0 + rec.t) ** 2
    high = rec.norm_u[2 * s + 1] ** 2 + rec.norm_b[2 * s + 1] ** 2
    low = w * (rec.norm_u[2 * s - 1] ** 2 + rec.norm_b[2 * s - 1] ** 2)
    integrand0 = rec.norm_b[2 * s + 2] ** 2 + rec.norm_d2u[2 * s] ** 2
    integrand1 = w * (rec.norm_b[2 * s] ** 2 + rec.norm_d2u[2 * s - 2] ** 2)
    led.sup0 = max(led.sup0, high)
    led.sup1 = max(led.sup1, low)
    if led.last_t is not None:
        dt = rec.t - led.last_t
        led.int0 += 0.5 * dt * (led.last_integrand0 + integrand0)
        led.int1 += 0.5 * dt * (led.last_integrand1 + integrand1)
    led.last_t = rec.t
    led.last_integrand0 = integrand0
    led.last_integrand1 = integrand1
    return led


def gradient_norm(v: VectorField, m: int) -> float:
    """H^m norm of the full gradient of a vector field in either representation."""
    grid, comps = _coeff_arrays(v)
    parts = [
        SpectralScalar(grid, c * derivative_multiplier(grid, alpha))
        for c in comps
        for alpha in ((1, 0), (0, 1))
    ]
    return float(np.sqrt(sum(sobolev_norm(p, m) ** 2 for p in parts)))


def poincare_check(u: VectorField, k: int) -> tuple[float, float, float]:
    """(lhs, rhs, ratio) for ||grad u||_{H^k} vs ||d2 u||_{H^{k+1}}.

    ``u`` may be physical or spectral.  Preconditions (divergence-free, zero
    mean, class parities) are validated; the ratio is asserted against the
    exact spectral bound sqrt(2).
    """
    grid, (u1, u2) = _coeff_arrays(u)
    u = VectorField(SpectralScalar(grid, u1), SpectralScalar(grid, u2))
    if divergence_defect(grid, u1, u2) > 1e-10:
        raise NotInClass("velocity is not divergence-free")
    if MEASURE * max(abs(u1[0, 0]), abs(u2[0, 0])) > 1e-12:
        raise NotInClass("velocity does not have zero mean")
    scale = max(float(np.max(np.abs(u1))), float(np.max(np.abs(u2))), 1e-300)
    anti1 = np.max(np.abs(u1 - _reflect_coeffs(u1, PARITY["u1"]))) / 2
    anti2 = np.max(np.abs(u2 - _reflect_coeffs(u2, PARITY["u2"]))) / 2
    if max(anti1, anti2) / scale > 1e-10:
        raise NotInClass("velocity violates the reflection parities")
    lhs = gradient_norm(u, k)
    d2u = VectorField(partial_derivative(u.c1, (0, 1)), partial_derivative(u.c2, (0, 1)))
    rhs = sobolev_norm(d2u, k + 1)
    ratio = 0.0 if (lhs == 0.0 and rhs == 0.0) else lhs / rhs
    if ratio > SQRT2 + 1e-8:
        raise PoincareBoundExceeded(
            f"ratio {ratio:.12f} exceeds sqrt(2) + 1e-8 at k={k}"
        )
    return lhs, rhs, ratio


def decay_fit(series, t_start: float = 1.0) -> float:
    """Least-squares slope of log(value) against log(1 + t) for t >= t_start."""
    pts = [(t, v) for t, v in series if t >= t_start]
    if len(pts) < 8:
        raise InsufficientSamples(
            f"need >= 8 samples with t >= {t_start}, got {len(pts)}"
        )
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    if np.any(vs <= 0):
        raise NonPositiveValue("decay fit requires strictly positive values")
    slope, _ = np.polyfit(np.log1p(ts), np.log(vs), 1)
    return float(slope)
