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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import grad_b_l2_sq, l2_energy
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
    divergence_defect,
    partial_derivative,
    sobolev_norm,
)
from .symmetry import MHDState, PARITY, _reflect_coeffs, gradient_norm, symmetry_defect

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class EnergyParams:
    """Regularity index of the energy framework (theorem hypothesis s >= 2)."""

    s: int

    def __post_init__(self):
        if self.s < 2:
            raise ValueError(f"s must be an integer >= 2, got {self.s}")


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
    """Squared-norm multipliers on the half spectrum, times its row weights:
    the u orders, then the d2 u orders, act on |u|^2; the b orders on |b|^2."""
    half = grid.half
    mu = lambda m: half.weight * grid.sobolev_multiplier(m)[: grid.n // 2 + 1]
    u, b, d2u = _orders(s)
    d2 = half.ik2.imag**2
    wu = np.stack([mu(m) for m in u] + [d2 * mu(m) for m in d2u])
    return wu, np.stack([mu(m) for m in b])


def instantaneous(st: MHDState, p: EnergyParams) -> DiagnosticsRecord:
    """All norms entering E0 and E1, plus structural defects.

    The 11 norms come from one pass over |x|^2 against cached multipliers.
    """
    x, half = st.x, st.grid.half
    u_orders, b_orders, d2u_orders = _orders(p.s)
    wu, wb = _norm_weights(st.grid, p.s)
    sq = x.real**2 + x.imag**2
    nu = np.sqrt(MEASURE * np.einsum("kij,ij->k", wu, sq[0] + sq[1]))
    nb = np.sqrt(MEASURE * np.einsum("kij,ij->k", wb, sq[2] + sq[3]))
    return DiagnosticsRecord(
        t=st.t,
        norm_u=dict(zip(u_orders, nu[:4].tolist())),
        norm_b=dict(zip(b_orders, nb.tolist())),
        norm_d2u=dict(zip(d2u_orders, nu[4:].tolist())),
        l2_energy=l2_energy(st),
        grad_b_l2_sq=grad_b_l2_sq(st),
        symmetry_defect=symmetry_defect(st),
        div_defect_u=divergence_defect(half, x[0], x[1]),
        div_defect_b=divergence_defect(half, x[2], x[3]),
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
