"""Right-hand sides of the MHD system with pressure eliminated.

Perturbation form (B = b + e2):

    u_t = P(-u.grad u + b.grad b + d2 b)
    b_t = -u.grad b + b.grad u + d2 u + Lap b

with P the Leray projection.  Quadratic products are formed
pseudo-spectrally from dealiased inputs and dealiased again; linear terms
are not dealiased.  The k = 0 mode of every tendency is forced to zero.

Everything works on the state's own array: stacked half spectra
(u1, u2, b1, b2) of shape (4, n//2+1, n), transformed without phase or
scaling on the grid anchored at 0 (see ``spectral``).  The private
``_rhs_arrays`` kernel returns the non-stiff part, without the diffusion
Lap b, which the stepper applies through an exact integrating factor; the
public ``rhs_perturbation``/``rhs_total`` return the whole dx/dt in the
same layout.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientSamples, NonFiniteTendency
from .spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    _coeff_arrays,
    half_coeffs,
    half_samples,
    project_pairs,
    roll_anchor,
    sobolev_norm,
    to_half,
)
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState


def _quadratic_arrays(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Dealiased products (-u.grad u + b.grad b, -u.grad b + b.grad u).

    ``x`` holds the half spectra of (u1, u2, b1, b2); one stacked inverse
    transform of 12 fields and one forward transform of 4 per evaluation.
    """
    n = grid.n
    half = grid.half
    stacked = np.empty((12,) + x.shape[1:], dtype=np.complex128)
    spec = stacked[:4]
    np.multiply(x, half.dealias_mask, out=spec)
    # gradients of all four fields via one broadcast multiply
    np.multiply(spec[:, None], half.ik_stack[None], out=stacked[4:].reshape((4, 2) + x.shape[1:]))
    phys = half_samples(grid, stacked)
    U1, U2, B1, B2 = phys[:4]
    grads = phys[4:].reshape(4, 2, n, n)  # grads[i, j] = d_j of field i
    u_grad = U1 * grads[:, 0] + U2 * grads[:, 1]
    b_grad = B1 * grads[:, 0] + B2 * grads[:, 1]
    products = b_grad[[2, 3, 0, 1]] - u_grad
    return half.dealias_mask * half_coeffs(grid, products)


def _rhs_arrays(grid: GridSpec, x: np.ndarray, nonlinear: bool, coupling: bool) -> np.ndarray:
    """dx/dt of the perturbation form without the diffusion Lap b, half spectra."""
    out = _quadratic_arrays(grid, x) if nonlinear else np.zeros_like(x)
    if coupling:
        ik2 = grid.half.ik2
        out[:2] += ik2 * x[2:]
        out[2:] += ik2 * x[:2]
    return project_pairs(grid.half, out)


def _rhs_total_arrays(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """dx/dt of the total-field form without Lap b; x holds (u1, u2, B1, B2)."""
    return project_pairs(grid.half, _quadratic_arrays(grid, x))


def _with_diffusion(grid: GridSpec, soft: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dx/dt from the non-stiff part and b: adds Lap b to the b rows, in place."""
    soft[2:] -= grid.half.ksq * b
    soft[:, 0, 0] = 0.0
    if not np.all(np.isfinite(soft)):
        raise NonFiniteTendency("tendency contains non-finite coefficients")
    return soft


def rhs_perturbation(st: MHDState, nonlinear: bool = True, coupling: bool = True) -> np.ndarray:
    """dx/dt of the perturbation system, diffusion included, in the layout of ``st.x``.

    The ``nonlinear`` and ``coupling`` hooks disable the quadratic products
    and the d2 exchange terms respectively; both are part of the public test
    surface (the linearized limit has a closed-form per-mode solution).
    """
    return _with_diffusion(st.grid, _rhs_arrays(st.grid, st.x, nonlinear, coupling), st.x[2:])


def rhs_total(st: MHDState) -> np.ndarray:
    """dx/dt of the total-field system, formed directly from (u, B = b + e2).

    Takes the perturbation state and returns the layout of ``st.x``.  A
    reference for ``rhs_perturbation``: for band-limited states the two
    agree to roundoff, since the e2 terms are exactly the coupling terms.
    """
    x = st.x.copy()
    x[3, 0, 0] += 1.0
    return _with_diffusion(st.grid, _rhs_total_arrays(st.grid, x), st.x[2:])


def compute_pressure(st: MHDState) -> ScalarField:
    """Diagnostic pressure: solves -Lap p = div(u.grad u - b.grad b - d2 b).

    Mean-zero convention (p_hat at k = 0 is zero).  The gradient of the
    result equals the Leray-removed part of the u tendency.
    """
    grid, half = st.grid, st.grid.half
    # the u tendency before projection, g = -u.grad u + b.grad b + d2 b
    g = _quadratic_arrays(grid, st.x)[:2] + half.ik2 * st.x[2:]
    # -Lap p = -div g, so p_hat = -i (k.g) / |k|^2, zero at k = 0
    p_hat = -1j * (half.k1 * g[0] + half.k2 * g[1]) * half.inv_ksq
    return ScalarField(grid, roll_anchor(half_samples(grid, p_hat)))


def transport_skew_defect(u: VectorField, f: ScalarField | SpectralScalar) -> float:
    """Normalized discrete residue of the cancellation int (u.grad f) f dx = 0.

    With dealiased products the value is roundoff-level for divergence-free u.
    """
    grid, (u1, u2) = _coeff_arrays(u)
    _, (f_full,) = _coeff_arrays(f)
    half = grid.half
    u_hat, f_hat = to_half(np.stack([u1, u2])), to_half(f_full)
    # dealiased samples of u1, u2, d1 f and d2 f in one stacked transform
    U1, U2, D1, D2 = half_samples(
        grid, half.dealias_mask * np.concatenate([u_hat, half.ik_stack * f_hat])
    )
    g_hat = half.dealias_mask * half_coeffs(grid, U1 * D1 + U2 * D2)
    integral = MEASURE * float(np.sum(half.weight * (g_hat * np.conj(f_hat)).real))
    norm_u = np.sqrt(MEASURE * float(np.sum(half.weight * np.abs(u_hat) ** 2)))
    norm_f_h1 = sobolev_norm(SpectralScalar(grid, f_full), 1)
    return abs(integral) / (norm_u * norm_f_h1**2 + 1e-30)


def l2_energy(st: MHDState) -> float:
    """Half the total L2 energy of (u, b)."""
    sq = st.x.real**2 + st.x.imag**2
    return 0.5 * MEASURE * float(np.sum(st.grid.half.weight * sq))


def grad_b_l2_sq(st: MHDState) -> float:
    """Squared L2 norm of grad b (the exact dissipation rate of l2_energy)."""
    b = st.x[2:]
    half = st.grid.half
    return MEASURE * float(np.sum(half.weight * half.ksq * (b.real**2 + b.imag**2)))


def energy_balance_series(
    ts: np.ndarray, energies: np.ndarray, dissipations: np.ndarray
) -> float:
    """Max relative defect of e(t) - e(0) + int ||grad b||^2 dtau (trapezoid)."""
    ts = np.asarray(ts, dtype=float)
    energies = np.asarray(energies, dtype=float)
    dissipations = np.asarray(dissipations, dtype=float)
    if len(ts) < 2:
        raise InsufficientSamples("need at least 2 records for the energy balance")
    dt = np.diff(ts)
    increments = 0.5 * dt * (dissipations[:-1] + dissipations[1:])
    integral = np.concatenate([[0.0], np.cumsum(increments)])
    defect = np.abs(energies - energies[0] + integral)
    denom = energies[0] if energies[0] > 0 else 1.0
    return float(np.max(defect) / denom)
