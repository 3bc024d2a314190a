"""Right-hand sides of the MHD system with pressure eliminated.

Perturbation form (B = b + e2):

    u_t = P(-u.grad u + b.grad b + d2 b)
    b_t = -u.grad b + b.grad u + d2 u + Lap b

with P the Leray projection.  The diffusive part Lap b is returned
separately (``db_stiff``) so the stepper can treat it with an exact
integrating factor.  Quadratic products are formed pseudo-spectrally from
dealiased inputs and dealiased again; linear terms are not dealiased.
The k = 0 mode of every tendency is forced to zero.

The private ``_*_arrays`` kernels work on the solver-internal convention
of ``spectral``: stacked half spectra (u1, u2, b1, b2) of shape
(4, n//2+1, n), transformed without phase or scaling on the grid anchored
at 0.  The public ``rhs_perturbation``/``rhs_total`` take and return full
spectra anchored at -pi, like every other public function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, NonFiniteTendency
from .spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    _coeff_arrays,
    fft_coeffs,
    half_coeffs,
    half_samples,
    ifft_samples,
    inverse_transform,
    project_pairs,
    sobolev_norm,
    to_full,
    to_half,
)
from .symmetry import MHDState


@dataclass
class Tendency:
    """Time derivative split into stiff diffusion and everything else."""

    du: VectorField
    db_stiff: VectorField
    db_soft: VectorField
    grid: GridSpec


def _advect(grid: GridSpec, v1p, v2p, f_hat):
    """Physical samples of (v . grad f) from dealiased spectral f."""
    d1 = ifft_samples(grid, grid.ik1 * f_hat).real
    d2 = ifft_samples(grid, grid.ik2 * f_hat).real
    return v1p * d1 + v2p * d2


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
    """Non-stiff tendency (du, db_soft) of the perturbation form, half spectra."""
    out = _quadratic_arrays(grid, x) if nonlinear else np.zeros_like(x)
    if coupling:
        ik2 = grid.half.ik2
        out[:2] += ik2 * x[2:]
        out[2:] += ik2 * x[:2]
    return project_pairs(grid.half, out)


def _rhs_total_arrays(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """Non-stiff tendency of the total-field form; x holds (u1, u2, B1, B2)."""
    return project_pairs(grid.half, _quadratic_arrays(grid, x))


def _as_tendency(grid: GridSpec, soft: np.ndarray, b1, b2) -> Tendency:
    """Full-spectrum Tendency from a half-spectrum soft part and the field b."""
    du1, du2, ds1, ds2 = to_full(soft)
    st1 = -grid.ksq * b1
    st2 = -grid.ksq * b2
    st1[0, 0] = st2[0, 0] = 0.0
    if not all(np.all(np.isfinite(a)) for a in (soft, st1, st2)):
        raise NonFiniteTendency("tendency contains non-finite coefficients")
    wrap = lambda a: SpectralScalar(grid, a)
    return Tendency(
        du=VectorField(wrap(du1), wrap(du2)),
        db_stiff=VectorField(wrap(st1), wrap(st2)),
        db_soft=VectorField(wrap(ds1), wrap(ds2)),
        grid=grid,
    )


def rhs_perturbation(st: MHDState, nonlinear: bool = True, coupling: bool = True) -> Tendency:
    """Tendency of the perturbation system at the given state.

    The ``nonlinear`` and ``coupling`` hooks disable the quadratic products
    and the d2 exchange terms respectively; both are part of the public test
    surface (the linearized limit has a closed-form per-mode solution).
    """
    grid = st.grid
    arrays = st.coeff_arrays()
    soft = _rhs_arrays(grid, to_half(np.stack(arrays)), nonlinear, coupling)
    return _as_tendency(grid, soft, *arrays[2:])


def rhs_total(u: VectorField, B: VectorField) -> Tendency:
    """Tendency of the total-field system, formed directly from (u, B).

    Provided to validate that the two formulations agree: for band-limited
    states it matches ``rhs_perturbation`` applied to b = B - e2 to roundoff.
    """
    grid, (u1, u2) = _coeff_arrays(u)
    _, (B1, B2) = _coeff_arrays(B)
    soft = _rhs_total_arrays(grid, to_half(np.stack([u1, u2, B1, B2])))
    return _as_tendency(grid, soft, B1, B2)


def compute_pressure(st: MHDState) -> ScalarField:
    """Diagnostic pressure: solves -Lap p = div(u.grad u - b.grad b - d2 b).

    Mean-zero convention (p_hat at k = 0 is zero).  The gradient of the
    result equals the Leray-removed part of the u tendency.
    """
    grid = st.grid
    u1, u2, b1, b2 = st.coeff_arrays()
    # the u tendency before projection, g = -u.grad u + b.grad b + d2 b
    q1, q2, _, _ = to_full(_quadratic_arrays(grid, to_half(np.stack([u1, u2, b1, b2]))))
    g1 = q1 + grid.ik2 * b1
    g2 = q2 + grid.ik2 * b2
    # -Lap p = -div g, so p_hat = -i (k.g) / |k|^2, zero at k = 0
    p_hat = -1j * (grid.k1 * g1 + grid.k2 * g2) * grid.inv_ksq
    return inverse_transform(SpectralScalar(grid, p_hat))


def transport_skew_defect(u: VectorField, f: ScalarField | SpectralScalar) -> float:
    """Normalized discrete residue of the cancellation int (u.grad f) f dx = 0.

    With dealiased products the value is roundoff-level for divergence-free u.
    """
    grid, (u1, u2) = _coeff_arrays(u)
    _, (f_hat,) = _coeff_arrays(f)
    mask = grid.dealias_mask
    U1 = ifft_samples(grid, u1 * mask).real
    U2 = ifft_samples(grid, u2 * mask).real
    g_hat = mask * fft_coeffs(grid, _advect(grid, U1, U2, f_hat * mask))
    integral = MEASURE * float(np.sum(g_hat * np.conj(f_hat)).real)
    norm_u = np.sqrt(MEASURE * float(np.sum(np.abs(u1) ** 2 + np.abs(u2) ** 2)))
    norm_f_h1 = sobolev_norm(SpectralScalar(grid, f_hat), 1)
    return abs(integral) / (norm_u * norm_f_h1**2 + 1e-30)


def l2_energy(st: MHDState) -> float:
    """Half the total L2 energy of (u, b)."""
    total = sum(float(np.sum(np.abs(c) ** 2)) for c in st.coeff_arrays())
    return 0.5 * MEASURE * total


def grad_b_l2_sq(st: MHDState) -> float:
    """Squared L2 norm of grad b (the exact dissipation rate of l2_energy)."""
    _, _, b1, b2 = st.coeff_arrays()
    return MEASURE * float(np.sum(st.grid.ksq * (np.abs(b1) ** 2 + np.abs(b2) ** 2)))


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


def energy_balance_residual(history: list[tuple[float, MHDState]]) -> float:
    """Energy-law residual over a densely sampled trajectory."""
    if len(history) < 2:
        raise InsufficientSamples("need at least 2 records for the energy balance")
    ts = np.array([t for t, _ in history])
    energies = np.array([l2_energy(s) for _, s in history])
    dissipations = np.array([grad_b_l2_sq(s) for _, s in history])
    return energy_balance_series(ts, energies, dissipations)
