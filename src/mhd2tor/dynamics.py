"""Right-hand sides of the MHD system with pressure eliminated.

Perturbation form (B = b + e2):

    u_t = P(-u.grad u + b.grad b + d2 b)
    b_t = -u.grad b + b.grad u + d2 u + Lap b

with P the Leray projection.  The quadratic terms are formed in
divergence form, which for divergence-free u and b is the same flow:

    -u.grad u + b.grad b = -div(u u - b b)
                         = -(d1 A + d2 C, d1 C - d2 A) - grad (|u|^2 - |b|^2)/2
    -u.grad b + b.grad u = curl(u x b) = (d2 E, -d1 E)

with A = (u1^2 - u2^2 - b1^2 + b2^2)/2, C = u1 u2 - b1 b2 and
E = u1 b2 - u2 b1.  The gradient is removed by P, so the kernel drops it.
This assumes divergence-free input, which every state the solver steps,
draws as initial data or writes to a checkpoint satisfies; for such fields
the two forms agree to roundoff after dealiasing (the test suite checks
them against direct-sum advective products).  The three products are formed
pseudo-spectrally from dealiased inputs and dealiased again: one stacked
inverse transform of 4 fields and one forward transform of 3 per
evaluation.  Linear terms are not dealiased.  The k = 0 mode of every
tendency is exactly zero with no write to it, since every multiplier
vanishes there; a non-finite mean mode therefore shows as a non-finite
tendency.

Everything works on the state's own array: stacked half spectra
(u1, u2, b1, b2) of shape (4, n//2+1, n), transformed without phase or
scaling on the grid anchored at 0 (see ``spectral``).  The private
``_rhs_arrays`` kernel returns the non-stiff part, without the diffusion
Lap b, which the stepper applies through an exact integrating factor; it
works in per-grid buffers and can write into a caller's array.  Its
transforms use the shared ``spectral._transform_workspace``, which
``cfl_dt`` and ``symmetry_defect`` also use, so it is not reentrant.  On
request it also returns the CFL speed |u| + |b + e2| of its dealiased
samples, so the stepper takes dt from stage 1 without a transform of its
own.  Solver states lie inside the 2/3 band, where dealiasing changes
nothing, so this speed equals that of ``cfl_dt`` bit for bit; a state read
from a checkpoint carries roundoff above the band, and there the two differ
at roundoff.  The public ``rhs_perturbation``/``rhs_total`` return the
whole dx/dt in the same layout, in a new array.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InsufficientSamples, NonFiniteTendency
from .spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    _coeff_arrays,
    _forward_into,
    _inverse_into,
    _transform_workspace,
    half_coeffs,
    half_samples,
    project_pairs,
    roll_anchor,
    sobolev_norm,
    to_half,
)
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState


@lru_cache(maxsize=4)
def _workspace(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Arrays that ``_rhs_arrays`` overwrites on every call, one set per grid,
    next to the shared ``_transform_workspace``: the samples of A, C, E and
    two half spectra of scratch."""
    n = grid.n
    return np.empty((3, n, n)), np.empty((2, n // 2 + 1, n), dtype=np.complex128)


def _max_speed(phys: np.ndarray, work: np.ndarray) -> float:
    """Max over the grid of |u| + |b + e2| from the samples (u1, u2, b1, b2);
    ``work`` holds three n x n arrays of scratch.  The one speed formula of
    the CFL bound."""
    U1, U2, B1, B2 = phys
    u, b, t = work
    np.square(U1, out=u)
    u += np.square(U2, out=t)
    np.sqrt(u, out=u)
    np.add(B2, 1.0, out=b)  # total field includes e2
    np.square(b, out=b)
    b += np.square(B1, out=t)
    np.sqrt(b, out=b)
    u += b
    return float(u.max())


def _sample_speed(grid: GridSpec, x: np.ndarray) -> float:
    """``_max_speed`` of the samples of ``x`` as stored (not dealiased), from
    one inverse transform in the shared workspace."""
    spec, phys = _transform_workspace(grid)
    np.copyto(spec, x)
    return _max_speed(_inverse_into(spec, phys), _workspace(grid)[0])


def _quadratic_arrays(
    grid: GridSpec, x: np.ndarray, out: np.ndarray, speed: bool = False
) -> float | None:
    """Dealiased (-(d1 A + d2 C), d2 A - d1 C, d2 E, -d1 E) into ``out``.

    ``x`` holds the half spectra of divergence-free (u1, u2, b1, b2); see
    the module docstring for A, C, E.  One stacked inverse transform of 4
    fields and one forward transform of 3 per evaluation.  With ``speed``,
    returns ``_max_speed`` of the dealiased samples, else None.
    """
    half = grid.half
    spec, phys = _transform_workspace(grid)
    prods, scratch = _workspace(grid)
    np.multiply(x, half.dealias_mask, out=spec)
    _inverse_into(spec, phys)
    vmax = _max_speed(phys, prods) if speed else None
    U1, U2, B1, B2 = phys
    A, C, E = prods
    # A holds the second factors of C and E until A itself is formed
    np.multiply(U1, U2, out=C)
    C -= np.multiply(B1, B2, out=A)
    np.multiply(U1, B2, out=E)
    E -= np.multiply(U2, B1, out=A)
    np.square(phys, out=phys)
    np.subtract(U1, U2, out=A)
    A -= B1
    A += B2
    A *= 0.5
    hat = _forward_into(prods, spec[:3])
    hat *= half.dealias_mask
    A_hat, C_hat, E_hat = hat
    d1, d2 = half.ik_stack
    t = scratch[0]
    np.multiply(d1, A_hat, out=out[0])
    out[0] += np.multiply(d2, C_hat, out=t)
    np.negative(out[0], out=out[0])
    np.multiply(d2, A_hat, out=out[1])
    out[1] -= np.multiply(d1, C_hat, out=t)
    np.multiply(d2, E_hat, out=out[2])
    np.multiply(d1, E_hat, out=out[3])
    np.negative(out[3], out=out[3])
    return vmax


def _rhs_arrays(
    grid: GridSpec,
    x: np.ndarray,
    nonlinear: bool,
    coupling: bool,
    out: np.ndarray | None = None,
    speed: bool = False,
) -> np.ndarray | float:
    """dx/dt of the perturbation form without the diffusion Lap b, half spectra.

    Written into ``out`` when given, else into a new array, which is
    returned.  With ``speed``, the max speed |u| + |b + e2| of ``x`` is
    returned instead: from the dealiased samples that the products use, or
    from ``_sample_speed`` when ``nonlinear`` is off.
    """
    if out is None:
        out = np.empty_like(x)
    if nonlinear:
        vmax = _quadratic_arrays(grid, x, out, speed)
    else:
        out[...] = 0.0
        vmax = _sample_speed(grid, x) if speed else None
    scratch = _workspace(grid)[1]
    if coupling:
        ik2 = grid.half.ik2
        out[:2] += np.multiply(ik2, x[2:], out=scratch)
        out[2:] += np.multiply(ik2, x[:2], out=scratch)
    project_pairs(grid.half, out, scratch)
    return vmax if speed else out


def _rhs_total_arrays(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """dx/dt of the total-field form without Lap b; x holds (u1, u2, B1, B2),
    so the products bring in the coupling terms."""
    return _rhs_arrays(grid, x, nonlinear=True, coupling=False)


def _with_diffusion(grid: GridSpec, soft: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dx/dt from the non-stiff part and b: adds Lap b to the b rows, in place."""
    soft[2:] -= grid.half.ksq * b
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
    The unit background enters the products (B2^2 in A) at order 1, so that
    roundoff is absolute, about 1e-16 |B|^2 per unit wavenumber.
    """
    x = st.x.copy()
    x[3, 0, 0] += 1.0
    return _with_diffusion(st.grid, _rhs_total_arrays(st.grid, x), st.x[2:])


def compute_pressure(st: MHDState) -> ScalarField:
    """Diagnostic pressure: solves -Lap p = div(u.grad u - b.grad b - d2 b).

    Mean-zero convention (p_hat at k = 0 is zero).  The gradient of the
    result equals the Leray-removed part of the u tendency.  For
    divergence-free fields the right side is div div T with the stress
    T = u u - b b (d2 b has no divergence), so p_hat = -k.T_hat.k / |k|^2,
    with T formed from dealiased samples and dealiased again.
    """
    grid, half = st.grid, st.grid.half
    U1, U2, B1, B2 = half_samples(grid, half.dealias_mask * st.x)
    stress = np.stack([U1 * U1 - B1 * B1, U1 * U2 - B1 * B2, U2 * U2 - B2 * B2])
    T11, T12, T22 = half.dealias_mask * half_coeffs(grid, stress)
    k1, k2 = half.k1, half.k2
    p_hat = -(k1 * k1 * T11 + 2.0 * k1 * k2 * T12 + k2 * k2 * T22) * half.inv_ksq
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
