"""Right-hand sides of the MHD system in perturbation form (B = b + e2),
with P the Leray projection:

    u_t = P(-u.grad u + b.grad b + d2 b)
    b_t = -u.grad b + b.grad u + d2 u + Lap b

The products are formed in divergence form (README, Numerics), from
A = (u1^2 - u2^2 - b1^2 + b2^2)/2, C = u1 u2 - b1 b2 and E = u1 b2 - u2 b1,
which equals the advective form for divergence-free u and b.  For a state
in the reflection class the packed products come from its two packed
fields, h = u1 + u2 and g = b1 + b2, and their x2-mirrors (README,
Numerics).
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
    _leading,
    _phys_as_complex,
    _spec_as_real,
    _transform_workspace,
    half_coeffs,
    half_samples,
    roll_anchor,
    sobolev_norm,
    thread_cache,
    to_half,
)
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState


def _band_rows(grid: GridSpec) -> int:
    """Number of half-spectrum rows k1 = 0, 1, ... inside the 2/3 band."""
    return int(grid.dealias_cutoff) + 1


def _split(M: np.ndarray, curl: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multipliers of the packed kernel from those of the general one:
    the sums over the u1 and u2 rows of (M[:, 0] + M[:, 1])/2 and
    (M[:, 0] - M[:, 1])/2, which act on F(k2) and F(-k2) of F = (A + C)^,
    and of curl/2 over the b1 and b2 rows, which acts on E'(k2) + E'(-k2)."""
    plus, minus = 0.5 * (M[:, 0] + M[:, 1]), 0.5 * (M[:, 0] - M[:, 1])
    return plus.sum(0), minus.sum(0), 0.5 * curl.sum(0)


@lru_cache(maxsize=4)
def _multipliers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The tendency multipliers on the band rows, dealias mask folded in:
    (M, curl) of the general kernel, then (plus, minus, half_curl) =
    ``_split(M, curl)`` of the packed one.

    ``M[i, j]`` maps (A_hat, C_hat) to the u tendency: M = P [[-d1, -d2],
    [d2, -d1]], the Leray projection P folded into the divergence-form
    derivatives.  ``curl`` = (d2, -d1) maps E_hat to the b tendency.  All
    are built from the Nyquist-zeroed derivatives and vanish at k = 0.
    """
    half, r = grid.half, _band_rows(grid)
    mask = half.dealias_mask[:r]
    d1, d2 = half.ik_stack[:, :r]
    k1, k2 = d1.imag, d2.imag
    q = 1j * mask * half.inv_ksq[:r]
    M = q * np.stack([
        [-2.0 * k1 * k2 * k2, k2 * (k1 * k1 - k2 * k2)],
        [2.0 * k1 * k1 * k2, k1 * (k2 * k2 - k1 * k1)],
    ])
    curl = mask * np.stack([d2, -d1])
    return (M, curl, *_split(M, curl))


def _max_speed(u_pair, b_pair, work: np.ndarray, mean: bool = False) -> float:
    """Max over the grid of |u| + |b|, with |u|^2 = p^2 + q^2 for the sample
    arrays (p, q) = ``u_pair``, or their mean (p^2 + q^2)/2 with ``mean``,
    and |b|^2 likewise from ``b_pair``; ``work`` holds three arrays of their
    shape.  The one speed formula of the CFL bound, which ``_rhs_arrays``
    applies to its dealiased samples: the pairs are (u1, u2) and (b2, b1)
    in the general kernel, a packed field and its mirror, (h, Rh) and
    (g, Rg), in the packed one."""
    u, b, t = work
    for (p, q), sq in ((u_pair, u), (b_pair, b)):
        np.square(p, out=sq)
        sq += np.square(q, out=t)
        if mean:
            sq *= 0.5
    np.sqrt(u, out=u)
    u += np.sqrt(b, out=b)
    return float(u.max())


class _PackedPlan:
    """The packed kernel of one grid, for the packed fields (h, g) =
    ``_pack`` of a state in the class, with every array it touches bound
    once (``_packed_plan``): views of the transform workspace and the
    dealias rows, stored complex so that no multiply casts them.  With
    h = u1 + u2, g = b1 + b2 and their mirrors Rh = u1 - u2, Rg = b2 - b1:
    A = (h Rh + g Rg)/2 is even, C, the odd part of (h - g)(h + g)/2, is
    odd, and E is the even part of h Rg.  So the forward transform F of
    A + C and E' of h Rg give A^ = (F(k2) + F(-k2))/2,
    C^ = (F(k2) - F(-k2))/2 and E^ = (E'(k2) + E'(-k2))/2, folded into
    the packed multipliers of ``_multipliers`` (``_split``), which also sum
    the u1 and u2 rows, and the b1 and b2 rows, into the packed tendency.
    ``_unpack`` of it has the class's parity exactly, whatever the roundoff
    of the transforms.  A plan binds arrays only: the transforms and
    ``_multipliers`` are looked up on every call, so a patched one takes
    effect."""

    def __init__(self, grid: GridSpec):
        r, n, top = _band_rows(grid), grid.n, grid.n // 2 + 1
        ws = _transform_workspace(grid)
        self.grid, self.rows = grid, r
        self.mask = grid.half.dealias_mask[:r].astype(np.complex128)
        self.spec2, self.phys2 = ws.spec_t[:2], ws.phys_t[:2]
        # samples of h and g on the rows j = 0..n/2 of phys (x2 index j);
        # their mirrors, the rows n - j, and six free arrays of their shape
        # in the real stack over spec
        h, g, s, e = ws.phys
        real = _leading(ws.spec.view(np.float64), (8, top, n))
        hR, gR, *work = real
        self.mirror_rows = real[:2, 0], ws.phys[:2, 0], real[:2, 1:], ws.phys[:2, : top - 2 : -1]
        self.pairs = (h[:top], hR), (g[:top], gR)
        self.speed_work, self.work = tuple(work[:3]), tuple(work[:4])
        a, _, p, _ = self.work
        # rows j <= n/2 of A + C and h Rg, and the mirror rows n - j, into
        # phys[2:]; phys[:2] still holds h and g
        self.inner = a[1:-1], p[1:-1], hR[1:-1], g[1 : top - 1]
        self.s, self.e = (s[:top], s[: top - 1 : -1]), (e[:top], e[: top - 1 : -1])
        # the band rows of F and E' over phys[:2]; their reflections k2 -> -k2
        # and a product over spec, free after the forward transform
        FE = _leading(ws.phys.view(np.complex128), (2, r, n))
        mirror = _leading(ws.spec, (3, r, n))
        self.forward = ws.phys_t[2:], ws.spec_t[:2], FE
        self.reflect = mirror[:2, :, 0], FE[..., 0], mirror[:2, :, 1:], FE[..., :0:-1]
        self.FE, self.mirror, self.t = tuple(FE), tuple(mirror[:2]), mirror[2]

    def products(self, hg: np.ndarray, out: np.ndarray, speed: bool) -> float | None:
        """``_rhs_arrays`` on the band rows of ``out`` for the packed fields
        ``hg``: one inverse transform puts h and g on the rows j = 0..n/2 of
        ``Workspace.phys`` (x2 index j), whose mirrors are the rows n - j."""
        r = self.rows
        hg = np.multiply(hg[:, :r], self.mask, out=out[:, :r])
        _inverse_into(hg, self.spec2, self.phys2)
        first, first_src, rest, rest_src = self.mirror_rows
        np.copyto(first, first_src)
        np.copyto(rest, rest_src)
        (h, hR), (g, gR) = self.pairs
        vmax = _max_speed(*self.pairs, self.speed_work, mean=True) if speed else None
        a, t, p, q = self.work
        np.multiply(h, hR, out=a)
        a += np.multiply(g, gR, out=t)
        a *= 0.5  # A
        np.subtract(h, g, out=p)
        p *= np.add(h, g, out=t)
        np.subtract(hR, gR, out=q)
        q *= np.add(hR, gR, out=t)
        p -= q
        p *= 0.25  # C
        (s, s_mirror), (e, e_mirror) = self.s, self.e
        a_in, p_in, hR_in, g_in = self.inner
        np.add(a, p, out=s)
        np.subtract(a_in, p_in, out=s_mirror)
        np.multiply(h, gR, out=e)
        np.multiply(hR_in, g_in, out=e_mirror)
        _forward_into(*self.forward)
        first, first_src, rest, rest_src = self.reflect
        np.copyto(first, first_src)
        np.copyto(rest, rest_src)
        (F, E), (mF, mE), t = self.FE, self.mirror, self.t
        _, _, plus, minus, half_curl = _multipliers(self.grid)
        np.multiply(plus, F, out=out[0, :r])
        out[0, :r] += np.multiply(minus, mF, out=t)
        mE += E
        np.multiply(half_curl, mE, out=out[1, :r])
        return vmax


@thread_cache(maxsize=4)
def _packed_plan(grid: GridSpec) -> _PackedPlan:
    """The ``_PackedPlan`` of the grid over the calling thread's transform
    workspace, built on first use."""
    return _PackedPlan(grid)


def _rhs_arrays(
    grid: GridSpec, x: np.ndarray, out: np.ndarray | None = None, speed: bool = False
) -> np.ndarray | float:
    """The dealiased products P(-(d1 A + d2 C), d2 A - d1 C), (d2 E, -d1 E)
    of the half spectra ``x`` of divergence-free (u1, u2, b1, b2), or of
    their leading rows, at least the band rows; the linear part is left to
    the stepper.  Written into ``out`` (a new array when None) in the layout
    of ``x`` and returned; the rows past the band are zero.  ``out`` may be
    ``x``: it holds the dealiased input until the inverse transform has
    read it.  With ``speed``, returns instead the max speed |u| + |b|
    of the dealiased samples.  The field count of ``x`` picks the kernel:
    4 runs the general one, with 4 + 3 field transforms; 2 takes the
    packed fields (h, g) = ``_pack`` of a state in the class and runs the
    packed one, with 2 + 2, which returns the packed tendency, on the
    grid's ``_packed_plan``.  Uses the shared transform workspace.
    """
    if out is None:
        out = np.empty_like(x)
    if len(x) == 2:
        plan = _packed_plan(grid)
        vmax, r = plan.products(x, out, speed), plan.rows
    else:
        vmax, r = _products(grid, x, out, speed), _band_rows(grid)
    out[:, r:] = 0.0
    return vmax if speed else out


def _products(grid: GridSpec, x: np.ndarray, out: np.ndarray, speed: bool) -> float | None:
    """``_rhs_arrays`` on the band rows of ``out`` by the general kernel:
    A, C and E from the samples of u1, u2, b1 and b2."""
    r = _band_rows(grid)
    M, curl = _multipliers(grid)[:2]
    ws = _transform_workspace(grid)
    dealiased = np.multiply(x[:, :r], grid.half.dealias_mask[:r], out=out[:, :r])
    _inverse_into(dealiased, ws.spec_t, ws.phys_t)
    # spec is free until the forward transform: scratch for the speed and
    # for the products
    work = _spec_as_real(grid, (3, grid.n, grid.n))
    U1, U2, B1, B2 = ws.phys
    vmax = _max_speed((U1, U2), (B2, B1), work) if speed else None
    # A, C, E replace U1, U2, B1 in phys; each sample is read before it is
    # overwritten
    u2b1, u2sq, b1sq = work
    np.multiply(U2, B1, out=u2b1)
    np.square(U2, out=u2sq)
    U2 *= U1
    U2 -= np.multiply(B1, B2, out=b1sq)  # C
    np.square(B1, out=b1sq)
    np.multiply(U1, B2, out=B1)
    B1 -= u2b1  # E
    np.square(U1, out=U1)
    U1 -= u2sq
    U1 -= b1sq
    U1 += np.square(B2, out=B2)
    U1 *= 0.5  # A
    # the spectra of the products' band rows go to the real stack
    band = _phys_as_complex(grid, (3, r, grid.n))
    A_hat, C_hat, E_hat = _forward_into(ws.phys_t[:3], ws.spec_t[:3], band)
    t = _leading(ws.spec, (r, grid.n))
    for i in (0, 1):
        np.multiply(M[i, 0], A_hat, out=out[i, :r])
        out[i, :r] += np.multiply(M[i, 1], C_hat, out=t)
    np.multiply(curl, E_hat, out=out[2:, :r])
    return vmax


def _rhs_total_arrays(grid: GridSpec, x: np.ndarray) -> np.ndarray:
    """The products of the total-field form; x holds (u1, u2, B1, B2), so
    they bring in the coupling terms."""
    return _rhs_arrays(grid, x)


def _with_linear(grid: GridSpec, soft: np.ndarray, x: np.ndarray, coupling: bool) -> np.ndarray:
    """dx/dt from the products and the state: adds L x, the coupling
    (d2 b, d2 u) when ``coupling`` and Lap b, to ``soft`` in place."""
    half = grid.half
    if coupling:
        soft[:2] += half.ik2 * x[2:]
        soft[2:] += half.ik2 * x[:2]
    soft[2:] -= half.ksq * x[2:]
    if not np.all(np.isfinite(soft)):
        raise NonFiniteTendency("tendency contains non-finite coefficients")
    return soft


def rhs_perturbation(st: MHDState, nonlinear: bool = True, coupling: bool = True) -> np.ndarray:
    """dx/dt of the perturbation system, diffusion included, as a new array
    in the layout of ``st.x``.

    The ``nonlinear`` and ``coupling`` hooks disable the quadratic products
    and the d2 exchange terms respectively; both are part of the public test
    surface (the linearized limit has a closed-form per-mode solution).
    """
    soft = _rhs_arrays(st.grid, st.x) if nonlinear else np.zeros_like(st.x)
    return _with_linear(st.grid, soft, st.x, coupling)


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
    return _with_linear(st.grid, _rhs_total_arrays(st.grid, x), st.x, coupling=False)


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
