"""Slow, independent reference implementations.

These deliberately avoid the fast spectral kernels: transforms are direct
O(n^4) summations, the per-mode linear solution is a hand-written 2x2
matrix exponential, and the cross-validation solver uses centered finite
differences with an iterative (FFT-free) Poisson solve.  Not for
production use; their only job is to disagree with the fast path when the
fast path is wrong.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooLarge, NonFiniteState, ZeroWavevector
from .spectral import GridSpec, ScalarField, fft_coeffs, ifft_samples, resample
from .symmetry import MHDState, state_from_arrays


def dft_coefficients(f: ScalarField) -> np.ndarray:
    """Direct-sum Fourier coefficients, centered order: out[k1+n/2, k2+n/2].

    O(n^4); restricted to n <= 32.
    """
    n = f.grid.n
    if n > 32:
        raise GridTooLarge(f"direct DFT oracle supports n <= 32, got {n}")
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    out = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(-n // 2, n // 2):
        e1 = np.exp(-1j * k1 * x)
        for k2 in range(-n // 2, n // 2):
            e2 = np.exp(-1j * k2 * x)
            out[k1 + n // 2, k2 + n // 2] = np.sum(
                f.samples * e1[:, None] * e2[None, :]
            ) / n**2
    return out


def dft_derivative(f: ScalarField, alpha: tuple[int, int]) -> ScalarField:
    """Direct-summation spectral derivative (same Nyquist convention as the
    fast path: the k = -n/2 mode is zeroed for odd orders along that axis)."""
    n = f.grid.n
    a1, a2 = alpha
    if a1 < 0 or a2 < 0:
        raise ValueError(f"multi-index must be nonnegative, got {alpha}")
    coeffs = dft_coefficients(f)
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    out = np.zeros((n, n), dtype=np.complex128)
    for k1 in range(-n // 2, n // 2):
        m1 = 0.0 if (k1 == -n // 2 and a1 % 2 == 1) else k1
        e1 = np.exp(1j * k1 * x)
        for k2 in range(-n // 2, n // 2):
            m2 = 0.0 if (k2 == -n // 2 and a2 % 2 == 1) else k2
            c = coeffs[k1 + n // 2, k2 + n // 2]
            c = c * (1j * m1) ** a1 * (1j * m2) ** a2
            out += c * e1[:, None] * np.exp(1j * k2 * x)[None, :]
    return ScalarField(f.grid, out.real)


def linearized_mode_solution(
    k: tuple[int, int], a0: complex, c0: complex, t: float
) -> tuple[complex, complex]:
    """Closed-form solution of the per-mode linearized system.

    For divergence-free u and b, the amplitudes (a, c) along the unit vector
    perpendicular to k satisfy a' = i k2 c, c' = -|k|^2 c + i k2 a.  The 2x2
    matrix exponential is evaluated via its eigenvalues
    lambda_pm = (-|k|^2 pm sqrt(|k|^4 - 4 k2^2)) / 2, falling back to the
    Jordan formula exp(lambda t) (I + t (M - lambda I)) in the defective
    case |k|^4 = 4 k2^2 (hit at k = (0, 2), for example).
    """
    k1, k2 = k
    ksq = float(k1 * k1 + k2 * k2)
    if ksq == 0.0:
        raise ZeroWavevector("per-mode solution undefined at k = 0")
    M = np.array([[0.0, 1j * k2], [1j * k2, -ksq]], dtype=np.complex128)
    y0 = np.array([a0, c0], dtype=np.complex128)
    disc = ksq * ksq - 4.0 * k2 * k2
    sq = np.sqrt(complex(disc))
    eye = np.eye(2)
    if abs(sq) < 1e-9:
        lam = -ksq / 2.0
        expm = np.exp(lam * t) * (eye + t * (M - lam * eye))
    else:
        lam_p = (-ksq + sq) / 2.0
        lam_m = (-ksq - sq) / 2.0
        expm = (
            np.exp(lam_p * t) * (M - lam_m * eye)
            - np.exp(lam_m * t) * (M - lam_p * eye)
        ) / (lam_p - lam_m)
    y = expm @ y0
    return complex(y[0]), complex(y[1])


# --- finite-difference reference solver --------------------------------------


def _d1(f: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * dx)


def _d2(f: np.ndarray, dx: float) -> np.ndarray:
    return (np.roll(f, -1, axis=1) - np.roll(f, 1, axis=1)) / (2.0 * dx)


def _lap(f: np.ndarray, dx: float) -> np.ndarray:
    return (
        np.roll(f, -1, axis=0)
        + np.roll(f, 1, axis=0)
        + np.roll(f, -1, axis=1)
        + np.roll(f, 1, axis=1)
        - 4.0 * f
    ) / dx**2


def _poisson_cg(rhs: np.ndarray, dx: float, tol: float = 1e-10) -> np.ndarray:
    """Solve -lap_h p = rhs by conjugate gradients on the mean-zero subspace."""
    rhs = rhs - np.mean(rhs)
    p = np.zeros_like(rhs)
    r = rhs.copy()
    d = r.copy()
    rs = np.sum(r * r)
    scale = max(np.sqrt(np.sum(rhs * rhs)), 1e-300)
    for _ in range(10 * rhs.size):
        if np.sqrt(rs) <= tol * scale:
            break
        Ad = -_lap(d, dx)
        alpha = rs / np.sum(d * Ad)
        p += alpha * d
        r -= alpha * Ad
        rs_new = np.sum(r * r)
        d = r + (rs_new / rs) * d
        rs = rs_new
    return p - np.mean(p)


def fd_run(
    st0: MHDState,
    t_end: float,
    n_fd: int,
    dt: float,
    nonlinear: bool = True,
    coupling: bool = True,
) -> MHDState:
    """Integrate the perturbation system with centered differences and RK4.

    Second-order in space; used only for trajectory cross-validation against
    the spectral path.  Restricted to n_fd <= 64.
    """
    if n_fd > 64:
        raise GridTooLarge(f"FD oracle supports n_fd <= 64, got {n_fd}")
    grid = GridSpec(n_fd)
    dx = grid.spacing
    fields = [
        ifft_samples(grid, resample(c, grid).coeffs)
        for c in (st0.u.c1, st0.u.c2, st0.b.c1, st0.b.c2)
    ]

    def rhs(y):
        u1, u2, b1, b2 = y
        if nonlinear:
            conv1 = u1 * _d1(u1, dx) + u2 * _d2(u1, dx)
            conv2 = u1 * _d1(u2, dx) + u2 * _d2(u2, dx)
            mag1 = b1 * _d1(b1, dx) + b2 * _d2(b1, dx)
            mag2 = b1 * _d1(b2, dx) + b2 * _d2(b2, dx)
            adv_b1 = u1 * _d1(b1, dx) + u2 * _d2(b1, dx)
            adv_b2 = u1 * _d1(b2, dx) + u2 * _d2(b2, dx)
            str1 = b1 * _d1(u1, dx) + b2 * _d2(u1, dx)
            str2 = b1 * _d1(u2, dx) + b2 * _d2(u2, dx)
        else:
            conv1 = conv2 = mag1 = mag2 = np.zeros_like(u1)
            adv_b1 = adv_b2 = str1 = str2 = np.zeros_like(u1)
        zero = np.zeros_like(u1)
        cpl_u1 = _d2(b1, dx) if coupling else zero
        cpl_u2 = _d2(b2, dx) if coupling else zero
        cpl_b1 = _d2(u1, dx) if coupling else zero
        cpl_b2 = _d2(u2, dx) if coupling else zero
        g1 = conv1 - mag1 - cpl_u1
        g2 = conv2 - mag2 - cpl_u2
        p = _poisson_cg(_d1(g1, dx) + _d2(g2, dx), dx)
        du1 = -g1 - _d1(p, dx)
        du2 = -g2 - _d2(p, dx)
        db1 = -adv_b1 + str1 + cpl_b1 + _lap(b1, dx)
        db2 = -adv_b2 + str2 + cpl_b2 + _lap(b2, dx)
        return [du1, du2, db1, db2]

    n_steps = int(round(t_end / dt))
    y = fields
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs([a + 0.5 * dt * b for a, b in zip(y, k1)])
        k3 = rhs([a + 0.5 * dt * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
        y = [
            a + (dt / 6.0) * (b + 2.0 * (c + d) + e)
            for a, b, c, d, e in zip(y, k1, k2, k3, k4)
        ]
        if not all(np.all(np.isfinite(a)) for a in y):
            raise NonFiniteState("finite-difference trajectory became non-finite")

    coeffs = [fft_coeffs(grid, a) for a in y]
    return state_from_arrays(grid, st0.t + n_steps * dt, *coeffs)
