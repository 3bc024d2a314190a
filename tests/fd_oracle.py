"""Finite-difference reference solver for the trajectory cross-validation
in ``test_oracles.py``: centered differences, RK4 and an iterative
(FFT-free) Poisson solve, so it shares no kernel with the spectral path."""

from __future__ import annotations

import numpy as np

from mhd2tor.errors import GridTooLarge, NonFiniteState
from mhd2tor.spectral import GridSpec, fft_coeffs, ifft_samples, resample
from mhd2tor.symmetry import MHDState, state_from_arrays


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
