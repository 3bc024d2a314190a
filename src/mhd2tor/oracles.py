"""Slow, independent reference implementations.

These deliberately avoid the fast spectral kernels: transforms are direct
O(n^4) summations and the per-mode linear solution is a hand-written 2x2
matrix exponential.  Not for production use; their only job is to disagree
with the fast path when the fast path is wrong.
"""

from __future__ import annotations

import numpy as np

from .errors import GridTooLarge, ZeroWavevector
from .spectral import ScalarField


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
