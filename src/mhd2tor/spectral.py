"""Fourier representation on the torus [-pi, pi]^2.

Conventions
-----------
Fields are expanded as ``f(x) = sum_k fhat_k exp(i k.x)`` over integer
wavevectors ``k in {-n/2, ..., n/2 - 1}^2``, in one of two storage forms:

* State: half spectra of real fields, shape ``(..., n//2+1, n)``, holding
  the rows ``k1 = 0..n/2`` (the Nyquist row ``k1 = -n/2`` last); ``k2``
  keeps its full FFT-ordered axis, so the x2 reflection stays an index
  permutation.  ``MHDState`` holds one stack of four, which the solver,
  the diagnostics and the checkpoint read directly.  Sums over all modes
  weight the stored rows by ``HalfGrid.weight``.
* Public view: full spectra, shape ``(n, n)``, in standard FFT order,
  built on demand (``to_full``/``to_half`` convert).

Every transform is the one real pair ``half_samples``/``half_coeffs``
(``irfft2``/``rfft2`` with ``norm="forward"``, so ``fhat_k`` is the scaled
DFT ``n^-2 sum_ij f(y_ij) exp(-i k.y_ij)``) on the grid anchored at 0,
``y_ij = (2*pi*i/n, 2*pi*j/n)``.  The public collocation grid
``x_ij = (-pi + 2*pi*i/n, -pi + 2*pi*j/n)`` is the same point set shifted
by n/2 points along each axis; ``roll_anchor`` maps samples between the
two, so the offset lives in that one function.  Pointwise products give
the same coefficients on either grid, so the run loop never rolls; the
public transforms ``fft_coeffs``/``ifft_samples`` and the checkpoint do.

Sobolev norms use the full ``(2*pi)^2`` measure, evaluated exactly through
the Fourier multiplier ``mu_m(k) = sum_{|alpha| <= m} k1^(2a1) k2^(2a2)``,
so they match integrals of squared derivatives for band-limited fields.

The Nyquist row/column ``k = -n/2`` carries no sign information and is
zeroed by odd-order derivatives along the corresponding axis.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.fft

from .errors import HermitianViolation, InvalidValue

DOMAIN_HALF_WIDTH = np.pi
MEASURE = (2.0 * np.pi) ** 2
# 2/3 rule: products keep max(|k1|, |k2|) <= DEALIAS_FRACTION * n/2
DEALIAS_FRACTION = 2.0 / 3.0
# largest regularity index s: mu_{2s+2} stays finite in float64 for n <= 16384
MAX_S = 16


@functools.cache
def fft_workers() -> int:
    """Worker count for scipy.fft from the MHD2_THREADS env var, read once.

    Unset or empty means one worker; 0 means one worker per core.

    Raises
    ------
    InvalidValue
        If MHD2_THREADS is not a non-negative integer.
    """
    raw = os.environ.get("MHD2_THREADS", "").strip() or "1"
    if not raw.isdecimal():
        raise InvalidValue(f"MHD2_THREADS = {raw!r}: must be a non-negative integer")
    return int(raw) or os.cpu_count() or 1


class HalfGrid(NamedTuple):
    """GridSpec multipliers on the half-spectrum rows k1 = 0..n/2, and the
    row weights that sum them as the full spectrum: 1 on rows 0 and n/2,
    2 on the rows that also stand for their conjugates."""

    k1: np.ndarray
    k2: np.ndarray
    ksq: np.ndarray
    inv_ksq: np.ndarray
    dealias_mask: np.ndarray
    ik2: np.ndarray
    ik_stack: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid on the fixed torus [-pi, pi]^2.

    Parameters
    ----------
    n : int
        Points per dimension; even, at least 8.
    """

    n: int

    def __post_init__(self):
        if self.n < 8 or self.n % 2 != 0:
            raise ValueError(f"grid size must be an even integer >= 8, got {self.n}")

    @property
    def domain_half_width(self) -> float:
        return DOMAIN_HALF_WIDTH

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @cached_property
    def x1(self) -> np.ndarray:
        """Physical x1 coordinates, shape (n, n), axis 0."""
        pts = -np.pi + 2.0 * np.pi * np.arange(self.n) / self.n
        return np.broadcast_to(pts[:, None], (self.n, self.n)).copy()

    @cached_property
    def x2(self) -> np.ndarray:
        """Physical x2 coordinates, shape (n, n), axis 1."""
        pts = -np.pi + 2.0 * np.pi * np.arange(self.n) / self.n
        return np.broadcast_to(pts[None, :], (self.n, self.n)).copy()

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumbers along axis 0, FFT order, shape (n, n)."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return np.broadcast_to(k[:, None], (self.n, self.n)).copy()

    @cached_property
    def k2(self) -> np.ndarray:
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return np.broadcast_to(k[None, :], (self.n, self.n)).copy()

    @cached_property
    def ksq(self) -> np.ndarray:
        return self.k1**2 + self.k2**2

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1 / |k|^2 with the k = 0 entry set to zero."""
        out = np.zeros_like(self.ksq)
        np.divide(1.0, self.ksq, out=out, where=self.ksq > 0)
        return out

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return np.maximum(np.abs(self.k1), np.abs(self.k2)) <= self.dealias_cutoff

    @cached_property
    def half(self) -> HalfGrid:
        """The multipliers above on the half spectrum (see ``to_half``)."""
        cut = lambda a: np.ascontiguousarray(a[: self.n // 2 + 1])
        weight = np.full((self.n // 2 + 1, 1), 2.0)
        weight[[0, -1]] = 1.0
        k1, k2, ksq, inv_ksq, mask = map(
            cut, (self.k1, self.k2, self.ksq, self.inv_ksq, self.dealias_mask)
        )
        ik = np.stack([cut(derivative_multiplier(self, a)) for a in ((1, 0), (0, 1))])
        return HalfGrid(k1, k2, ksq, inv_ksq, mask, ik[1], ik, weight)

    @property
    def dealias_cutoff(self) -> float:
        return DEALIAS_FRACTION * (self.n / 2)

    def sobolev_multiplier(self, m: int) -> np.ndarray:
        """mu_m(k) = sum over |alpha| <= m of k1^(2a1) k2^(2a2)."""
        if m < 0:
            raise ValueError(f"Sobolev order must be >= 0, got {m}")
        key = ("_mu", m)
        cache = self.__dict__.setdefault("_mu_cache", {})
        if key not in cache:
            k1sq, k2sq = self.k1**2, self.k2**2
            mu = np.zeros_like(k1sq)
            for a1 in range(m + 1):
                for a2 in range(m + 1 - a1):
                    mu += k1sq**a1 * k2sq**a2
            cache[key] = mu
        return cache[key]


@dataclass
class ScalarField:
    """Real scalar samples on the collocation grid, row-major in (i, j)."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples contain non-finite values")


@dataclass
class SpectralScalar:
    """Fourier coefficients of a scalar field, FFT storage order."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match grid n={self.grid.n}"
            )


@dataclass
class VectorField:
    """Two scalar components sharing one grid and one representation."""

    c1: ScalarField | SpectralScalar
    c2: ScalarField | SpectralScalar

    def __post_init__(self):
        if type(self.c1) is not type(self.c2):
            raise ValueError("vector components must share one representation")
        if self.c1.grid is not self.c2.grid and self.c1.grid != self.c2.grid:
            raise ValueError("vector components must share one grid")

    @property
    def grid(self) -> GridSpec:
        return self.c1.grid


# --- raw-array kernels (used by the stepper to avoid wrapper churn) ---------


def fft_coeffs(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Scaled forward DFT of real physical samples; returns FFT-ordered coefficients.

    Accepts stacked inputs of shape (..., n, n); transforms the last two axes.
    """
    return to_full(half_coeffs(grid, roll_anchor(samples)))


def ifft_samples(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Real physical samples of the rows k1 = 0..n/2 of full coefficient arrays.

    Accepts stacked inputs of shape (..., n, n); transforms the last two axes.
    Rows k1 < 0 are not read: they are taken as the conjugate mirror.
    """
    return roll_anchor(half_samples(grid, to_half(coeffs)))


def half_samples(grid: GridSpec, half: np.ndarray) -> np.ndarray:
    """Real samples of stacked half spectra (..., n//2+1, n) on the grid anchored at 0.

    Sample (i, j) is the field at (2*pi*i/n, 2*pi*j/n); with ``half_coeffs``
    this is the solver-internal transform pair (no phase, no scaling).
    """
    n = grid.n
    return scipy.fft.irfft2(
        half, s=(n, n), axes=(-1, -2), norm="forward", workers=fft_workers()
    )


def half_coeffs(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Half spectra (..., n//2+1, n) of real samples on the grid anchored at 0."""
    return scipy.fft.rfft2(samples, axes=(-1, -2), norm="forward", workers=fft_workers())


def roll_anchor(samples: np.ndarray) -> np.ndarray:
    """Samples (..., n, n) moved between the grid anchored at 0 and the grid
    anchored at -pi: a roll by n/2 points on both axes, its own inverse."""
    h = samples.shape[-1] // 2
    return np.roll(samples, (h, h), axis=(-2, -1))


def to_half(coeffs: np.ndarray) -> np.ndarray:
    """The stored rows k1 = 0..n/2 of full spectra (..., n, n), as a view."""
    return coeffs[..., : coeffs.shape[-1] // 2 + 1, :]


def to_full(half: np.ndarray) -> np.ndarray:
    """Full spectra (..., n, n) of real fields from their half spectra.

    Rows n/2+1..n-1 (k1 < 0) are the conjugates of rows n/2-1..1 with k2
    negated; rows 0 and n/2 keep their stored values.
    """
    n = half.shape[-1]
    full = np.empty(half.shape[:-2] + (n, n), dtype=np.complex128)
    full[..., : n // 2 + 1, :] = half
    neg = (-np.arange(n)) % n
    np.conjugate(half[..., n // 2 - 1 : 0 : -1, neg], out=full[..., n // 2 + 1 :, :])
    return full


def derivative_multiplier(grid: GridSpec, alpha: tuple[int, int]) -> np.ndarray:
    """(i k1)^a1 (i k2)^a2 with the Nyquist mode zeroed for odd axis orders."""
    a1, a2 = alpha
    if a1 < 0 or a2 < 0:
        raise ValueError(f"multi-index must be nonnegative, got {alpha}")
    nyq = -grid.n // 2
    k1 = np.where(grid.k1 == nyq, 0.0, grid.k1) if a1 % 2 else grid.k1
    k2 = np.where(grid.k2 == nyq, 0.0, grid.k2) if a2 % 2 else grid.k2
    return (1j * k1) ** a1 * (1j * k2) ** a2


def project_divergence_free(
    grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leray projection per mode: v -> v - k (k.v) / |k|^2; k = 0 untouched.

    Pass ``grid.half`` for half spectra.
    """
    factor = (grid.k1 * v1 + grid.k2 * v2) * grid.inv_ksq
    return v1 - grid.k1 * factor, v2 - grid.k2 * factor


def project_pairs(grid: GridSpec | HalfGrid, x: np.ndarray) -> np.ndarray:
    """Leray-project (x[0], x[1]) and (x[2], x[3]) and zero k = 0, in place."""
    for i in (0, 2):
        x[i], x[i + 1] = project_divergence_free(grid, x[i], x[i + 1])
    x[..., 0, 0] = 0.0
    return x


def divergence_defect(grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray) -> float:
    """Max-abs spectral divergence, relative to the field's gradient magnitude.

    Pass ``grid.half`` for half spectra.  A stored mode's conjugate mirror
    has the same magnitudes, except on the Nyquist column k2 = -n/2, which
    the mirror keeps: there it also takes |k1 v1 - k2 v2| (rows 1..n/2-1).
    """
    div = np.max(np.abs(grid.k1 * v1 + grid.k2 * v2))
    if isinstance(grid, HalfGrid):
        c = (slice(1, -1), v1.shape[-1] // 2)
        div = max(div, np.max(np.abs(grid.k1[c] * v1[c] - grid.k2[c] * v2[c])))
    scale = np.max(np.sqrt(grid.ksq) * np.sqrt(np.abs(v1) ** 2 + np.abs(v2) ** 2))
    if scale == 0.0:
        return 0.0
    return float(div / scale)


# --- public operations -------------------------------------------------------


def forward_transform(f: ScalarField) -> SpectralScalar:
    """Transform physical samples to Fourier coefficients."""
    return SpectralScalar(f.grid, fft_coeffs(f.grid, f.samples))


def inverse_transform(g: SpectralScalar, imag_tol: float = 1e-10) -> ScalarField:
    """Transform coefficients to real samples.

    The coefficients c split into a Hermitian part (c + m)/2 and an
    anti-Hermitian part over i, (c - m)/2i, with m_k = conj(c_-k); the
    samples of the two are the real and the imaginary part of the field.

    Raises
    ------
    HermitianViolation
        If the imaginary residue exceeds ``imag_tol`` relative to the field
        magnitude (the coefficients do not represent a real field).
    """
    c = g.coeffs
    neg = (-np.arange(g.grid.n)) % g.grid.n
    m = np.conj(c[np.ix_(neg, neg)])
    re, im = ifft_samples(g.grid, np.stack([c + m, (c - m) / 1j]) * 0.5)
    scale = np.max(np.hypot(re, im))
    residue = np.max(np.abs(im))
    if scale > 0 and residue > imag_tol * scale:
        raise HermitianViolation(
            f"imaginary residue {residue:.3e} exceeds {imag_tol:.1e} of magnitude {scale:.3e}"
        )
    return ScalarField(g.grid, re)


def partial_derivative(g: SpectralScalar, alpha: tuple[int, int]) -> SpectralScalar:
    """Multi-index derivative d1^a1 d2^a2 applied in coefficient space."""
    return SpectralScalar(g.grid, g.coeffs * derivative_multiplier(g.grid, alpha))


def dealias(g: SpectralScalar) -> SpectralScalar:
    """Sharp cutoff: zero coefficients with max(|k1|, |k2|) beyond the rule."""
    return SpectralScalar(g.grid, g.coeffs * g.grid.dealias_mask)


def _coeff_arrays(v) -> tuple[GridSpec, list[np.ndarray]]:
    """Spectral coefficient arrays of a scalar or vector in any representation."""
    if isinstance(v, VectorField):
        comps = [v.c1, v.c2]
    else:
        comps = [v]
    grid = comps[0].grid
    out = []
    for c in comps:
        if isinstance(c, ScalarField):
            out.append(fft_coeffs(grid, c.samples))
        else:
            out.append(c.coeffs)
    return grid, out


def sobolev_norm(v, m: int) -> float:
    """H^m norm: sqrt((2*pi)^2 * sum_k mu_m(k) * sum_components |fhat_k|^2)."""
    grid, arrays = _coeff_arrays(v)
    mu = grid.sobolev_multiplier(m)
    total = 0.0
    for c in arrays:
        total += float(np.sum(mu * (c.real**2 + c.imag**2)))
    return float(np.sqrt(MEASURE * total))


def leray_project(v: VectorField) -> VectorField:
    """L^2-orthogonal projection onto divergence-free fields (spectral input)."""
    if not isinstance(v.c1, SpectralScalar):
        raise TypeError("leray_project expects a spectral VectorField")
    grid = v.grid
    p1, p2 = project_divergence_free(grid, v.c1.coeffs, v.c2.coeffs)
    return VectorField(SpectralScalar(grid, p1), SpectralScalar(grid, p2))


def vorticity(u: VectorField) -> ScalarField:
    """omega = d1 u2 - d2 u1 as a physical field."""
    return inverse_transform(vorticity_spectral(u))


def vorticity_spectral(u: VectorField) -> SpectralScalar:
    grid, (u1, u2) = _coeff_arrays(u)
    w = derivative_multiplier(grid, (1, 0)) * u2 - derivative_multiplier(grid, (0, 1)) * u1
    return SpectralScalar(grid, w)


def mean(f: ScalarField | SpectralScalar) -> float:
    """Integral of f over the torus, (2*pi)^2 times the zero mode."""
    if isinstance(f, ScalarField):
        return float(MEASURE * np.mean(f.samples))
    return float(MEASURE * f.coeffs[0, 0].real)


def resample(g: SpectralScalar, new_grid: GridSpec) -> SpectralScalar:
    """Spectral truncation / zero-padding onto another grid (exact for band-limited)."""
    n_old, n_new = g.grid.n, new_grid.n
    out = np.zeros((n_new, n_new), dtype=np.complex128)
    half = min(n_old, n_new) // 2
    idx_old = np.fft.fftfreq(n_old, 1.0 / n_old).astype(int)
    idx_new = np.fft.fftfreq(n_new, 1.0 / n_new).astype(int)
    sel_old = np.abs(idx_old) < half
    sel_new = np.abs(idx_new) < half
    order_old = np.argsort(idx_old[sel_old])
    order_new = np.argsort(idx_new[sel_new])
    rows_old = np.where(sel_old)[0][order_old]
    rows_new = np.where(sel_new)[0][order_new]
    out[np.ix_(rows_new, rows_new)] = g.coeffs[np.ix_(rows_old, rows_old)]
    return SpectralScalar(new_grid, out)
