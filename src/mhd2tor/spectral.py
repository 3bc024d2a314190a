"""Fourier representation on the torus [-pi, pi]^2 (README, Numerics).

Fields are ``f(x) = sum_k fhat_k exp(i k.x)`` over integer wavevectors
``k in {-n/2, ..., n/2 - 1}^2``, stored in one of two forms:

* State: half spectra of real fields, shape ``(..., n//2+1, n)``, the rows
  ``k1 = 0..n/2`` (the Nyquist row last) over the full FFT-ordered ``k2``
  axis.  Sums over all modes weight the rows by ``HalfGrid.weight``.
* Public view: full spectra, shape ``(n, n)``, in FFT order, built on
  demand (``to_full``/``to_half``).

``half_samples``/``half_coeffs`` are the one transform pair, with
``norm="forward"``, on the grid anchored at 0, ``y_ij = (2*pi*i/n,
2*pi*j/n)``.  The public grid ``x_ij = y_ij - (pi, pi)`` is the same points
rolled by n/2 along each axis (``roll_anchor``).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import HermitianViolation, require

MEASURE = (2.0 * np.pi) ** 2
# 2/3 rule: products keep max(|k1|, |k2|) <= DEALIAS_FRACTION * n/2
DEALIAS_FRACTION = 2.0 / 3.0
# largest grid size: GridSpec refuses a larger n and a checkpoint header
# that names one is corrupt
MAX_N = 16384
# largest regularity index s: mu_{2s+2} stays finite in float64 for n <= MAX_N
MAX_S = 16


def require_s(s: int) -> None:
    """The rule on the regularity index s, for every type that takes one."""
    constraint = f"must be an integer in [2, {MAX_S}] (small-data theory needs s >= 2)"
    require(2 <= s <= MAX_S, "s", s, constraint)


def _n_allowed(n: int) -> bool:
    """The rule on the grid size n, for ``GridSpec`` and the checkpoint
    header: even and in [8, MAX_N]."""
    return 8 <= n <= MAX_N and n % 2 == 0


def thread_cache(maxsize: int):
    """``functools.lru_cache`` keyed by the calling thread as well as the
    arguments, for functions that return buffers their caller writes: each
    thread gets its own.  ``cache_info`` and ``cache_clear`` are the
    cache's."""

    def wrap(fn):
        cached = functools.lru_cache(maxsize)(lambda thread, *args: fn(*args))

        @functools.wraps(fn)
        def call(*args):
            return cached(threading.get_ident(), *args)

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return wrap


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
        Points per dimension; even, in [8, MAX_N] (``_n_allowed``).
    """

    n: int

    def __post_init__(self):
        require(_n_allowed(self.n), "n", self.n, f"must be an even integer in [8, {MAX_N}]")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @cached_property
    def x1(self) -> np.ndarray:
        """Physical x1 coordinates, shape (n, n), axis 0."""
        return self.x2.T.copy()

    @cached_property
    def x2(self) -> np.ndarray:
        """Physical x2 coordinates, shape (n, n), axis 1."""
        pts = -np.pi + 2.0 * np.pi * np.arange(self.n) / self.n
        return np.broadcast_to(pts[None, :], (self.n, self.n)).copy()

    @cached_property
    def k1(self) -> np.ndarray:
        """Integer wavenumbers along axis 0, FFT order, shape (n, n)."""
        return np.concatenate([self.half.k1, -self.half.k1[-2:0:-1]])

    @cached_property
    def k2(self) -> np.ndarray:
        return _mirror_rows(self.half.k2)

    @cached_property
    def ksq(self) -> np.ndarray:
        return _mirror_rows(self.half.ksq)

    @cached_property
    def inv_ksq(self) -> np.ndarray:
        """1 / |k|^2 with the k = 0 entry set to zero."""
        return _mirror_rows(self.half.inv_ksq)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return _mirror_rows(self.half.dealias_mask)

    @cached_property
    def half(self) -> HalfGrid:
        """The wavenumber multipliers on the stored rows k1 = 0..n/2 (see
        ``to_half``); the full-grid arrays above mirror these rows."""
        n = self.n
        k = np.fft.fftfreq(n, d=1.0 / n)
        k1, k2 = np.meshgrid(k[: n // 2 + 1], k, indexing="ij")
        ksq = k1**2 + k2**2
        inv_ksq = np.zeros_like(ksq)
        np.divide(1.0, ksq, out=inv_ksq, where=ksq > 0)
        mask = np.maximum(np.abs(k1), np.abs(k2)) <= self.dealias_cutoff
        weight = np.full((n // 2 + 1, 1), 2.0)
        weight[[0, -1]] = 1.0
        half = HalfGrid(k1, k2, ksq, inv_ksq, mask, None, None, weight)
        ik = np.stack([derivative_multiplier(half, a) for a in ((1, 0), (0, 1))])
        return half._replace(ik2=ik[1], ik_stack=ik)

    @property
    def dealias_cutoff(self) -> float:
        return DEALIAS_FRACTION * (self.n / 2)

    def sobolev_multiplier(self, m: int) -> np.ndarray:
        """mu_m(k) = sum over |alpha| <= m of k1^(2a1) k2^(2a2), shape (n, n)."""
        return _mirror_rows(half_sobolev_multiplier(self, m))


def _mirror_rows(rows: np.ndarray) -> np.ndarray:
    """The full (n, n) array of a multiplier even in k1 from its rows
    k1 = 0..n/2: row n - r repeats row r."""
    return np.concatenate([rows, rows[-2:0:-1]])


@functools.lru_cache(maxsize=32)
def half_sobolev_multiplier(grid: GridSpec, m: int) -> np.ndarray:
    """mu_m (see ``GridSpec.sobolev_multiplier``) on the rows k1 = 0..n/2."""
    if m < 0:
        raise ValueError(f"Sobolev order must be >= 0, got {m}")
    half = grid.half
    k1sq, k2sq = half.k1**2, half.k2**2
    mu = np.zeros_like(k1sq)
    for a1 in range(m + 1):
        for a2 in range(m + 1 - a1):
            mu += k1sq**a1 * k2sq**a2
    return mu


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
    Returns a new array and leaves ``half`` as it is.
    """
    half = np.asarray(half)
    lead = half.shape[:-2]
    spec = np.empty(lead + (grid.n // 2 + 1, grid.n), dtype=np.complex128)
    return _inverse_into(half, spec, np.empty(lead + (grid.n, grid.n)))


def half_coeffs(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Half spectra (..., n//2+1, n) of real samples on the grid anchored at 0."""
    samples = np.asarray(samples)
    out = np.empty(samples.shape[:-2] + (grid.n // 2 + 1, grid.n), dtype=np.complex128)
    return _forward_into(samples, out, out)


def _inverse_into(half: np.ndarray, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Samples of the half spectra whose leading rows are ``half`` (..., m, n),
    the rows k1 >= m taken as zero, written into ``out`` (..., n, n) and
    returned; ``spec`` (..., n//2+1, n), complex, is scratch.  Views work,
    so the buffers may be stored transposed (``Workspace``).
    ``numpy.fft.irfft2(out=)`` is not used: on numpy 2.4 it returns wrong
    samples."""
    m = half.shape[-2]
    np.fft.ifft(half, axis=-1, norm="forward", out=spec[..., :m, :])
    spec[..., m:, :] = 0.0
    return np.fft.irfft(spec, n=out.shape[-2], axis=-2, norm="forward", out=out)


def _forward_into(samples: np.ndarray, spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The leading rows k1 < m of the half spectra of the real ``samples``
    (..., n, n), written into ``out`` (..., m, n) and returned; ``spec``
    (..., n//2+1, n), complex, is scratch and may be ``out``."""
    np.fft.rfft(samples, axis=-2, norm="forward", out=spec)
    return np.fft.fft(spec[..., : out.shape[-2], :], axis=-1, norm="forward", out=out)


def _content_rows(x: np.ndarray, least: int = 0) -> int:
    """The least m >= max(1, ``least``) such that every row k1 >= m of the
    stacked half spectra ``x`` is zero bit for bit (+0.0; a -0.0 counts as
    content).  Rows past m hold no information, so a caller may work on
    ``x[:, :m]`` and take the rest as zero.  The last row is looked at
    first: a state read from a checkpoint has content there."""
    bits = x.view(np.int64)
    if bits[:, -1].any():
        return x.shape[-2]
    tail = np.flatnonzero(bits[:, least:].any(axis=(0, 2)))
    return max(1, least + (int(tail[-1]) + 1 if tail.size else 0))


def _leading(buf: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous array of ``shape`` over the first elements of the
    contiguous ``buf``."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


class Workspace(NamedTuple):
    """The transform buffers of one grid, stored transposed: complex
    ``spec`` (4, n, n//2+1) and real ``phys`` (4, n, n).  ``spec_t`` and
    ``phys_t`` are the same memory indexed (k1, k2) and (i, j), the layout
    of ``half_samples``: ``phys[f, j, i]`` is field f at (y_i, y_j)."""

    spec: np.ndarray
    phys: np.ndarray
    spec_t: np.ndarray
    phys_t: np.ndarray


@thread_cache(maxsize=4)
def _transform_workspace(grid: GridSpec) -> Workspace:
    """The ``Workspace`` of the grid and the calling thread, used by the
    right-hand side (and so by ``cfl_dt``), the class test (and so by
    ``read_checkpoint``), ``symmetry_defect``, the squares and the
    divergence scratch of ``instantaneous`` and the samples of
    ``write_checkpoint`` and ``physical_arrays``.  Not reentrant: a caller
    owns its contents only until its next call into one of those on its
    thread."""
    n = grid.n
    spec = np.empty((4, n, n // 2 + 1), dtype=np.complex128)
    phys = np.empty((4, n, n))
    return Workspace(spec, phys, spec.transpose(0, 2, 1), phys.transpose(0, 2, 1))


def _spec_as_real(grid: GridSpec, shape: tuple[int, ...]) -> np.ndarray:
    """A real array of ``shape`` laid over the complex stack of the
    ``_transform_workspace``, whose 4 (n/2+1) n complex values hold four
    real (n, n) arrays: scratch while that stack holds nothing a caller
    still needs."""
    return _leading(_transform_workspace(grid).spec.view(np.float64), shape)


def _phys_as_complex(grid: GridSpec, shape: tuple[int, ...]) -> np.ndarray:
    """A complex array of ``shape`` laid over the real stack of the
    ``_transform_workspace`` (room for 2 n^2 complex values): scratch while
    that stack holds nothing a caller still needs."""
    return _leading(_transform_workspace(grid).phys.view(np.complex128), shape)


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


def derivative_multiplier(grid: GridSpec | HalfGrid, alpha: tuple[int, int]) -> np.ndarray:
    """(i k1)^a1 (i k2)^a2 with the Nyquist mode zeroed for odd axis orders.

    Pass ``grid.half`` for half spectra.
    """
    a1, a2 = alpha
    if a1 < 0 or a2 < 0:
        raise ValueError(f"multi-index must be nonnegative, got {alpha}")
    nyq = -(grid.k2.shape[-1] // 2)
    k1 = np.where(grid.k1 == nyq, 0.0, grid.k1) if a1 % 2 else grid.k1
    k2 = np.where(grid.k2 == nyq, 0.0, grid.k2) if a2 % 2 else grid.k2
    return (1j * k1) ** a1 * (1j * k2) ** a2


def _project_in_place(
    grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray, work: np.ndarray
) -> None:
    """v -> v - k (k.v) / |k|^2 per mode, in place; ``work`` holds two
    complex arrays of the shape of ``v1`` as scratch."""
    factor, t = work
    np.multiply(grid.k1, v1, out=factor)
    factor += np.multiply(grid.k2, v2, out=t)
    factor *= grid.inv_ksq
    v1 -= np.multiply(grid.k1, factor, out=t)
    v2 -= np.multiply(grid.k2, factor, out=t)


def project_divergence_free(
    grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leray projection per mode: v -> v - k (k.v) / |k|^2; k = 0 untouched.

    Pass ``grid.half`` for half spectra.  Returns new arrays.
    """
    p = np.array([v1, v2], dtype=np.complex128)
    _project_in_place(grid, p[0], p[1], np.empty_like(p))
    return p[0], p[1]


def divergence_defect(grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray) -> float:
    """Max-abs spectral divergence, relative to the field's gradient magnitude.

    Pass ``grid.half`` for half spectra, or their leading rows k1 < m when
    the others are zero (a max over those changes nothing).  A stored
    mode's conjugate mirror has the same magnitudes, except on the Nyquist
    column k2 = -n/2, which the mirror keeps: there it also takes
    |k1 v1 - k2 v2| (rows 1..min(m, n/2)-1).
    """
    return _divergence_defect_in(grid, v1, v2, np.empty((2,) + np.shape(v1), np.complex128))


def _divergence_defect_in(
    grid: GridSpec | HalfGrid, v1: np.ndarray, v2: np.ndarray, work: np.ndarray
) -> float:
    """``divergence_defect``, bit for bit, with its (m, n) temporaries in
    ``work``, complex scratch of shape ``(2,) + v1.shape``."""
    m, n = v1.shape[-2:]
    k1, k2, ksq = grid.k1[:m], grid.k2[:m], grid.ksq[:m]
    d, t = work
    np.multiply(k1, v1, out=d)
    d += np.multiply(k2, v2, out=t)
    div = np.max(np.abs(d, out=_leading(t.view(np.float64), (m, n))))
    if isinstance(grid, HalfGrid) and m > 1:
        c = (slice(1, min(m, n // 2)), n // 2)
        div = max(div, np.max(np.abs(k1[c] * v1[c] - k2[c] * v2[c])))
    s, q = _leading(work.view(np.float64), (2, m, n))
    np.square(np.abs(v1, out=s), out=s)
    s += np.square(np.abs(v2, out=q), out=q)
    scale = np.max(np.multiply(np.sqrt(ksq, out=q), np.sqrt(s, out=s), out=q))
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
    h = min(g.grid.n, new_grid.n) // 2
    keep = np.r_[0:h, 1 - h : 0]  # |k| < h, the smaller grid's Nyquist mode dropped
    out = np.zeros((new_grid.n, new_grid.n), dtype=np.complex128)
    out[np.ix_(keep, keep)] = g.coeffs[np.ix_(keep, keep)]
    return SpectralScalar(new_grid, out)
