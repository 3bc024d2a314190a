"""MHD states, the x2-reflection symmetry class and the seeded initial data.

A state holds the perturbation (u, b), B = b + e2, as one stacked half
spectrum of (u1, u2, b1, b2) (``spectral``).  The class fixes the parities
under x2 -> -x2: u1 and b2 even, u2 and b1 odd.  The grid is closed under
the reflection, so it is the exact permutation k2 -> -k2 of the coefficients.
A state in the class is held by its packed fields (u1 + u2, b1 + b2)
(``_pack``), from which ``_unpack`` restores it with its parities exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrum, NonFiniteState, require, require_finite
from .spectral import (
    MEASURE,
    GridSpec,
    SpectralScalar,
    VectorField,
    _content_rows,
    _inverse_into,
    _leading,
    _phys_as_complex,
    _project_in_place,
    _transform_workspace,
    divergence_defect,
    half_sobolev_multiplier,
    require_s,
    to_full,
    to_half,
)
from .spectral import ifft_samples  # noqa: F401  traced by name in bench/spans.py

# Parity under x2 reflection, per component.  Data only, so diagnostics can
# name which component violated which parity.
PARITY = {"u1": +1, "u2": -1, "b1": -1, "b2": +1}
# the same signs for a stack (u1, u2, b1, b2) of spectra, broadcasting
_STACK_PARITY = np.array([PARITY[c] for c in ("u1", "u2", "b1", "b2")], dtype=float)[:, None, None]


def _in_class(grid: GridSpec, x: np.ndarray) -> bool:
    """Whether the stack (u1, u2, b1, b2) ``x`` (4, m, n) is in the class
    by value: column n - j of each field equals its parity times column j.
    ``x`` holds half spectra, or their leading rows, or real samples
    (4, n, n) on either grid, since the permutation j -> n - j of the last
    axis is the x2-mirror of both.  A -0.0 counts as zero; a NaN or inf
    counts as out of class.  Copies the columns j = 0..n/2 and their
    mirrors into the shared transform workspace, viewed in the dtype of
    ``x``, and compares them there, allocating nothing."""
    m, n = x.shape[1:]
    h = n // 2
    ws = _transform_workspace(grid)
    cols = _leading(ws.phys.view(x.dtype), (4, m, h + 1))
    mirror = _leading(ws.spec.view(x.dtype), (4, m, h + 1))
    cols[:] = x[..., : h + 1]
    mirror[..., 0] = x[..., 0]
    mirror[..., 1:] = x[..., : h - 1 : -1]  # column j takes column n - j
    with np.errstate(invalid="ignore", over="ignore"):
        for c, r, parity in zip(cols, mirror, _STACK_PARITY.flat):
            (np.subtract if parity > 0 else np.add)(c, r, out=c)
    return not cols.any()


@dataclass
class MHDState:
    """Velocity / magnetic-perturbation pair at one time; ``x`` stacks the
    half spectra of (u1, u2, b1, b2), shape (4, n//2+1, n)."""

    grid: GridSpec
    t: float
    x: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.complex128)
        shape = (4, self.grid.n // 2 + 1, self.grid.n)
        if self.x.shape != shape:
            raise ValueError(f"state shape {self.x.shape} does not match {shape}")

    def coeff_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Full spectra (u1, u2, b1, b2), built on demand."""
        return tuple(to_full(self.x))

    def _vector(self, i: int) -> VectorField:
        c1, c2 = to_full(self.x[i : i + 2])
        return VectorField(SpectralScalar(self.grid, c1), SpectralScalar(self.grid, c2))

    @property
    def u(self) -> VectorField:
        return self._vector(0)

    @property
    def b(self) -> VectorField:
        return self._vector(2)


def state_from_arrays(grid: GridSpec, t: float, u1, u2, b1, b2) -> MHDState:
    """State from the full spectra of real fields (rows k1 < 0 are dropped)."""
    return MHDState(grid, t, np.stack([to_half(c) for c in (u1, u2, b1, b2)]))


@dataclass(frozen=True)
class InitialDataSpec:
    """Parameters of the seeded random small-data family.

    epsilon is the total norm budget ||u0||_{H^{2s+1}} + ||grad b0||_{H^{2s}},
    split evenly between the two terms.  Construction raises InvalidValue
    for a field outside its rule; ``max_wavenumber`` is checked against a
    grid by ``require_resolved``.
    """

    epsilon: float
    s: int
    seed: int
    spectrum_decay: float = 3.0
    max_wavenumber: int = 4

    def __post_init__(self):
        require_finite(epsilon=self.epsilon, spectrum_decay=self.spectrum_decay)
        require_s(self.s)
        require(self.seed >= 0, "seed", self.seed, "must be >= 0")
        require(self.epsilon >= 0, "epsilon", self.epsilon, "must be >= 0")
        require(self.spectrum_decay > 0, "spectrum_decay", self.spectrum_decay, "must be > 0")

    def require_resolved(self, grid: GridSpec) -> None:
        """InvalidValue unless 1 <= max_wavenumber <= the dealias cutoff of
        ``grid``: the draw's modes must survive the 2/3 rule."""
        kmax, cutoff = self.max_wavenumber, grid.dealias_cutoff
        rule = f"must lie in [1, dealias cutoff {cutoff:.2f}]"
        require(1 <= kmax <= cutoff, "max_wavenumber", kmax, rule)


def _reflect_coeffs(coeffs: np.ndarray, parity, out: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of f(x1, -x2), times the parity sign (exact permutation).

    Permutes k2 -> -k2 on the last axis, so it applies unchanged to full
    spectra, to half spectra and to stacks of either; ``parity`` broadcasts,
    and None leaves the sign out.  Written into ``out`` (not ``coeffs``
    itself) when given.
    """
    if out is None:
        out = np.empty_like(coeffs)
    out[..., 0] = coeffs[..., 0]
    out[..., 1:] = coeffs[..., :0:-1]  # column j takes column n - j
    if parity is not None:
        out *= parity
    return out


def _pack(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The packed spectra (u1 + u2, b1 + b2) of the stacked half spectra
    ``x`` (4, m, n), written into ``out`` (2, m, n), a new array when None,
    which may be ``x[:2]``."""
    if out is None:
        out = np.empty((2,) + x.shape[1:], dtype=x.dtype)
    np.add(x[0], x[1], out=out[0])
    np.add(x[2], x[3], out=out[1])
    return out


def _unpack(hg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The stack (u1, u2, b1, b2) of a class state from its packed fields
    ``hg`` (h, g), samples or spectra (2, ..., n), written into ``out``
    (4, ..., n) and returned: (f + Rf)/2 into the even slot of f (u1, b2)
    and (f - Rf)/2 into its odd slot (u2, b1), with Rf, the permutation
    j -> n - j of the last axis, formed in the odd slot first.  So each
    field has its parity bit for bit."""
    for f, even, odd in zip(hg, out[::3], out[1:3]):
        _reflect_coeffs(f, None, out=odd)
        np.add(f, odd, out=even)
        np.subtract(f, odd, out=odd)
    out *= 0.5
    return out


def reflect_state(st: MHDState) -> MHDState:
    """Apply the x2 reflection with the class parities; an exact involution."""
    return MHDState(st.grid, st.t, _reflect_coeffs(st.x, _STACK_PARITY))


def symmetrize(st: MHDState) -> MHDState:
    """Project onto the symmetry class: (st + reflect(st)) / 2."""
    return MHDState(st.grid, st.t, 0.5 * (st.x + _reflect_coeffs(st.x, _STACK_PARITY)))


def symmetry_defect(st: MHDState, rows: int | None = None) -> float:
    """Relative sup-norm of the anti-class part, max over the four components.

    Works on the content rows of ``st``, or on ``rows`` when the caller has
    found them, in the shared transform workspace.  A state in the class by
    value (``_in_class``) reads 0.0 with no transform: its anti part could
    only sample to +-0.0.  NaN or inf in the state leaves a nonzero anti part.
    """
    grid = st.grid
    m = _content_rows(st.x) if rows is None else rows
    x = st.x[:, :m]
    if _in_class(grid, x):
        return 0.0
    ws = _transform_workspace(grid)
    # two fields at a time: four with content on all rows would not fit
    anti = _phys_as_complex(grid, (2, m, grid.n))
    phys = ws.phys
    defect = 0.0
    for i in (0, 2):
        pair = x[i : i + 2]
        _reflect_coeffs(pair, _STACK_PARITY[i : i + 2], out=anti)
        np.subtract(pair, anti, out=anti)
        anti *= 0.5
        _inverse_into(anti, ws.spec_t[:2], ws.phys_t[:2])
        defect = max(defect, float(phys[:2].max()), -float(phys[:2].min()))
    _inverse_into(x, ws.spec_t, ws.phys_t)
    scale = max(float(phys.max()), -float(phys.min()))
    return 0.0 if scale == 0.0 else defect / scale


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator of ``seed``, keyed through a
    SeedSequence, so draws are bit-reproducible across platforms.  Each
    ``stream`` is an independent key: stream 0 draws the initial data, the
    class velocities of ``random_class_velocity`` and the amplitudes of
    ``verify.multimode_linear_state``, stream 1 the scalars of ``verify``."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(seq))


def _mode_list(kmax: int) -> list[tuple[int, int]]:
    """Half-plane representatives with 0 < |k| <= kmax (k1 > 0, or k1 = 0
    and k2 > 0), in the order the random draws visit them."""
    return [
        (k1, k2)
        for k1 in range(kmax + 1)
        for k2 in range(-kmax, kmax + 1)
        if (k1 > 0 or k2 > 0) and k1 * k1 + k2 * k2 <= kmax * kmax
    ]


def _draw_modes(
    grid: GridSpec, rng: np.random.Generator, kmax: int, decay: float, count: int
) -> np.ndarray:
    """Half spectra (count, n//2+1, n) of ``count`` random real zero-mean
    fields band-limited to |k| <= kmax; ValueError unless kmax < n/2.

    Coefficient magnitudes fall off like |k|^(-decay).  Each mode of
    ``_mode_list`` draws 2 * count normals, in that order, so results are
    reproducible for a given generator state; row k1 = 0 also gets the
    conjugates.
    """
    n = grid.n
    if 2 * kmax >= n:
        raise ValueError(f"kmax {kmax} needs a grid with n > {2 * kmax}, got n={n}")
    out = np.zeros((count, n // 2 + 1, n), dtype=np.complex128)
    for k1, k2 in _mode_list(kmax):
        g = rng.standard_normal(2 * count)
        amp = (k1 * k1 + k2 * k2) ** (-decay / 2.0)
        z = amp * (g[0::2] + 1j * g[1::2]) / np.sqrt(2.0)
        out[:, k1, k2 % n] = z
        if k1 == 0:
            out[:, 0, -k2 % n] = np.conj(z)
    return out


def _draw_class(grid: GridSpec, rng: np.random.Generator, kmax: int, decay: float) -> np.ndarray:
    """Half spectra of a random divergence-free zero-mean (u, b) in the
    class, band-limited to kmax: the u pair, then the b pair, from
    ``_draw_modes``."""
    x = np.concatenate([_draw_modes(grid, rng, kmax, decay, 2) for _ in "ub"])
    # the vector reflection (composed with a sign flip for b) commutes with
    # the Leray projection, so symmetrizing first is safe
    x = 0.5 * (x + _reflect_coeffs(x, _STACK_PARITY))
    work = np.empty_like(x[:2])
    for i in (0, 2):
        _project_in_place(grid.half, x[i], x[i + 1], work)
    return x


def make_initial_data(spec: InitialDataSpec, grid: GridSpec) -> MHDState:
    """Seeded random state in the class, rescaled to the smallness budget.

    One draw of ``_draw_class`` from ``_philox(spec.seed)``, so results are
    bit-reproducible across platforms.  u and b are rescaled separately so
    that each contributes epsilon/2 to ||u0||_{H^{2s+1}} + ||grad b0||_{H^{2s}}.
    A draw has the mode (0, 1), which keeps u1 = Re z and b1 = i Im z of its
    normal z through the symmetrization and the projection, so only a normal
    of exactly 0.0 could leave a zero norm.

    Raises
    ------
    InvalidValue
        If ``spec.require_resolved(grid)`` fails.
    DegenerateSpectrum
        If the drawn u or b is identically zero after projection.
    NonFiniteState
        If epsilon (near the largest float) scales the draw to inf.
    """
    spec.require_resolved(grid)
    # squared-norm weights of u in H^{2s+1} and of grad b in H^{2s}
    half = grid.half
    w_u = half.weight * half_sobolev_multiplier(grid, 2 * spec.s + 1)
    w_gb = half.weight * half_sobolev_multiplier(grid, 2 * spec.s) * half.ksq
    x = _draw_class(grid, _philox(spec.seed), spec.max_wavenumber, spec.spectrum_decay)
    sq = x.real**2 + x.imag**2
    norm_u = np.sqrt(MEASURE * np.sum(w_u * (sq[0] + sq[1])))
    norm_gb = np.sqrt(MEASURE * np.sum(w_gb * (sq[2] + sq[3])))
    if norm_u == 0.0 or norm_gb == 0.0:
        raise DegenerateSpectrum(
            f"initial data collapsed to zero after projection (seed {spec.seed})"
        )
    scale = np.repeat(0.5 * spec.epsilon / np.array([norm_u, norm_gb]), 2)[:, None, None]
    if not np.isfinite(scale).all():
        raise NonFiniteState(f"epsilon {spec.epsilon!r} overflows the draw (seed {spec.seed})")
    x *= scale
    return MHDState(grid, 0.0, x)


def random_class_velocity(
    grid: GridSpec, seed: int, kmax: int = 4, decay: float = 2.0
) -> VectorField:
    """Random divergence-free zero-mean velocity in the class (test helper)."""
    u1, u2 = to_full(_draw_class(grid, _philox(seed), kmax, decay)[:2])
    return VectorField(SpectralScalar(grid, u1), SpectralScalar(grid, u2))


class CheckResult(NamedTuple):
    name: str
    value: float
    passed: bool


def validate_state(st: MHDState) -> list[CheckResult]:
    """Evaluate all state invariants; failures are reported, never raised."""
    half, x = st.grid.half, st.x
    div_u = divergence_defect(half, x[0], x[1])
    div_b = divergence_defect(half, x[2], x[3])
    results = [
        CheckResult("div_defect_u", div_u, div_u < 1e-10),
        CheckResult("div_defect_b", div_b, div_b < 1e-10),
    ]
    for name, c in zip(("u1", "u2", "b1", "b2"), x):
        m = abs(MEASURE * c[0, 0].real)
        results.append(CheckResult(f"mean_{name}", float(m), m < 1e-12))
    finite = bool(np.all(np.isfinite(x)))
    results.append(CheckResult("coeffs_finite", 0.0 if finite else float("nan"), finite))
    d = symmetry_defect(st)
    results.append(CheckResult("symmetry_defect", d, d < 1e-10))
    return results
