"""MHD states in the x2-reflection symmetry class with zero-mean constraints.

The class fixes the parities under x2 -> -x2: u1 and b2 even, u2 and b1 odd.
States are kept in perturbation variables (u, b) with the total magnetic
field B = b + e2.  The collocation grid is reflection-closed (x2 = -pi maps
to itself, +pi is identified with -pi), so reflection is the exact index map
j -> (n - j) mod n; in coefficient space this is the permutation
k2 -> -k2, which is what the implementation applies.

A state is one stacked half spectrum of (u1, u2, b1, b2), see ``spectral``;
its full spectra (``coeff_arrays``, ``u``, ``b``) are a view built on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSpectrum
from .spectral import (
    MEASURE,
    GridSpec,
    SpectralScalar,
    VectorField,
    _coeff_arrays,
    derivative_multiplier,
    divergence_defect,
    half_samples,
    project_divergence_free,
    sobolev_norm,
    to_full,
    to_half,
)
from .spectral import ifft_samples  # noqa: F401  traced by name in bench/spans.py

# Parity under x2 reflection, per component.  Data only, so diagnostics can
# name which component violated which parity.
PARITY = {"u1": +1, "u2": -1, "b1": -1, "b2": +1}
# the same signs for a stack (u1, u2, b1, b2) of spectra, broadcasting
_STACK_PARITY = np.array([PARITY[c] for c in ("u1", "u2", "b1", "b2")], dtype=float)[:, None, None]


@dataclass
class MHDState:
    """Velocity / magnetic-perturbation pair at one time; ``x`` stacks the
    half spectra of (u1, u2, b1, b2), shape (4, n//2+1, n)."""

    grid: GridSpec
    t: float
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.complex128)
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
    split evenly between the two terms.
    """

    epsilon: float
    s: int
    seed: int
    spectrum_decay: float = 3.0
    max_wavenumber: int = 4

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.s < 2:
            raise ValueError(f"s must be an integer >= 2, got {self.s}")
        if self.spectrum_decay <= 0:
            raise ValueError(f"spectrum_decay must be > 0, got {self.spectrum_decay}")


def _reflect_coeffs(coeffs: np.ndarray, parity) -> np.ndarray:
    """Coefficients of f(x1, -x2), times the parity sign (exact permutation).

    Permutes k2 -> -k2 on the last axis, so it applies unchanged to full
    spectra, to half spectra and to stacks of either; ``parity`` broadcasts.
    """
    out = np.empty_like(coeffs)
    out[..., 0] = coeffs[..., 0]
    out[..., 1:] = coeffs[..., :0:-1]  # column j takes column n - j
    out *= parity
    return out


def reflect_state(st: MHDState) -> MHDState:
    """Apply the x2 reflection with the class parities; an exact involution."""
    return MHDState(st.grid, st.t, _reflect_coeffs(st.x, _STACK_PARITY))


def symmetrize(st: MHDState) -> MHDState:
    """Project onto the symmetry class: (st + reflect(st)) / 2."""
    return MHDState(st.grid, st.t, 0.5 * (st.x + _reflect_coeffs(st.x, _STACK_PARITY)))


def symmetry_defect(st: MHDState) -> float:
    """Relative sup-norm of the anti-class part, max over the four components."""
    scale = float(np.max(np.abs(half_samples(st.grid, st.x))))
    if scale == 0.0:
        return 0.0
    anti = st.x - _reflect_coeffs(st.x, _STACK_PARITY)
    anti *= 0.5
    return float(np.max(np.abs(half_samples(st.grid, anti)))) / scale


def _philox(seed: int, attempt: int = 0) -> np.random.Generator:
    """Counter-based Philox generator keyed by (seed, attempt) through a
    SeedSequence, so draws are bit-reproducible across platforms."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(attempt,))
    return np.random.Generator(np.random.Philox(seq))


def _draw_modes(
    grid: GridSpec, rng: np.random.Generator, kmax: int, decay: float, count: int
) -> list[np.ndarray]:
    """``count`` random real zero-mean fields band-limited to |k| <= kmax.

    Coefficient magnitudes fall off like |k|^(-decay).  Each half-plane mode
    draws 2 * count normals, in a fixed order over modes, so results are
    reproducible for a given generator state.
    """
    n = grid.n
    out = [np.zeros((n, n), dtype=np.complex128) for _ in range(count)]
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > kmax * kmax:
                continue
            # half-plane draw; conjugate mode set below
            if k1 < 0 or (k1 == 0 and k2 < 0):
                continue
            g = rng.standard_normal(2 * count)
            amp = (k1 * k1 + k2 * k2) ** (-decay / 2.0)
            for c, re, im in zip(out, g[0::2], g[1::2]):
                z = amp * (re + 1j * im) / np.sqrt(2.0)
                c[k1 % n, k2 % n] = z
                c[(-k1) % n, (-k2) % n] = np.conj(z)
    return out


def _draw_class_pair(
    grid: GridSpec,
    rng: np.random.Generator,
    kmax: int,
    decay: float,
    parities: tuple[int, int] = (PARITY["u1"], PARITY["u2"]),
) -> tuple[np.ndarray, np.ndarray]:
    """Random divergence-free zero-mean pair with the given x2 parities,
    band-limited to kmax (see ``_draw_modes``)."""
    c1, c2 = _draw_modes(grid, rng, kmax, decay, 2)
    # the vector reflection (possibly composed with a sign flip) commutes
    # with the Leray projection, so symmetrizing first is safe
    c1 = 0.5 * (c1 + _reflect_coeffs(c1, parities[0]))
    c2 = 0.5 * (c2 + _reflect_coeffs(c2, parities[1]))
    c1, c2 = project_divergence_free(grid, c1, c2)
    c1[0, 0] = 0.0
    c2[0, 0] = 0.0
    return c1, c2


def gradient_norm(v: VectorField, m: int) -> float:
    """H^m norm of the full gradient of a vector field in either representation."""
    grid, comps = _coeff_arrays(v)
    parts = [
        SpectralScalar(grid, c * derivative_multiplier(grid, alpha))
        for c in comps
        for alpha in ((1, 0), (0, 1))
    ]
    return float(np.sqrt(sum(sobolev_norm(p, m) ** 2 for p in parts)))


def make_initial_data(spec: InitialDataSpec, grid: GridSpec) -> MHDState:
    """Seeded random state in the class, rescaled to the smallness budget.

    The draw uses the Philox generator keyed by (seed, attempt), so results
    are bit-reproducible across platforms (see ``_philox``).
    u and b are rescaled separately so that each contributes epsilon/2 to
    ||u0||_{H^{2s+1}} + ||grad b0||_{H^{2s}}.

    Raises
    ------
    DegenerateSpectrum
        If the drawn fields are identically zero after projection on ten
        consecutive attempts.
    """
    if spec.max_wavenumber > grid.dealias_cutoff:
        raise ValueError(
            f"max_wavenumber {spec.max_wavenumber} exceeds dealias cutoff "
            f"{grid.dealias_cutoff:.3f} of n={grid.n}"
        )
    order = 2 * spec.s + 1
    for attempt in range(10):
        rng = _philox(spec.seed, attempt)
        u1, u2 = _draw_class_pair(grid, rng, spec.max_wavenumber, spec.spectrum_decay)
        b1, b2 = _draw_class_pair(
            grid, rng, spec.max_wavenumber, spec.spectrum_decay,
            parities=(PARITY["b1"], PARITY["b2"]),
        )
        st = state_from_arrays(grid, 0.0, u1, u2, b1, b2)
        norm_u = sobolev_norm(st.u, order)
        norm_gb = gradient_norm(st.b, order - 1)
        if norm_u == 0.0 or norm_gb == 0.0:
            continue
        su = 0.5 * spec.epsilon / norm_u
        sb = 0.5 * spec.epsilon / norm_gb
        return state_from_arrays(grid, 0.0, su * u1, su * u2, sb * b1, sb * b2)
    raise DegenerateSpectrum(
        f"initial data collapsed to zero after projection (seed {spec.seed})"
    )


def random_class_velocity(
    grid: GridSpec, seed: int, kmax: int = 4, decay: float = 2.0
) -> VectorField:
    """Random divergence-free zero-mean velocity in the class (test helper)."""
    u1, u2 = _draw_class_pair(grid, _philox(seed), kmax, decay)
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
