import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mhd2tor.errors import HermitianViolation
from mhd2tor.spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    dealias,
    derivative_multiplier,
    divergence_defect,
    forward_transform,
    half_coeffs,
    half_samples,
    inverse_transform,
    leray_project,
    mean,
    partial_derivative,
    project_divergence_free,
    resample,
    sobolev_norm,
    to_full,
    to_half,
    vorticity,
)
from mhd2tor.symmetry import _reflect_coeffs


@pytest.fixture
def grid():
    return GridSpec(16)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(7)
    with pytest.raises(ValueError):
        GridSpec(6)


def test_grid_coordinates(grid):
    assert grid.x1[0, 0] == -np.pi
    assert grid.x2[0, 0] == -np.pi
    assert np.isclose(grid.x1[1, 0] - grid.x1[0, 0], grid.spacing)
    assert grid.k1[8, 0] == -8  # Nyquist
    assert grid.k2[0, 1] == 1


def test_single_mode_coefficients(grid):
    f = ScalarField(grid, np.sin(2 * grid.x2))
    F = forward_transform(f)
    # sin(2 x2) = (e^{2i x2} - e^{-2i x2}) / 2i
    assert abs(F.coeffs[0, 2] - (-0.5j)) < 1e-14
    assert abs(F.coeffs[0, -2] - (0.5j)) < 1e-14
    other = np.abs(F.coeffs)
    other[0, 2] = other[0, -2] = 0.0
    assert np.max(other) < 1e-14


def test_round_trip(grid):
    f = ScalarField(grid, rng().standard_normal((16, 16)))
    g = inverse_transform(forward_transform(f))
    assert np.max(np.abs(g.samples - f.samples)) < 1e-13


def test_hermitian_violation(grid):
    c = np.zeros((16, 16), dtype=np.complex128)
    c[1, 0] = 1.0  # no conjugate partner
    with pytest.raises(HermitianViolation):
        inverse_transform(SpectralScalar(grid, c))


@pytest.mark.parametrize("seed", range(5))
def test_hermitian_violation_threshold(grid, seed):
    """imag_tol bounds max |Im f| / max |f| of the complex synthesis, taken
    here from a complex inverse DFT on the grid anchored at -pi."""
    r = rng(10 + seed)
    c = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
    k = np.fft.fftfreq(16, 1.0 / 16)
    phase = (-1.0) ** (k[:, None] + k[None, :])
    z = np.fft.ifft2(c * phase) * 16**2
    ratio = np.max(np.abs(z.imag)) / np.max(np.abs(z))
    with pytest.raises(HermitianViolation):
        inverse_transform(SpectralScalar(grid, c), imag_tol=0.99 * ratio)
    got = inverse_transform(SpectralScalar(grid, c), imag_tol=1.01 * ratio)
    assert np.max(np.abs(got.samples - z.real)) < 1e-12 * np.max(np.abs(z))


def test_derivative_exact_on_trig(grid):
    f = ScalarField(grid, np.sin(3 * grid.x1) * np.cos(grid.x2))
    F = forward_transform(f)
    d = inverse_transform(partial_derivative(F, (1, 0)))
    exact = 3 * np.cos(3 * grid.x1) * np.cos(grid.x2)
    assert np.max(np.abs(d.samples - exact)) < 1e-12


def test_nyquist_zeroed_for_odd_orders(grid):
    mult = derivative_multiplier(grid, (1, 0))
    assert np.all(mult[8, :] == 0.0)
    mult2 = derivative_multiplier(grid, (2, 0))
    assert np.all(mult2[8, :] == -64.0)  # even order keeps (i*-8)^2


def test_sobolev_multiplier_values(grid):
    mu = grid.sobolev_multiplier(2)
    # k = (1, 0): alpha in {(0,0),(1,0),(0,1),(2,0),(1,1),(0,2)} -> 1+1+0+1+0+0
    i, j = 1, 0
    assert mu[i, j] == 3.0
    assert mu[0, 0] == 1.0


def test_sobolev_norm_single_mode(grid):
    f = forward_transform(ScalarField(grid, np.sin(grid.x2)))
    # ||sin x2||_L2^2 = (2 pi)^2 / 2
    assert np.isclose(sobolev_norm(f, 0), np.sqrt(2) * np.pi, rtol=1e-13)
    # mu_1(0,1) = 2
    assert np.isclose(sobolev_norm(f, 1), 2 * np.pi, rtol=1e-13)


def test_dealias_mask(grid):
    # cutoff = (2/3) * 8 = 16/3; |k| = 6 must vanish, |k| = 5 survive
    c = np.ones((16, 16), dtype=np.complex128)
    d = dealias(SpectralScalar(grid, c)).coeffs
    assert d[6, 0] == 0.0
    assert d[5, 0] == 1.0
    assert d[0, 6] == 0.0


def test_leray_projection_properties(grid):
    r = rng(1)
    v1 = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
    v2 = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
    p1, p2 = project_divergence_free(grid, v1, v2)
    assert divergence_defect(grid, p1, p2) < 1e-14
    # idempotent
    q1, q2 = project_divergence_free(grid, p1, p2)
    assert np.max(np.abs(q1 - p1)) < 1e-14
    # k = 0 untouched
    assert p1[0, 0] == v1[0, 0]
    v = VectorField(SpectralScalar(grid, v1), SpectralScalar(grid, v2))
    p = leray_project(v)
    assert np.max(np.abs(p.c1.coeffs - p1)) == 0.0


def test_vorticity_gradient_identity(grid):
    # for div-free mean-zero u: ||grad u||_L2 = ||omega||_L2
    r = rng(2)
    v1 = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
    v2 = r.standard_normal((16, 16)) + 1j * r.standard_normal((16, 16))
    # hermitianize by transforming from a real field, then band-limit
    v1 = np.fft.fft2(np.fft.ifft2(v1).real)
    v2 = np.fft.fft2(np.fft.ifft2(v2).real)
    mask = grid.ksq <= 25
    v1, v2 = v1 * mask, v2 * mask
    p1, p2 = project_divergence_free(grid, v1, v2)
    p1[0, 0] = p2[0, 0] = 0.0
    u = VectorField(SpectralScalar(grid, p1), SpectralScalar(grid, p2))
    grad_sq = 0.0
    for comp in (u.c1, u.c2):
        for alpha in ((1, 0), (0, 1)):
            grad_sq += sobolev_norm(partial_derivative(comp, alpha), 0) ** 2
    w = forward_transform(vorticity(u))
    assert np.isclose(np.sqrt(grad_sq), sobolev_norm(w, 0), rtol=1e-12)


def test_mean(grid):
    f = ScalarField(grid, 1.5 + np.sin(grid.x1))
    assert np.isclose(mean(f), 1.5 * MEASURE, rtol=1e-14)
    assert np.isclose(mean(forward_transform(f)), 1.5 * MEASURE, rtol=1e-14)


def test_resample_band_limited(grid):
    f = ScalarField(grid, np.sin(3 * grid.x1) + np.cos(2 * grid.x2))
    F = forward_transform(f)
    big = GridSpec(24)
    up = resample(F, big)
    expected = np.sin(3 * big.x1) + np.cos(2 * big.x2)
    got = inverse_transform(up).samples
    assert np.max(np.abs(got - expected)) < 1e-12
    # down again
    back = resample(up, grid)
    assert np.max(np.abs(back.coeffs - F.coeffs)) < 1e-14


def test_stacked_transforms(grid):
    r = rng(3)
    batch = r.standard_normal((3, 16, 16))
    from mhd2tor.spectral import fft_coeffs, ifft_samples

    stacked = fft_coeffs(grid, batch)
    for i in range(3):
        single = fft_coeffs(grid, batch[i])
        assert np.max(np.abs(stacked[i] - single)) == 0.0
    back = ifft_samples(grid, stacked)
    assert np.max(np.abs(back - batch)) < 1e-13


# --- solver-internal half spectra ---------------------------------------------

sizes = hst.sampled_from([8, 10, 16, 32])
seeds = hst.integers(0, 2**32 - 1)


def _random_half(n, seed, stack=()):
    r = rng(seed)
    shape = stack + (n // 2 + 1, n)
    return r.standard_normal(shape) + 1j * r.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds)
def test_half_to_full_is_hermitian_with_real_inverse(n, seed):
    grid = GridSpec(n)
    samples = rng(seed).standard_normal((2, n, n))
    half = half_coeffs(grid, samples)
    assert half.shape == (2, n // 2 + 1, n)
    full = to_full(half)
    flipped = np.conj(full[..., (-np.arange(n)) % n, :][..., (-np.arange(n)) % n])
    assert np.max(np.abs(full - flipped)) < 1e-14 * np.max(np.abs(full))
    z = np.fft.ifft2(full) * n**2
    assert np.max(np.abs(z.imag)) < 1e-13 * np.max(np.abs(z.real))
    assert np.max(np.abs(z.real - samples)) < 1e-12
    assert np.max(np.abs(half_samples(grid, half) - samples)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds)
def test_half_slice_of_full_returns_input(n, seed):
    half = _random_half(n, seed, stack=(3,))
    assert np.array_equal(to_half(to_full(half)), half)


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds, parity=hst.sampled_from([1, -1]))
def test_reflection_commutes_with_half_layout(n, seed, parity):
    half = _random_half(n, seed)
    assert np.array_equal(
        to_full(_reflect_coeffs(half, parity)), _reflect_coeffs(to_full(half), parity)
    )
    full = to_full(half)
    assert np.array_equal(to_half(_reflect_coeffs(full, parity)), _reflect_coeffs(half, parity))
