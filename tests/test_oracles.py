import numpy as np
import pytest

from mhd2tor.errors import GridTooLarge, ZeroWavevector
from mhd2tor.oracles import (
    dft_coefficients,
    dft_derivative,
    fd_run,
    linearized_mode_solution,
)
from mhd2tor.spectral import (
    GridSpec,
    ScalarField,
    fft_coeffs,
    forward_transform,
    inverse_transform,
    partial_derivative,
    sobolev_norm,
    to_full,
)
from mhd2tor.stepping import step_ifrk4
from mhd2tor.symmetry import InitialDataSpec, make_initial_data, state_from_arrays


def rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _centered(fast, n):
    out = np.empty_like(fast)
    for k1 in range(-n // 2, n // 2):
        for k2 in range(-n // 2, n // 2):
            out[k1 + n // 2, k2 + n // 2] = fast[k1 % n, k2 % n]
    return out


def test_dft_matches_fft():
    grid = GridSpec(16)
    f = ScalarField(grid, rng().standard_normal((16, 16)))
    slow = dft_coefficients(f)
    fast = _centered(fft_coeffs(grid, f.samples), 16)
    assert np.max(np.abs(slow - fast)) < 1e-12


def test_dft_rejects_large_grids():
    grid = GridSpec(64)
    with pytest.raises(GridTooLarge):
        dft_coefficients(ScalarField(grid, np.zeros((64, 64))))


def test_dft_derivative_matches_fast_path():
    grid = GridSpec(16)
    f = ScalarField(grid, rng(1).standard_normal((16, 16)))
    for alpha in ((0, 0), (1, 0), (2, 1), (0, 3)):
        slow = dft_derivative(f, alpha).samples
        fast = inverse_transform(
            partial_derivative(forward_transform(f), alpha)
        ).samples
        assert np.max(np.abs(slow - fast)) < 1e-12


def test_mode_solution_against_expm():
    from scipy.linalg import expm

    for k in ((0, 1), (0, 2), (1, 1), (3, 2), (4, 0)):
        k1, k2 = k
        ksq = k1 * k1 + k2 * k2
        M = np.array([[0.0, 1j * k2], [1j * k2, -ksq]])
        y0 = np.array([0.3 - 0.1j, -0.7 + 0.2j])
        for t in (0.1, 1.0, 3.0):
            y = expm(M * t) @ y0
            a, c = linearized_mode_solution(k, y0[0], y0[1], t)
            assert abs(a - y[0]) < 1e-12
            assert abs(c - y[1]) < 1e-12


def test_mode_solution_defective_case():
    # k = (0, 2): |k|^4 = 16 = 4 k2^2, a genuinely defective matrix
    a, c = linearized_mode_solution((0, 2), 1.0, 0.0, 0.5)
    from scipy.linalg import expm

    M = np.array([[0.0, 2j], [2j, -4.0]])
    y = expm(M * 0.5) @ np.array([1.0, 0.0])
    assert abs(a - y[0]) < 1e-12
    assert abs(c - y[1]) < 1e-12


def test_mode_solution_rejects_zero_mode():
    with pytest.raises(ZeroWavevector):
        linearized_mode_solution((0, 0), 1.0, 1.0, 1.0)


def test_mode_solution_k01_decay_rate():
    # lambda = (-1 +- i sqrt(3)) / 2: amplitudes decay like e^{-t/2} with
    # oscillation; a least-squares fit over several periods isolates the rate
    ts = np.linspace(1.0, 12.0, 80)
    vals = []
    for t in ts:
        a, c = linearized_mode_solution((0, 1), 1.0, 0.0, float(t))
        vals.append(np.hypot(abs(a), abs(c)))
    slope, _ = np.polyfit(ts, np.log(vals), 1)
    assert slope == pytest.approx(-0.5, abs=0.05)


def test_fd_run_agrees_with_spectral():
    """Cross-validation: the FD trajectory converges (order 2 in space) to the
    spectral one; at n_fd = 64 the difference must sit near the FD truncation
    error and shrink by ~4x when the FD grid is refined from 32 to 64."""
    grid = GridSpec(32)
    st0 = make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=12), grid)
    t_end, dt = 0.2, 2e-3
    spectral = st0
    for _ in range(int(t_end / dt)):
        spectral = step_ifrk4(spectral, dt)

    def l2_diff(a, b):
        return np.sqrt(
            sum(
                float(np.sum(np.abs(x - y) ** 2))
                for x, y in zip(a.coeff_arrays(), b.coeff_arrays())
            )
        )

    scale = np.sqrt(
        sum(float(np.sum(np.abs(x) ** 2)) for x in spectral.coeff_arrays())
    )
    err = {}
    for n_fd in (32, 64):
        fd = fd_run(st0, t_end, n_fd=n_fd, dt=dt)
        fd32 = state_from_arrays(grid, fd.t,
                                 *_resampled(fd.u, grid), *_resampled(fd.b, grid))
        err[n_fd] = l2_diff(spectral, fd32) / scale
    assert err[64] < 0.05
    ratio = err[32] / err[64]
    assert 2.5 < ratio < 6.0  # second-order spatial convergence


def _resampled(v, grid):
    from mhd2tor.spectral import resample

    return resample(v.c1, grid).coeffs, resample(v.c2, grid).coeffs


def test_fd_pure_diffusion_dispersion():
    """Single-mode diffusion under FD decays with the discrete symbol
    (2 - 2 cos(k dx)) / dx^2 instead of k^2; the observed decay must match the
    FD symbol, not the exact one."""
    grid = GridSpec(32)
    zero = np.zeros((32, 32), dtype=np.complex128)
    b1 = forward_transform(ScalarField(grid, np.cos(2 * grid.x2))).coeffs
    from mhd2tor.symmetry import state_from_arrays

    st0 = state_from_arrays(grid, 0.0, zero, zero.copy(), b1, zero.copy())
    t_end, dt, n_fd = 0.5, 1e-3, 32
    fd = fd_run(st0, t_end, n_fd=n_fd, dt=dt, nonlinear=False, coupling=False)
    dx = 2 * np.pi / n_fd
    symbol = (2 - 2 * np.cos(2 * dx)) / dx**2
    expected = np.exp(-symbol * t_end)
    got = fd.coeff_arrays()[2][0, 2] / b1[0, 2]
    assert abs(got - expected) < 1e-6


def _direct_samples(coeffs):
    """Samples on the -pi grid by direct synthesis sum_k c_k exp(i k.x)."""
    n = coeffs.shape[0]
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    k = np.fft.fftfreq(n, 1.0 / n)
    e = np.exp(1j * np.outer(x, k))
    return (e @ coeffs @ e.T).real


def test_dealiased_products_match_direct_dft():
    """The nonlinear tendency equals direct-sum products, dealiased and
    Leray-projected with centered wavenumbers, built without the FFT kernel."""
    from mhd2tor.dynamics import rhs_perturbation

    n = 16
    grid = GridSpec(n)
    st = make_initial_data(InitialDataSpec(epsilon=2.0, s=2, seed=8), grid)
    fields = [ScalarField(grid, _direct_samples(c)) for c in st.coeff_arrays()]
    u1, u2, b1, b2 = (f.samples for f in fields)
    d = [[dft_derivative(f, a).samples for a in ((1, 0), (0, 1))] for f in fields]

    def grad_along(v1, v2, i):
        return v1 * d[i][0] + v2 * d[i][1]

    products = [
        grad_along(b1, b2, 2) - grad_along(u1, u2, 0),
        grad_along(b1, b2, 3) - grad_along(u1, u2, 1),
        grad_along(b1, b2, 0) - grad_along(u1, u2, 2),
        grad_along(b1, b2, 1) - grad_along(u1, u2, 3),
    ]
    k = np.arange(-n // 2, n // 2)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    keep = np.maximum(np.abs(k1), np.abs(k2)) <= n / 3
    ksq = np.where(k1**2 + k2**2 > 0, k1**2 + k2**2, 1)
    hats = [keep * dft_coefficients(ScalarField(grid, p)) for p in products]
    expected = []
    for g1, g2 in (hats[:2], hats[2:]):
        kdotg = (k1 * g1 + k2 * g2) / ksq
        expected += [g1 - k1 * kdotg, g2 - k2 * kdotg]
    for e in expected:
        e[n // 2, n // 2] = 0.0

    # the diffusion Lap b is linear: take it out of dx/dt to leave the products
    dx = rhs_perturbation(st, nonlinear=True, coupling=False)
    dx[2:] += grid.half.ksq * st.x[2:]
    scale = max(np.max(np.abs(e)) for e in expected)
    assert scale > 1e-6
    for g, e in zip(to_full(dx), expected):
        assert np.max(np.abs(_centered(g, n) - e)) < 1e-12 * scale
