import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mhd2tor.errors import GridTooLarge, ZeroWavevector
from fd_oracle import fd_run
from mhd2tor.oracles import (
    dft_coefficients,
    dft_derivative,
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


def _direct_tendency(st, total):
    """Non-stiff dx/dt from direct-sum advective products, dealiased and
    Leray-projected with centered wavenumbers, built without the FFT kernel.

    ``total`` forms it from (u, B = b + e2), which brings in the coupling
    terms; otherwise it is the products of (u, b) alone."""
    n = st.grid.n
    grid = st.grid
    fields = [ScalarField(grid, _direct_samples(c)) for c in st.coeff_arrays()]
    u1, u2, b1, b2 = (f.samples for f in fields)
    if total:
        b2 = b2 + 1.0
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
    return expected


def _assert_matches_direct(st, dx, expected, atol=0.0, min_scale=1e-6):
    """dx (half spectra) equals the centered full spectra ``expected`` to
    1e-12 of their largest coefficient, plus ``atol``; that coefficient must
    exceed ``min_scale``, so near-zero products cannot pass."""
    n = st.grid.n
    scale = max(np.max(np.abs(e)) for e in expected)
    assert scale > min_scale
    for g, e in zip(to_full(dx), expected):
        assert np.max(np.abs(_centered(g, n) - e)) < 1e-12 * scale + atol


def _with_direct_diffusion(st, expected):
    """``expected`` plus the diffusion -|k|^2 b on the b rows, centered."""
    n = st.grid.n
    k = np.arange(-n // 2, n // 2)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    b = [_centered(c, n) for c in st.coeff_arrays()[2:]]
    return expected[:2] + [e - ksq * c for e, c in zip(expected[2:], b)]


def test_dealiased_products_match_direct_dft():
    """The nonlinear tendency equals direct-sum advective products, dealiased
    and Leray-projected, built without the FFT kernel."""
    from mhd2tor.dynamics import rhs_perturbation

    st = make_initial_data(InitialDataSpec(epsilon=2.0, s=2, seed=8), GridSpec(16))
    # the diffusion Lap b is linear: take it out of dx/dt to leave the products
    dx = rhs_perturbation(st, nonlinear=True, coupling=False)
    dx[2:] += st.grid.half.ksq * st.x[2:]
    _assert_matches_direct(st, dx, _direct_tendency(st, False))


@settings(max_examples=6, deadline=None)
@given(
    seed=hst.integers(0, 2**31 - 1),
    n=hst.sampled_from([16, 24, 32]),
    epsilon=hst.floats(1e-3, 2.0),
)
def test_rhs_matches_direct_advective_products(seed, n, epsilon):
    """The divergence-form kernel agrees with the advective form on
    divergence-free states: its products alone, and the public
    rhs_perturbation (coupling off) and rhs_total (products of (u, b + e2),
    which bring in the coupling), diffusion included."""
    from mhd2tor.dynamics import _rhs_arrays, rhs_perturbation, rhs_total

    st = make_initial_data(InitialDataSpec(epsilon=epsilon, s=2, seed=seed), GridSpec(n))
    # the products are quadratic in epsilon: over 300 seeds at n=16 their
    # largest coefficient is at least 3.7e-7 epsilon^2
    min_scale = 1e-8 * epsilon**2
    products = _direct_tendency(st, False)
    _assert_matches_direct(st, _rhs_arrays(st.grid, st.x), products, min_scale=min_scale)
    dx = rhs_perturbation(st, nonlinear=True, coupling=False)
    _assert_matches_direct(st, dx, _with_direct_diffusion(st, products), min_scale=min_scale)
    # the unit background e2 enters the total-form products (b2 + 1)^2 at
    # order 1, so their roundoff is absolute: about 1e-16 per unit wavenumber
    total = _with_direct_diffusion(st, _direct_tendency(st, True))
    _assert_matches_direct(st, rhs_total(st), total, atol=1e-15, min_scale=min_scale)


@settings(max_examples=8, deadline=None)
@given(
    seed=hst.integers(0, 2**31 - 1),
    n=hst.sampled_from([16, 24, 32, 64]),
    epsilon=hst.floats(1e-3, 2.0),
)
def test_packed_kernel_matches_general_kernel(seed, n, epsilon):
    """On states in the class, the packed kernel (2 + 2 field transforms)
    and the general one (4 + 3) agree within 1e-13 of the largest product
    coefficient, and the packed tendency is in the class exactly; where the
    direct DFT runs (n <= 32), both match it."""
    from mhd2tor.dynamics import _rhs_arrays
    from mhd2tor.symmetry import _in_class, _pack, _unpack

    st = make_initial_data(InitialDataSpec(epsilon=epsilon, s=2, seed=seed), GridSpec(n))
    assert _in_class(st.grid, st.x)
    packed = _unpack(_rhs_arrays(st.grid, _pack(st.x)), np.empty_like(st.x))
    general = _rhs_arrays(st.grid, st.x)
    scale = np.max(np.abs(general))
    assert scale > 1e-8 * epsilon**2
    assert np.max(np.abs(packed - general)) <= 1e-13 * scale
    assert _in_class(st.grid, packed)
    if n <= 32:
        products = _direct_tendency(st, False)
        for dx in (packed, general):
            _assert_matches_direct(st, dx, products, min_scale=1e-8 * epsilon**2)


def test_swapped_split_fails_the_oracle(monkeypatch):
    """Negative control of the packed kernel: with the signs of the parity
    split swapped, (M[:, 0] - M[:, 1])/2 on F(k2) and (M[:, 0] + M[:, 1])/2
    on F(-k2), C enters with the wrong sign and the tendency no longer
    matches the direct DFT."""
    import mhd2tor.dynamics as dynamics
    from mhd2tor.symmetry import _pack, _unpack

    st = make_initial_data(InitialDataSpec(epsilon=2.0, s=2, seed=8), GridSpec(16))
    products = _direct_tendency(st, False)

    def packed():
        hg = dynamics._rhs_arrays(st.grid, _pack(st.x))
        return _unpack(hg, np.empty_like(st.x))

    _assert_matches_direct(st, packed(), products)
    multipliers = dynamics._multipliers

    def swapped(grid):
        M, curl, plus, minus, half_curl = multipliers(grid)
        return M, curl, minus, plus, half_curl

    monkeypatch.setattr(dynamics, "_multipliers", swapped)
    with pytest.raises(AssertionError):
        _assert_matches_direct(st, packed(), products)


def test_plans_look_up_patched_functions(monkeypatch, request):
    """The plans of the packed kernel and of the stages bind arrays only:
    with both built first, a transform and a multiplier function patched
    afterwards still take effect.  ``field_counts`` then counts 2 + 2
    fields per packed right-hand side and 8 + 8 per step, and the swapped
    split of ``test_swapped_split_fails_the_oracle`` still fails the
    direct DFT."""
    import mhd2tor.dynamics as dynamics
    from mhd2tor.symmetry import _pack, _unpack

    st = make_initial_data(InitialDataSpec(epsilon=2.0, s=2, seed=8), GridSpec(16))
    products = _direct_tendency(st, False)

    def packed():
        hg = dynamics._rhs_arrays(st.grid, _pack(st.x))
        return _unpack(hg, np.empty_like(st.x))

    _assert_matches_direct(st, packed(), products)
    step_ifrk4(st, 1e-2)
    field_counts = request.getfixturevalue("field_counts")
    packed()
    assert field_counts == {"irfft": 2, "rfft": 2}
    field_counts.update(irfft=0, rfft=0)
    step_ifrk4(st, 1e-2)
    assert field_counts == {"irfft": 8, "rfft": 8}
    multipliers = dynamics._multipliers

    def swapped(grid):
        M, curl, plus, minus, half_curl = multipliers(grid)
        return M, curl, minus, plus, half_curl

    monkeypatch.setattr(dynamics, "_multipliers", swapped)
    with pytest.raises(AssertionError):
        _assert_matches_direct(st, packed(), products)


def test_plans_survive_cache_eviction():
    """Six grids on one thread, twice round, are more than the four
    transform workspaces kept per thread, so the plans of the packed kernel
    and of the stages outlive the buffers they were built over.  Each
    packed tendency still matches the general kernel within the 1e-13 of
    ``test_packed_kernel_matches_general_kernel``, and each step gives the
    bits of its first round."""
    from mhd2tor.dynamics import _packed_plan, _rhs_arrays
    from mhd2tor.spectral import _transform_workspace
    from mhd2tor.symmetry import _pack, _unpack

    sizes = (16, 24, 32, 40, 48, 64)
    states = [
        make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=n), GridSpec(n)) for n in sizes
    ]
    first = {}
    for round_ in range(2):
        plan_misses = _packed_plan.cache_info().misses
        for st in states:
            packed = _unpack(_rhs_arrays(st.grid, _pack(st.x)), np.empty_like(st.x))
            general = _rhs_arrays(st.grid, st.x)
            scale = np.max(np.abs(general))
            assert scale > 0
            assert np.max(np.abs(packed - general)) <= 1e-13 * scale
            x = step_ifrk4(st, 1e-2).x
            if round_:
                assert np.array_equal(x, first[st.grid.n])
            first[st.grid.n] = x
        if round_:  # every grid's plan was evicted and built again
            assert _packed_plan.cache_info().misses == plan_misses + len(sizes)
    assert _transform_workspace.cache_info().currsize <= 4
