import numpy as np
import pytest

from mhd2tor.dynamics import (
    compute_pressure,
    energy_balance_series,
    grad_b_l2_sq,
    l2_energy,
    rhs_perturbation,
    rhs_total,
    transport_skew_defect,
)
from mhd2tor.errors import InsufficientSamples
from mhd2tor.spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    divergence_defect,
    forward_transform,
    resample,
)
from mhd2tor.symmetry import InitialDataSpec, make_initial_data, state_from_arrays


@pytest.fixture
def grid():
    return GridSpec(32)


@pytest.fixture
def small_state(grid):
    return make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=6), grid)


def test_zero_state_zero_tendency(grid):
    zero = np.zeros((32, 32), dtype=np.complex128)
    st = state_from_arrays(grid, 0.0, zero, zero.copy(), zero.copy(), zero.copy())
    td = rhs_perturbation(st)
    for v in (td.du, td.db_soft, td.db_stiff):
        assert np.max(np.abs(v.c1.coeffs)) == 0.0
        assert np.max(np.abs(v.c2.coeffs)) == 0.0


def test_tendencies_divergence_free(grid, small_state):
    td = rhs_perturbation(small_state)
    assert divergence_defect(grid, td.du.c1.coeffs, td.du.c2.coeffs) < 1e-10
    assert divergence_defect(grid, td.db_soft.c1.coeffs, td.db_soft.c2.coeffs) < 1e-10


def test_tendency_zero_mode_zero(grid, small_state):
    td = rhs_perturbation(small_state)
    for v in (td.du, td.db_stiff, td.db_soft):
        assert v.c1.coeffs[0, 0] == 0.0
        assert v.c2.coeffs[0, 0] == 0.0


def test_linear_tendency_is_coupling(grid, small_state):
    td = rhs_perturbation(small_state, nonlinear=False, coupling=True)
    u1, u2, b1, b2 = small_state.coeff_arrays()
    from mhd2tor.spectral import project_divergence_free

    e1, e2 = project_divergence_free(grid, grid.ik2 * b1, grid.ik2 * b2)
    assert np.max(np.abs(td.du.c1.coeffs - e1)) < 1e-15
    assert np.max(np.abs(td.du.c2.coeffs - e2)) < 1e-15
    assert np.max(np.abs(td.db_stiff.c1.coeffs + grid.ksq * b1)) < 1e-15


def test_stiff_part_is_laplacian(grid, small_state):
    td = rhs_perturbation(small_state)
    _, _, b1, b2 = small_state.coeff_arrays()
    assert np.max(np.abs(td.db_stiff.c1.coeffs + grid.ksq * b1)) == 0.0
    assert np.max(np.abs(td.db_stiff.c2.coeffs + grid.ksq * b2)) == 0.0


def test_total_matches_perturbation(grid, small_state):
    """Forming the RHS from B = b + e2 directly agrees with the perturbation
    form: the extra e2 terms are exactly the coupling terms."""
    u1, u2, b1, b2 = small_state.coeff_arrays()
    B2 = b2.copy()
    B2[0, 0] += 1.0
    B = VectorField(SpectralScalar(grid, b1), SpectralScalar(grid, B2))
    td_t = rhs_total(small_state.u, B)
    td_p = rhs_perturbation(small_state)
    scale = max(np.max(np.abs(td_p.du.c1.coeffs)), 1e-30)
    for a, b in (
        (td_t.du, td_p.du),
        (td_t.db_soft, td_p.db_soft),
    ):
        assert np.max(np.abs(a.c1.coeffs - b.c1.coeffs)) < 1e-12 * max(scale, 1.0)
        assert np.max(np.abs(a.c2.coeffs - b.c2.coeffs)) < 1e-12 * max(scale, 1.0)


def test_resolution_independence(small_state):
    """Band-limited states give the same tendency coefficients on finer grids."""
    big = GridSpec(48)
    arrays = [resample(c, big) for c in (small_state.u.c1, small_state.u.c2,
                                         small_state.b.c1, small_state.b.c2)]
    st_big = state_from_arrays(big, 0.0, *(a.coeffs for a in arrays))
    td_small = rhs_perturbation(small_state)
    td_big = rhs_perturbation(st_big)
    shrunk = resample(td_big.du.c1, small_state.grid)
    assert np.max(np.abs(shrunk.coeffs - td_small.du.c1.coeffs)) < 1e-8


def test_pressure_closes_leray_residual(grid, small_state):
    """grad p must equal the part of the u tendency removed by projection."""
    from mhd2tor.dynamics import _quadratic_arrays
    from mhd2tor.spectral import project_divergence_free, to_full, to_half

    u1, u2, b1, b2 = small_state.coeff_arrays()
    g1, g2, _, _ = to_full(_quadratic_arrays(grid, to_half(np.stack([u1, u2, b1, b2]))))
    g1 += grid.ik2 * b1
    g2 += grid.ik2 * b2
    p1, p2 = project_divergence_free(grid, g1, g2)
    resid1, resid2 = g1 - p1, g2 - p2
    p_hat = forward_transform(compute_pressure(small_state)).coeffs
    assert np.max(np.abs(grid.ik1 * p_hat - resid1)) < 1e-10
    assert np.max(np.abs(grid.ik2 * p_hat - resid2)) < 1e-10


def test_skew_defect_analytic(grid):
    u = VectorField(
        forward_transform(ScalarField(grid, np.sin(grid.x2))),
        forward_transform(ScalarField(grid, np.zeros((32, 32)))),
    )
    f = ScalarField(grid, np.cos(grid.x1))
    assert transport_skew_defect(u, f) < 1e-12


def test_l2_energy_matches_quadrature(grid, small_state):
    from mhd2tor.spectral import ifft_samples

    total = 0.0
    for c in small_state.coeff_arrays():
        phys = ifft_samples(grid, c).real
        total += np.sum(phys**2) * grid.spacing**2
    assert np.isclose(l2_energy(small_state), 0.5 * total, rtol=1e-12)


def test_grad_b_l2_sq_value(grid):
    zero = np.zeros((32, 32), dtype=np.complex128)
    b1 = forward_transform(ScalarField(grid, np.sin(grid.x2))).coeffs
    st = state_from_arrays(grid, 0.0, zero, zero.copy(), b1, zero.copy())
    # ||grad sin(x2)||^2 = ||cos(x2)||^2 = (2 pi)^2 / 2
    assert np.isclose(grad_b_l2_sq(st), MEASURE / 2, rtol=1e-13)


def test_energy_balance_series_exact_exponential():
    # e(t) = e0 exp(-2t) with dissipation 2 e0 exp(-2t) satisfies the law;
    # densely sampled, the trapezoid residual is O(h^2)
    ts = np.linspace(0.0, 1.0, 2001)
    es = np.exp(-2 * ts)
    ds = 2 * np.exp(-2 * ts)
    assert energy_balance_series(ts, es, ds) < 1e-6


def test_energy_balance_needs_samples():
    with pytest.raises(InsufficientSamples):
        energy_balance_series(np.array([0.0]), np.array([1.0]), np.array([0.0]))
