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
from mhd2tor.errors import InsufficientSamples, NonFiniteTendency
from mhd2tor.spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    derivative_multiplier,
    divergence_defect,
    forward_transform,
    project_divergence_free,
    resample,
    to_full,
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
    dx = rhs_perturbation(st)
    assert dx.shape == st.x.shape
    assert np.max(np.abs(dx)) == 0.0


def test_tendencies_divergence_free(grid, small_state):
    dx = rhs_perturbation(small_state)
    assert divergence_defect(grid.half, dx[0], dx[1]) < 1e-10
    assert divergence_defect(grid.half, dx[2], dx[3]) < 1e-10


def test_tendency_zero_mode_zero(grid, small_state):
    dx = rhs_perturbation(small_state)
    assert np.all(dx[:, 0, 0] == 0.0)


def test_linear_tendency_is_coupling(grid, small_state):
    dx = rhs_perturbation(small_state, nonlinear=False, coupling=True)
    u1, u2, b1, b2 = small_state.coeff_arrays()
    ik2 = derivative_multiplier(grid, (0, 1))
    e1, e2 = project_divergence_free(grid, ik2 * b1, ik2 * b2)
    f1, f2 = project_divergence_free(grid, ik2 * u1, ik2 * u2)
    du1, du2, db1, db2 = to_full(dx)
    assert np.max(np.abs(du1 - e1)) < 1e-15
    assert np.max(np.abs(du2 - e2)) < 1e-15
    assert np.max(np.abs(db1 - (f1 - grid.ksq * b1))) < 1e-15
    assert np.max(np.abs(db2 - (f2 - grid.ksq * b2))) < 1e-15


def test_stiff_part_is_laplacian(grid, small_state):
    """With the soft terms off, dx/dt is exactly (0, 0, Lap b)."""
    dx = to_full(rhs_perturbation(small_state, nonlinear=False, coupling=False))
    _, _, b1, b2 = small_state.coeff_arrays()
    assert np.max(np.abs(dx[:2])) == 0.0
    assert np.max(np.abs(dx[2] + grid.ksq * b1)) == 0.0
    assert np.max(np.abs(dx[3] + grid.ksq * b2)) == 0.0


def test_total_matches_perturbation(grid, small_state):
    """Forming the RHS from B = b + e2 directly agrees with the perturbation
    form: the extra e2 terms are exactly the coupling terms."""
    dx_t = rhs_total(small_state)
    dx_p = rhs_perturbation(small_state)
    scale = max(np.max(np.abs(dx_p[0])), 1e-30)
    assert np.max(np.abs(dx_t - dx_p)) < 1e-12 * max(scale, 1.0)
    assert small_state.x[3, 0, 0] == 0.0  # e2 is added to a copy


@pytest.mark.parametrize("rhs", [rhs_perturbation, rhs_total])
def test_non_finite_tendency_raises(small_state, rhs):
    small_state.x[2, 1, 1] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NonFiniteTendency):
        rhs(small_state)


def test_resolution_independence(small_state):
    """Band-limited states give the same tendency coefficients on finer grids."""
    big = GridSpec(48)
    arrays = [resample(c, big) for c in (small_state.u.c1, small_state.u.c2,
                                         small_state.b.c1, small_state.b.c2)]
    st_big = state_from_arrays(big, 0.0, *(a.coeffs for a in arrays))
    du1_small = to_full(rhs_perturbation(small_state))[0]
    du1_big = to_full(rhs_perturbation(st_big))[0]
    shrunk = resample(SpectralScalar(big, du1_big), small_state.grid)
    assert np.max(np.abs(shrunk.coeffs - du1_small)) < 1e-8


def test_pressure_closes_leray_residual(grid, small_state):
    """grad p must equal the part of the u tendency removed by projection."""
    from mhd2tor.dynamics import _quadratic_arrays

    u1, u2, b1, b2 = small_state.coeff_arrays()
    ik1, ik2 = (derivative_multiplier(grid, a) for a in ((1, 0), (0, 1)))
    g1, g2, _, _ = to_full(_quadratic_arrays(grid, small_state.x))
    g1 += ik2 * b1
    g2 += ik2 * b2
    p1, p2 = project_divergence_free(grid, g1, g2)
    resid1, resid2 = g1 - p1, g2 - p2
    p_hat = forward_transform(compute_pressure(small_state)).coeffs
    assert np.max(np.abs(ik1 * p_hat - resid1)) < 1e-10
    assert np.max(np.abs(ik2 * p_hat - resid2)) < 1e-10


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
        phys = ifft_samples(grid, c)
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
