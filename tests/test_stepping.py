import numpy as np
import pytest

from mhd2tor.errors import StepTooSmall
from mhd2tor.spectral import GridSpec, forward_transform, ScalarField
from mhd2tor.stepping import StepperConfig, _heat_factors, cfl_dt, run, step_ifrk4
from mhd2tor.symmetry import (
    InitialDataSpec,
    make_initial_data,
    state_from_arrays,
    symmetry_defect,
)


@pytest.fixture
def grid():
    return GridSpec(32)


def zero_state(grid):
    zero = np.zeros((grid.n, grid.n), dtype=np.complex128)
    return state_from_arrays(grid, 0.0, zero, zero.copy(), zero.copy(), zero.copy())


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        StepperConfig(t_end=1.0, dt_min=1e-2, dt_max=1e-3)
    with pytest.raises(ValueError):
        StepperConfig(t_end=-1.0)


def test_cfl_uses_total_field(grid):
    # zero perturbation still advects against the background e2 at speed 1
    cfg = StepperConfig(t_end=1.0, cfl=0.4, dt_max=1.0)
    dt = cfl_dt(zero_state(grid), cfg)
    assert np.isclose(dt, 0.4 * grid.spacing, rtol=1e-9)


def test_cfl_step_too_small(grid):
    cfg = StepperConfig(t_end=1.0, dt_min=1e-3, dt_max=1e-2, cfl=0.4)
    st = make_initial_data(InitialDataSpec(epsilon=1e6, s=2, seed=1), grid)
    with pytest.raises(StepTooSmall):
        cfl_dt(st, cfg)


def test_zero_state_stays_zero(grid):
    st = zero_state(grid)
    for _ in range(10):
        st = step_ifrk4(st, 1e-2)
    assert all(np.max(np.abs(c)) == 0.0 for c in st.coeff_arrays())


def test_pure_diffusion_exact(grid):
    """With all soft terms off, b follows the heat semigroup to roundoff."""
    zero = np.zeros((32, 32), dtype=np.complex128)
    b1 = forward_transform(ScalarField(grid, np.sin(2 * grid.x2))).coeffs
    st = state_from_arrays(grid, 0.0, zero, zero.copy(), b1.copy(), zero.copy())
    dt, n_steps = 0.05, 20
    for _ in range(n_steps):
        st = step_ifrk4(st, dt, nonlinear=False, coupling=False)
    expected = b1 * np.exp(-4.0 * dt * n_steps)
    got = st.coeff_arrays()[2]
    idx = np.abs(b1) > 1e-6 * np.max(np.abs(b1))
    assert np.max(np.abs(got[idx] - expected[idx]) / np.abs(expected[idx])) < 1e-13


def test_step_preserves_class(grid):
    st = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=2), grid)
    for _ in range(20):
        st = step_ifrk4(st, 5e-3)
    assert symmetry_defect(st) < 1e-12


def test_step_conserves_means_bitwise(grid):
    """The exact flow conserves the mean of every component; every stage
    tendency has a zero k = 0 mode, so the step keeps it bit for bit."""
    st = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=6), grid)
    arrays = [c.copy() for c in st.coeff_arrays()]
    means = (0.3, -0.2, 0.1, 0.25)
    for c, m in zip(arrays, means):
        c[0, 0] = m
    st = state_from_arrays(grid, 0.0, *arrays)
    for _ in range(10):
        st = step_ifrk4(st, 5e-3)
    assert [c[0, 0] for c in st.coeff_arrays()] == list(means)
    assert np.max(np.abs(st.coeff_arrays()[0] - arrays[0])) > 0  # it did move


def test_step_deterministic(grid):
    st0 = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=3), grid)
    a = step_ifrk4(st0, 1e-2)
    b = step_ifrk4(st0, 1e-2)
    for x, y in zip(a.coeff_arrays(), b.coeff_arrays()):
        assert np.array_equal(x, y)


def test_run_lands_on_sample_times(grid):
    st0 = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=5), grid)
    times = []
    run(st0, StepperConfig(t_end=0.55), 0.1, lambda rec, st: times.append(rec.t))
    assert times[0] == 0.0
    assert np.allclose(times[1:6], [0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)
    assert np.isclose(times[-1], 0.55, atol=1e-12)


def test_heat_factor_cache_stays_small(grid):
    """A CFL-bound dt changes on every step and must not pile up cache
    entries; a dt_max-bound run repeats one dt and must keep hitting."""
    st0 = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=5), grid)
    _heat_factors.cache_clear()
    run(st0, StepperConfig(t_end=0.5, dt_max=1.0), 0.1, lambda rec, st: None)
    info = _heat_factors.cache_info()
    assert info.misses >= 8
    assert info.currsize <= 4
    _heat_factors.cache_clear()
    run(st0, StepperConfig(t_end=0.3), 0.1, lambda rec, st: None)
    assert _heat_factors.cache_info().hits >= 20
    assert _heat_factors(grid, 1e-2)[0].shape == (grid.n // 2 + 1, grid.n)


def test_run_invalid_sample_spacing(grid):
    st0 = zero_state(grid)
    with pytest.raises(ValueError):
        run(st0, StepperConfig(t_end=1.0), 0.0, lambda rec, st: None)
