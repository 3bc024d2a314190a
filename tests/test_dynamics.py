import numpy as np
import pytest

from mhd2tor import dynamics, spectral, symmetry
from mhd2tor.config import RunConfig
from mhd2tor.driver import simulate
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
    fft_coeffs,
    forward_transform,
    ifft_samples,
    project_divergence_free,
    resample,
    to_full,
)
from mhd2tor.stepping import step_ifrk4
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


@pytest.mark.parametrize("nonlinear", [True, False])
def test_run_loop_makes_no_projection(tmp_path, monkeypatch, nonlinear):
    """Divergence is kept by the tendency multipliers: a run works with the
    Leray projection made to raise everywhere but in the initial-data draw."""
    drawing, projected = [], []

    def refuse(*args):
        if not drawing:
            raise AssertionError("projection outside the initial-data draw")
        projected.append(True)
        return project(*args)

    def draw(*args, **kwargs):
        drawing.append(True)
        try:
            return draw_class(*args, **kwargs)
        finally:
            drawing.pop()

    project, draw_class = spectral._project_in_place, symmetry._draw_class
    for module in (spectral, symmetry):
        monkeypatch.setattr(module, "_project_in_place", refuse)
    monkeypatch.setattr(symmetry, "_draw_class", draw)
    cfg = RunConfig(
        n=32, s=2, epsilon=0.1, t_end=0.2, sample_every=0.05, snapshot_every=0.1,
        nonlinearity=nonlinear,
    )
    assert simulate(cfg, str(tmp_path / "out")) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "status = ok" in summary and "t_final = 0.20000000000000001" in summary
    assert projected  # the draw's projection went through the patch


def test_unprojected_multipliers_lose_divergence(monkeypatch):
    """Negative control: with the divergence-form multipliers of the u
    tendency left unprojected, div u leaves roundoff within 100 steps at
    n=64 and crosses criterion 05's bound; with P folded in it stays there."""
    grid = GridSpec(64)
    curl = dynamics._multipliers(grid)[1]
    r = dynamics._band_rows(grid)
    d1, d2 = grid.half.ik_stack[:, :r] * grid.half.dealias_mask[:r]
    unprojected = np.stack([[-d1, -d2], [d2, -d1]])

    def worst_defect():
        st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
        worst = 0.0
        for _ in range(100):
            st = step_ifrk4(st, 1e-2)
            worst = max(worst, divergence_defect(grid.half, st.x[0], st.x[1]))
        return worst

    assert worst_defect() < 1e-14
    patched = (unprojected, curl, *dynamics._split(unprojected, curl))
    monkeypatch.setattr(dynamics, "_multipliers", lambda g: patched)
    assert worst_defect() > 1e-10


def test_split_multipliers_freed_with_the_multipliers():
    """The packed kernel's multipliers are kept in the one cache entry of
    ``_multipliers``, with those of the general kernel: after packed
    right-hand sides on n = 16 ... 56, six grids against its four, all five
    arrays of n = 16 are freed."""
    import gc
    import weakref

    grid = GridSpec(16)
    refs = [weakref.ref(a) for a in dynamics._multipliers(grid)]
    for n in range(16, 64, 8):
        st = make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=n), GridSpec(n))
        dynamics._rhs_arrays(st.grid, symmetry._pack(st.x))
    gc.collect()
    assert [r() is None for r in refs] == [True] * 5


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


def _linear_rhs(st):
    return rhs_perturbation(st, nonlinear=False)


@pytest.mark.parametrize(
    "rhs, mode",
    [(rhs_perturbation, (2, 1, 1)), (rhs_total, (2, 1, 1)), (_linear_rhs, (3, 0, 0))],
    ids=["rhs_perturbation", "rhs_total", "linear_mean_mode"],
)
def test_non_finite_tendency_raises(small_state, rhs, mode):
    """An infinite coefficient, the mean mode included, gives a non-finite
    tendency: no write to k = 0 may turn it into a finite one."""
    small_state.x[mode] = np.inf
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


def _advective_u_tendency(grid, st):
    """-u.grad u + b.grad b + d2 b before projection, full spectra, formed in
    advective form from dealiased samples with the public transforms."""
    mask = grid.dealias_mask
    ik = [derivative_multiplier(grid, a) for a in ((1, 0), (0, 1))]
    fields = [mask * c for c in st.coeff_arrays()]
    U1, U2, B1, B2 = (ifft_samples(grid, c) for c in fields)
    grads = [[ifft_samples(grid, d * c) for d in ik] for c in fields]
    g = [
        -(U1 * grads[i][0] + U2 * grads[i][1]) + B1 * grads[i + 2][0] + B2 * grads[i + 2][1]
        for i in (0, 1)
    ]
    return [mask * fft_coeffs(grid, gi) + ik[1] * c for gi, c in zip(g, fields[2:])]


def test_pressure_closes_leray_residual(grid, small_state):
    """grad p must equal the part of the u tendency removed by projection."""
    ik1, ik2 = (derivative_multiplier(grid, a) for a in ((1, 0), (0, 1)))
    g1, g2 = _advective_u_tendency(grid, small_state)
    p1, p2 = project_divergence_free(grid, g1, g2)
    resid1, resid2 = g1 - p1, g2 - p2
    assert np.max(np.abs(resid1)) > 1e-8  # well above the bounds below
    p_hat = forward_transform(compute_pressure(small_state)).coeffs
    assert np.max(np.abs(ik1 * p_hat - resid1)) < 1e-10
    assert np.max(np.abs(ik2 * p_hat - resid2)) < 1e-10


def _taylor_green(grid):
    s1 = forward_transform(ScalarField(grid, np.sin(grid.x1) * np.cos(grid.x2))).coeffs
    s2 = forward_transform(ScalarField(grid, -np.cos(grid.x1) * np.sin(grid.x2))).coeffs
    return s1, s2


@pytest.mark.parametrize("field, sign", [("u", 1.0), ("b", -1.0)])
def test_pressure_taylor_green(field, sign):
    """u = (sin x1 cos x2, -cos x1 sin x2) with b = 0 has the pressure
    (cos 2x1 + cos 2x2)/4; the same field as b with u = 0 has its negative."""
    grid = GridSpec(16)
    zero = np.zeros((16, 16), dtype=np.complex128)
    tg = _taylor_green(grid)
    arrays = (*tg, zero, zero.copy()) if field == "u" else (zero, zero.copy(), *tg)
    st = state_from_arrays(grid, 0.0, *arrays)
    expected = sign * (np.cos(2 * grid.x1) + np.cos(2 * grid.x2)) / 4
    assert np.max(np.abs(compute_pressure(st).samples - expected)) < 1e-12


def test_skew_defect_analytic(grid):
    u = VectorField(
        forward_transform(ScalarField(grid, np.sin(grid.x2))),
        forward_transform(ScalarField(grid, np.zeros((32, 32)))),
    )
    f = ScalarField(grid, np.cos(grid.x1))
    assert transport_skew_defect(u, f) < 1e-12


def test_l2_energy_matches_quadrature(grid, small_state):
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
