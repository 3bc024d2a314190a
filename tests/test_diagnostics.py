import numpy as np
import pytest

from mhd2tor.diagnostics import (
    EnergyLedger,
    EnergyParams,
    SQRT2,
    decay_fit,
    instantaneous,
    ledger_update,
    poincare_check,
)
from mhd2tor.errors import (
    InsufficientSamples,
    NonMonotoneTime,
    NonPositiveValue,
    NotInClass,
)
from mhd2tor.dynamics import grad_b_l2_sq, l2_energy
from mhd2tor.spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    divergence_defect,
    forward_transform,
    inverse_transform,
    partial_derivative,
    sobolev_norm,
)
from mhd2tor.symmetry import InitialDataSpec, make_initial_data, random_class_velocity, state_from_arrays


@pytest.fixture
def grid():
    return GridSpec(32)


def test_energy_params_validation():
    with pytest.raises(ValueError):
        EnergyParams(s=1)


def test_instantaneous_orders(grid):
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=1), grid)
    rec = instantaneous(st, EnergyParams(2))
    assert set(rec.norm_u) == {2, 3, 4, 5}
    assert set(rec.norm_b) == {2, 3, 4, 5, 6}
    assert set(rec.norm_d2u) == {2, 4}
    assert rec.norm_u[5] == pytest.approx(sobolev_norm(st.u, 5), rel=1e-14)
    # Sobolev norms are monotone in the order
    assert rec.norm_u[2] <= rec.norm_u[3] <= rec.norm_u[4] <= rec.norm_u[5]


@pytest.mark.parametrize("seed", range(10))
def test_half_spectrum_row_weights(seed):
    """Norms, energies and defects read from the stored half spectrum equal
    the full-spectrum route on a state whose Nyquist row and column are
    nonzero (rows 0 and n/2 count once, every other stored row twice)."""
    grid = GridSpec(16)
    samples = np.random.default_rng(seed).standard_normal((4, 16, 16))
    st = state_from_arrays(grid, 0.0, *np.fft.fft2(samples) / 256)
    # fft2 output is Hermitian to roundoff; the state's full view exactly
    full = st.coeff_arrays()
    assert all(np.min(np.abs(c[8, 1:])) > 0 and np.min(np.abs(c[1:, 8])) > 0 for c in full)
    u = VectorField(SpectralScalar(grid, full[0]), SpectralScalar(grid, full[1]))
    b = VectorField(SpectralScalar(grid, full[2]), SpectralScalar(grid, full[3]))
    d2u = VectorField(partial_derivative(u.c1, (0, 1)), partial_derivative(u.c2, (0, 1)))
    rec = instantaneous(st, EnergyParams(2))
    for norms, v in ((rec.norm_u, u), (rec.norm_b, b), (rec.norm_d2u, d2u)):
        for m, value in norms.items():
            assert value == pytest.approx(sobolev_norm(v, m), rel=1e-13)
    energy = 0.5 * (sobolev_norm(u, 0) ** 2 + sobolev_norm(b, 0) ** 2)
    assert rec.l2_energy == l2_energy(st) == pytest.approx(energy, rel=1e-13)
    # mu_1 - mu_0 = |k|^2
    grad_b = sobolev_norm(b, 1) ** 2 - sobolev_norm(b, 0) ** 2
    assert rec.grad_b_l2_sq == grad_b_l2_sq(st) == pytest.approx(grad_b, rel=1e-13)
    assert rec.div_defect_u == divergence_defect(grid, full[0], full[1])
    assert rec.div_defect_b == divergence_defect(grid, full[2], full[3])
    assert rec.mean_abs_max == MEASURE * max(abs(c[0, 0].real) for c in full)


def test_ledger_single_record(grid):
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=1), grid)
    rec = instantaneous(st, EnergyParams(2))
    led = ledger_update(EnergyLedger(2), rec)
    assert led.int0 == 0.0 and led.int1 == 0.0
    assert led.sup0 == pytest.approx(rec.norm_u[5] ** 2 + rec.norm_b[5] ** 2)
    assert led.e0 == led.sup0


def test_ledger_constant_integrand():
    led = EnergyLedger(2)
    fake = lambda t, c: type(
        "R", (), dict(
            t=t,
            norm_u={3: 0.0, 5: 0.0},
            norm_b={3: 0.0, 4: np.sqrt(c), 5: 0.0, 6: np.sqrt(c)},
            norm_d2u={2: 0.0, 4: 0.0},
        )
    )()
    ledger_update(led, fake(0.0, 1.0))
    ledger_update(led, fake(1.0, 1.0))
    assert led.int0 == pytest.approx(1.0)  # trapezoid of a constant over dt=1


def test_ledger_monotone_time():
    led = EnergyLedger(2)
    rec = type("R", (), dict(t=1.0, norm_u={3: 0, 5: 0}, norm_b={3: 0, 4: 0, 5: 0, 6: 0},
                             norm_d2u={2: 0, 4: 0}))()
    ledger_update(led, rec)
    rec.t = 0.5
    with pytest.raises(NonMonotoneTime):
        ledger_update(led, rec)


def test_ledger_matches_analytic_decay(grid):
    """b(t) = e^{-t} cos(x1), u = 0: int0 = mu_6(1,0) * (2pi)^2/2 * (1-e^{-2T})/2."""
    zero = np.zeros((32, 32), dtype=np.complex128)
    b0 = forward_transform(ScalarField(grid, np.cos(grid.x1))).coeffs
    led = EnergyLedger(2)
    params = EnergyParams(2)
    h, T = 1e-2, 1.0
    for i in range(int(T / h) + 1):
        t = i * h
        st = state_from_arrays(grid, t, zero, zero, np.exp(-t) * b0, zero)
        ledger_update(led, instantaneous(st, params))
    mu6 = grid.sobolev_multiplier(6)[1, 0]
    # two conjugate modes at k = (+-1, 0), each carrying |b|^2 = 1/4 e^{-2t}
    exact = mu6 * (2 * np.pi) ** 2 * 2 * 0.25 * (1 - np.exp(-2 * T)) / 2
    assert led.int0 == pytest.approx(exact, rel=1e-4)


def test_poincare_bound_and_cz(grid):
    worst = 0.0
    for seed in range(20):
        u = random_class_velocity(grid, seed=seed)
        for k in (0, 1, 2):
            lhs, rhs, ratio = poincare_check(u, k)
            worst = max(worst, ratio)
            assert lhs <= SQRT2 * rhs * (1 + 1e-12)
    assert worst <= SQRT2 + 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_poincare_accepts_physical_fields(grid, seed):
    """A physical VectorField gives the spectral field's (lhs, rhs, ratio)."""
    u = random_class_velocity(grid, seed=seed)
    phys = VectorField(inverse_transform(u.c1), inverse_transform(u.c2))
    for k in (0, 2):
        for got, want in zip(poincare_check(phys, k), poincare_check(u, k)):
            assert got == pytest.approx(want, rel=1e-12)


def test_poincare_rejects_out_of_class(grid):
    # u1 = sin(x2) is odd in x2, violating the class parity (u1 must be even)
    c1_bad = np.zeros((32, 32), dtype=np.complex128)
    c1_bad[0, 1] = -0.5j
    c1_bad[0, -1] = 0.5j
    u_bad = VectorField(SpectralScalar(grid, c1_bad), SpectralScalar(grid, np.zeros_like(c1_bad)))
    with pytest.raises(NotInClass):
        poincare_check(u_bad, 0)


def test_decay_fit_recovers_exponent():
    ts = np.linspace(0.0, 10.0, 101)
    series = [(t, 3.0 * (1 + t) ** -1.5) for t in ts]
    assert decay_fit(series) == pytest.approx(-1.5, abs=1e-12)


def test_decay_fit_errors():
    with pytest.raises(InsufficientSamples):
        decay_fit([(2.0, 1.0)] * 3)
    series = [(float(t), -1.0) for t in range(1, 20)]
    with pytest.raises(NonPositiveValue):
        decay_fit(series)
