"""Negative controls of the verification sweeps behind criteria 02, 03 and
09: a stepper of lower accuracy or lower order, or a derivative multiplier
with the wrong Nyquist convention, must fail them.  And the state that
criterion 02 draws is real, divergence-free and has every mode."""

import numpy as np

import mhd2tor.verify as verify
from mhd2tor.dynamics import _rhs_arrays
from mhd2tor.spectral import GridSpec, derivative_multiplier, divergence_defect, inverse_transform
from mhd2tor.stepping import _heat_factors, _propagate
from mhd2tor.symmetry import MHDState, _mode_list


def _apply(P, x):
    """P x on the stacked (u1, u2, b1, b2) half spectra, out of place."""
    return _propagate(P, np.empty((2,) + x[:2].shape, dtype=x.dtype), x, np.empty_like(x))


def _lawson_rk2(st, dt, nonlinear=True, coupling=True):
    """Lawson's midpoint step, second order: x_new = P(P x + h k2) with
    k2 = N(P(x + h/2 k1)) and P = exp(dt/2 L)."""
    grid, x = st.grid, st.x
    P = _heat_factors(grid, 0.5 * dt, coupling)
    k1 = _rhs_arrays(grid, x)
    k2 = _rhs_arrays(grid, _apply(P, x + 0.5 * dt * k1))
    return MHDState(grid, st.t + dt, _apply(P, _apply(P, x) + dt * k2))


def _diffusion_ifrk4(st, dt, nonlinear=False, coupling=True):
    """Integrating-factor RK4 with the diffusion alone in the factor and the
    coupling (d2 b, d2 u) explicit in every stage: linear runs only."""
    half = st.grid.half
    e = np.ones((4,) + half.ksq.shape)
    e[2:] = np.exp(-0.5 * dt * half.ksq)

    def f(x):
        return np.concatenate([half.ik2 * x[2:], half.ik2 * x[:2]]) if coupling else 0 * x

    x = st.x
    k1 = f(x)
    k2 = f(e * (x + 0.5 * dt * k1))
    k3 = f(e * x + 0.5 * dt * k2)
    k4 = f(e * e * x + dt * e * k3)
    x_new = e * e * x + dt / 6.0 * (e * e * k1 + 2.0 * e * (k2 + k3) + k4)
    return MHDState(st.grid, st.t + dt, x_new)


def test_second_order_step_fails_the_order_check(monkeypatch):
    """Criterion 09's study reads a slope near 2 for a second-order Lawson
    step, outside 4.0 +- 0.2."""
    monkeypatch.setattr(verify, "step_ifrk4", _lawson_rk2)
    (row,) = verify.verify_order()
    assert not row.passed and abs(row.value - 2.0) < 0.3


def test_explicit_coupling_fails_the_linear_limit(monkeypatch):
    """Criterion 02's 1e-11 mode bound refuses the stepper that keeps the
    coupling explicit (its mode error is about 1e-10), while its pure
    diffusion stays exact."""
    monkeypatch.setattr(verify, "step_ifrk4", _diffusion_ifrk4)
    rows = {r.name: r for r in verify.verify_linear(n=16, kmax=4)}
    mode = rows["linearized_mode_rel_err"]
    assert not mode.passed and 1e-11 < mode.value < 1e-8
    assert rows["pure_diffusion_rel_err"].passed


def test_nyquist_column_kept_fails_the_oracle_check(monkeypatch):
    """Criterion 03's derivative error is relative to the largest oracle
    value (about 2e-15 on the fast path); a (0, 3) multiplier that keeps the
    Nyquist column, which an odd order along k2 must zero, reads about 0.7."""
    (row,) = [r for r in verify.verify_oracle(n=16) if r.name == "dft_derivative_rel_err"]
    assert row.passed and row.value < 1e-14

    def keeps_nyquist(grid, alpha):
        if alpha == (0, 3):
            return (1j * grid.k2) ** 3
        return derivative_multiplier(grid, alpha)

    monkeypatch.setattr(verify, "derivative_multiplier", keeps_nyquist)
    (row,) = [r for r in verify.verify_oracle(n=16) if r.name == "dft_derivative_rel_err"]
    assert not row.passed and 0.5 < row.value < 1.0


def test_multimode_state_is_real_divergence_free_and_full():
    """Every component of ``multimode_linear_state`` transforms to real
    samples (no HermitianViolation: the factor i of i k_perp/|k| keeps row
    k1 = 0 Hermitian), both fields are divergence-free within 1e-14, and
    every mode of ``_mode_list(kmax)`` holds a nonzero amplitude pair."""
    grid, kmax = GridSpec(16), 4
    st, amps = verify.multimode_linear_state(grid, kmax, seed=0)
    for field in (st.u, st.b):
        for component in (field.c1, field.c2):
            inverse_transform(component)
    x = st.x
    assert divergence_defect(grid.half, x[0], x[1]) <= 1e-14
    assert divergence_defect(grid.half, x[2], x[3]) <= 1e-14
    assert sorted(amps) == sorted(_mode_list(kmax))
    assert all(a != 0 and c != 0 for a, c in amps.values())
