"""Acceptance suite: ten quantitative criteria, one pass/fail line each.

The lines are echoed in the terminal summary at the end of the pytest run
(see conftest.py).  Criteria 5 and 6 share one set of five seeded n=64
trajectories; criterion 8 is the theorem-shaped boundedness/decay check and
dominates the runtime (a few minutes).
"""

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES

from mhd2tor.diagnostics import (
    EnergyLedger,
    EnergyParams,
    SQRT2,
    decay_fit,
    instantaneous,
    ledger_update,
)
from mhd2tor.dynamics import energy_balance_series, grad_b_l2_sq, l2_energy
from mhd2tor.spectral import GridSpec
from mhd2tor.stepping import StepperConfig, run, step_ifrk4
from mhd2tor.symmetry import InitialDataSpec, make_initial_data, state_from_arrays
from mhd2tor.verify import (
    convergence_slope,
    verify_linear,
    verify_oracle,
    verify_poincare,
    verify_skew,
)

pytestmark = pytest.mark.acceptance


def report(num: int, name: str, ok: bool, detail: str):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# --- criterion 1: equilibrium steadiness --------------------------------------


def test_01_equilibrium_steady():
    grid = GridSpec(32)
    zero = np.zeros((32, 32), dtype=np.complex128)
    st = state_from_arrays(grid, 0.0, zero, zero.copy(), zero.copy(), zero.copy())
    final = run(st, StepperConfig(t_end=10.0), 1.0, lambda rec, s: None)
    rec = instantaneous(final, EnergyParams(2))
    worst = max(
        max(rec.norm_u.values()), max(rec.norm_b.values()), max(rec.norm_d2u.values())
    )
    report(1, "equilibrium steadiness to t=10", worst < 1e-13, f"max norm {worst:.2e} < 1e-13")


# --- criterion 2: linear-limit exactness --------------------------------------


def test_02_linear_limit():
    rows = {r.name: r for r in verify_linear(n=16, kmax=4)}
    mode = rows["linearized_mode_rel_err"]
    diff = rows["pure_diffusion_rel_err"]
    ok = mode.passed and diff.passed
    report(
        2, "linear limit vs per-mode oracle", ok,
        f"mode rel err {mode.value:.2e} < 1e-11, diffusion rel err {diff.value:.2e} < 1e-13",
    )


# --- criterion 3: oracle equivalence ------------------------------------------


def test_03_oracle_equivalence():
    rows = verify_oracle(n=16)
    ok = all(r.passed for r in rows)
    detail = ", ".join(f"{r.name} {r.value:.2e}" for r in rows)
    report(3, "FFT vs direct-DFT oracle", ok, detail)


# --- criterion 4: anisotropic Poincare at sqrt(2) -----------------------------


def test_04_poincare_sqrt2():
    rows = {r.name: r for r in verify_poincare(n_samples=100, ks=(0, 1, 2))}
    ratio = rows["poincare_ratio_max"]
    cz = rows["calderon_zygmund_rel_err"]
    ok = ratio.passed and cz.passed
    report(
        4, "Poincare ratio <= sqrt(2) and CZ equality", ok,
        f"max ratio {ratio.value:.6f} <= {SQRT2:.6f}+1e-8, CZ rel err {cz.value:.2e} < 1e-10",
    )


# --- criteria 5 + 6: shared nonlinear persistence runs -------------------------


@pytest.fixture(scope="module")
def persistence_runs():
    """Five seeded n=64 small-data runs to t=20 with per-step energy history.

    dt = 1e-3 while the trapezoid error of the energy law accrues (t <= 5),
    then 5e-3; the residual contribution of the tail is O(e^{-5}) smaller.
    """
    grid = GridSpec(64)
    params = EnergyParams(2)
    out = []
    for seed in range(1, 6):
        st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=seed), grid)
        ts, es, ds = [0.0], [l2_energy(st)], [grad_b_l2_sq(st)]
        worst = {"sym": 0.0, "div": 0.0, "mean": 0.0}

        def probe(state):
            rec = instantaneous(state, params)
            worst["sym"] = max(worst["sym"], rec.symmetry_defect)
            worst["div"] = max(worst["div"], rec.div_defect_u, rec.div_defect_b)
            worst["mean"] = max(worst["mean"], rec.mean_abs_max)

        probe(st)
        t = 0.0
        for dt, t_stop, check_every in ((1e-3, 5.0, 500), (5e-3, 20.0, 100)):
            n_steps = int(round((t_stop - t) / dt))
            for i in range(1, n_steps + 1):
                st = step_ifrk4(st, dt)
                ts.append(t + i * dt)
                es.append(l2_energy(st))
                ds.append(grad_b_l2_sq(st))
                if i % check_every == 0:
                    probe(st)
            t = t_stop
        residual = energy_balance_series(np.array(ts), np.array(es), np.array(ds))
        out.append((seed, worst, residual))
    return out


def test_05_symmetry_persistence(persistence_runs):
    sym = max(w["sym"] for _, w, _ in persistence_runs)
    div = max(w["div"] for _, w, _ in persistence_runs)
    mean = max(w["mean"] for _, w, _ in persistence_runs)
    ok = sym < 1e-10 and div < 1e-10 and mean < 1e-12
    report(
        5, "symmetry persistence over 5 seeds to t=20", ok,
        f"max defects: symmetry {sym:.2e} < 1e-10, divergence {div:.2e} < 1e-10, mean {mean:.2e} < 1e-12",
    )


def test_06_energy_law(persistence_runs):
    residual = max(r for _, _, r in persistence_runs)
    report(
        6, "exact L2 energy law on the same runs", residual < 1e-6,
        f"max balance residual {residual:.2e} < 1e-6",
    )


# --- criterion 7: transport skew-symmetry --------------------------------------


def test_07_skew_cancellation():
    rows = verify_skew(n_samples=100)
    worst = rows[0].value
    report(
        7, "transport cancellation over 100 draws", worst < 1e-10,
        f"max skew defect {worst:.2e} < 1e-10",
    )


# --- criterion 8: theorem-shaped boundedness and decay --------------------------


def _theorem_run(epsilon: float):
    grid = GridSpec(64)
    st0 = make_initial_data(
        InitialDataSpec(epsilon=epsilon, s=2, seed=1, max_wavenumber=2, spectrum_decay=3.0),
        grid,
    )
    led = EnergyLedger(2)
    e_series, b_series, u_series = [], [], []

    def sink(rec, st):
        ledger_update(led, rec)
        e_series.append((rec.t, led.total))
        b_series.append((rec.t, rec.norm_b[3]))
        u_series.append((rec.t, (1.0 + rec.t) ** 2 * rec.norm_u[3] ** 2))

    run(st0, StepperConfig(t_end=50.0), 0.1, sink, energy_params=EnergyParams(2))
    e0 = e_series[0][1]
    max_ratio = max(v for _, v in e_series) / e0
    fit = decay_fit(b_series, t_start=5.0)
    sup_u_ratio = max(v for _, v in u_series) / u_series[0][1]
    ok = max_ratio <= 4.0 * 1.5 and fit <= -0.9 and sup_u_ratio <= 10.0
    return ok, max_ratio, fit, sup_u_ratio


def test_08_theorem_bound_and_decay():
    epsilon = 1e-2
    for attempt in range(5):  # initial try plus at most 4 halvings
        ok, max_ratio, fit, sup_u = _theorem_run(epsilon)
        if ok:
            break
        epsilon /= 2.0
    report(
        8, "energy boundedness and decay (theorem-shaped)", ok,
        f"epsilon {epsilon:.1e}: sup E(t)/E(0) {max_ratio:.2f} <= 6, "
        f"b-decay fit {fit:.2f} <= -0.9, weighted-u sup ratio {sup_u:.2f} <= 10",
    )


# --- criterion 9: integrator order ----------------------------------------------


def test_09_integrator_order():
    slope = convergence_slope()
    ok = abs(slope - 4.0) <= 0.2
    report(9, "RK4 refinement slope", ok, f"observed order {slope:.3f} in 4.0 +- 0.2")


# --- criterion 10: reproducibility plumbing --------------------------------------


def test_10_reproducibility(tmp_path):
    from mhd2tor.checkpoint import read_checkpoint
    from mhd2tor.config import RunConfig
    from mhd2tor.driver import simulate, resume

    cfg = dict(n=32, s=2, epsilon=1e-2, t_end=1.0, seed=5, snapshot_every=0.5)
    a, b = tmp_path / "a", tmp_path / "b"
    assert simulate(RunConfig(**cfg), outdir=str(a)) == 0
    assert simulate(RunConfig(**cfg), outdir=str(b)) == 0
    identical = (a / "diag.csv").read_bytes() == (b / "diag.csv").read_bytes()

    c = tmp_path / "c"
    assert resume(RunConfig(**cfg), str(a / "state_00000.500000.chk"), outdir=str(c)) == 0
    full = read_checkpoint(a / "final.chk")
    resumed = read_checkpoint(c / "final.chk")
    scale = max(np.max(np.abs(x)) for x in full.coeff_arrays())
    diff = max(
        np.max(np.abs(x - y))
        for x, y in zip(full.coeff_arrays(), resumed.coeff_arrays())
    )
    ok = identical and diff <= 1e-13 * max(scale, 1.0)
    report(
        10, "byte-identical reruns and checkpoint resume", ok,
        f"diag.csv identical: {identical}, resume max diff {diff:.2e} <= 1e-13 * scale",
    )
