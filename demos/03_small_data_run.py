"""A short small-data run with the time-weighted energy ledger.

Integrates a seeded epsilon = 1e-2 perturbation to t = 8 and prints the
diagnostics the stability theory cares about: the weighted energies E0/E1
staying bounded, H^3 decay of b, and the structural defects staying at
roundoff throughout.
"""

from mhd2tor import (
    EnergyLedger,
    EnergyParams,
    GridSpec,
    InitialDataSpec,
    StepperConfig,
    decay_fit,
    instantaneous,
    ledger_update,
    make_initial_data,
    run,
)

S = 2
grid = GridSpec(64)
st0 = make_initial_data(
    InitialDataSpec(epsilon=1e-2, s=S, seed=3, max_wavenumber=2, spectrum_decay=3.0),
    grid,
)

ledger = EnergyLedger(S)
b_series = []
print(f"{'t':>5} {'||u||_H3':>12} {'||b||_H3':>12} {'E0+E1':>12} {'sym defect':>11}")

def sink(state):
    rec = instantaneous(state, EnergyParams(S))
    ledger_update(ledger, rec)
    b_series.append((rec.t, rec.norm_b[2 * S - 1]))
    if abs(rec.t - round(rec.t)) < 1e-9:
        print(f"{rec.t:5.1f} {rec.norm_u[3]:12.4e} {rec.norm_b[3]:12.4e} "
              f"{ledger.total:12.4e} {rec.symmetry_defect:11.2e}")

final = run(st0, StepperConfig(t_end=8.0), 0.1, sink)

print(f"\nE0 = {ledger.e0:.4e}, E1 = {ledger.e1:.4e}")
rate = decay_fit(b_series, t_start=2.0)
print(f"fitted decay of ||b||_H3 on t >= 2: (1+t)^{rate:.2f}")
print("(the theory predicts boundedness of E0, E1 and roughly (1+t)^-1 decay)")
