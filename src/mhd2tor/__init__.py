"""Pseudo-spectral solver for 2D incompressible MHD with magnetic diffusion
only, on the torus [-pi, pi]^2, in perturbation variables around the steady
magnetic field e2.

The package tracks the structures that make small perturbations globally
well-behaved: a reflection symmetry class preserved by the flow, an exact
L2 energy law, an anisotropic Poincare inequality with constant sqrt(2),
and time-weighted Sobolev energy functionals whose boundedness quantifies
stability and (1+t)^-1 decay.
"""

from .checkpoint import (
    checkpoint_header,
    physical_arrays,
    read_checkpoint,
    write_checkpoint,
)
from .config import RunConfig, parse_config
from .diagnostics import (
    DiagnosticsRecord,
    EnergyLedger,
    EnergyParams,
    decay_fit,
    instantaneous,
    ledger_update,
    poincare_check,
)
from .driver import initial_state, resume, simulate
from .dynamics import (
    compute_pressure,
    energy_balance_series,
    grad_b_l2_sq,
    l2_energy,
    rhs_perturbation,
    rhs_total,
    transport_skew_defect,
)
from .errors import Mhd2torError
from .spectral import (
    GridSpec,
    ScalarField,
    SpectralScalar,
    VectorField,
    dealias,
    forward_transform,
    inverse_transform,
    leray_project,
    mean,
    partial_derivative,
    resample,
    sobolev_norm,
    vorticity,
)
from .stepping import StepperConfig, cfl_dt, run, step_ifrk4
from .symmetry import (
    InitialDataSpec,
    MHDState,
    make_initial_data,
    random_class_velocity,
    reflect_state,
    state_from_arrays,
    symmetrize,
    symmetry_defect,
    validate_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
