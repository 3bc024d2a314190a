"""Self-contained verification sweeps behind the ``verify`` CLI subcommand.

Each function returns a list of VerifyResult rows; a run passes when every
row does.  The sweeps mirror the package's test suite so the installed
artifact can re-certify itself without pytest.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .diagnostics import SQRT2, poincare_check
from .dynamics import transport_skew_defect
from .errors import require
from .oracles import dft_coefficients, dft_derivative, linearized_mode_solution
from .spectral import (
    MAX_S,
    GridSpec,
    ScalarField,
    SpectralScalar,
    derivative_multiplier,
    fft_coeffs,
    ifft_samples,
    sobolev_norm,
    to_full,
    vorticity_spectral,
)
from .stepping import step_ifrk4
from .symmetry import (
    InitialDataSpec,
    MHDState,
    _draw_modes,
    _mode_list,
    _philox,
    make_initial_data,
    random_class_velocity,
)


class VerifyResult(NamedTuple):
    name: str
    value: float
    bound: float
    passed: bool


def _result(name: str, value: float, bound: float) -> VerifyResult:
    return VerifyResult(name, float(value), float(bound), bool(value <= bound))


def _random_scalar(grid: GridSpec, seed: int) -> SpectralScalar:
    """Random band-limited real scalar, kmax 5, |k|^-2 coefficient falloff."""
    return SpectralScalar(grid, to_full(_draw_modes(grid, _philox(seed, stream=1), 5, 2.0, 1)[0]))


def verify_poincare(
    n: int = 32, n_samples: int = 100, ks: tuple[int, ...] = (0, 1, 2), seed: int = 0
) -> list[VerifyResult]:
    """Anisotropic Poincare ratio <= sqrt(2) and the CZ equality, random sweep."""
    grid = GridSpec(n)
    worst_ratio = 0.0
    worst_cz = 0.0
    for i in range(n_samples):
        u = random_class_velocity(grid, seed=seed + i)
        for k in ks:
            lhs, _, ratio = poincare_check(u, k)
            worst_ratio = max(worst_ratio, ratio)
            omega = sobolev_norm(vorticity_spectral(u), k)
            worst_cz = max(worst_cz, abs(lhs - omega) / omega)
    return [
        _result("poincare_ratio_max", worst_ratio, SQRT2 + 1e-8),
        _result("calderon_zygmund_rel_err", worst_cz, 1e-10),
    ]


def verify_skew(n: int = 32, n_samples: int = 100, seed: int = 0) -> list[VerifyResult]:
    """Transport skew-symmetry: int (u.grad f) f dx vanishes discretely."""
    grid = GridSpec(n)
    worst = 0.0
    for i in range(n_samples):
        u = random_class_velocity(grid, seed=seed + i)
        f = _random_scalar(grid, seed + i)
        worst = max(worst, transport_skew_defect(u, f))
    return [_result("transport_skew_defect_max", worst, 1e-10)]


def multimode_linear_state(grid: GridSpec, kmax: int, seed: int):
    """State with one random amplitude pair on every mode 0 < |k| <= kmax.

    ``_draw_modes`` draws the amplitude fields a and c, with unit
    magnitudes, from ``_philox(seed)``; (u, b) = i k_perp/|k| (a, c) with
    k_perp = (-k2, k1), so both fields are divergence-free, and real, since
    k_perp is odd in k.  Returns (state, {k: (a0, c0)}), the amplitudes
    read back by ``mode_amplitudes``.
    """
    a, c = _draw_modes(grid, _philox(seed), kmax, 0.0, 2)
    half = grid.half
    perp = 1j * np.sqrt(half.inv_ksq) * np.stack([-half.k2, half.k1])
    st = MHDState(grid, 0.0, np.concatenate([perp * a, perp * c]))
    return st, {k: mode_amplitudes(st, k) for k in _mode_list(kmax)}


def mode_amplitudes(st, k: tuple[int, int]) -> tuple[complex, complex]:
    """(a, c) components along the unit perpendicular of k, for k1 >= 0."""
    k1, k2 = k
    norm = np.hypot(k1, k2)
    p1, p2 = -k2 / norm, k1 / norm
    u1, u2, b1, b2 = st.x[:, k1, k2 % st.grid.n]
    return complex(p1 * u1 + p2 * u2), complex(p1 * b1 + p2 * b2)


def verify_linear(
    n: int = 16,
    kmax: int = 4,
    t_end: float = 1.0,
    dt: float = 1e-3,
    seed: int = 0,
) -> list[VerifyResult]:
    """Linearized trajectories vs the per-mode matrix exponential, plus the
    exactness of pure heat decay: the step propagates both exactly."""
    grid = GridSpec(n)
    st, amps = multimode_linear_state(grid, kmax, seed)
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        st = step_ifrk4(st, dt, nonlinear=False, coupling=True)
    worst = 0.0
    for k, (a0, c0) in amps.items():
        a_ex, c_ex = linearized_mode_solution(k, a0, c0, t_end)
        a_num, c_num = mode_amplitudes(st, k)
        err = abs(a_num - a_ex) + abs(c_num - c_ex)
        worst = max(worst, err / (abs(a_ex) + abs(c_ex) + 1e-300))

    # pure diffusion: u = 0, coupling off; b modes must follow exp(-|k|^2 t)
    st_d, amps_d = multimode_linear_state(grid, kmax, seed + 1)
    st_d.x[:2] = 0.0
    dt_d = 0.05
    for _ in range(int(round(t_end / dt_d))):
        st_d = step_ifrk4(st_d, dt_d, nonlinear=False, coupling=False)
    worst_d = 0.0
    for k, (_, c0) in amps_d.items():
        decay = np.exp(-(k[0] ** 2 + k[1] ** 2) * t_end)
        _, c_num = mode_amplitudes(st_d, k)
        worst_d = max(worst_d, abs(c_num - c0 * decay) / (abs(c0) * decay))
    return [
        _result("linearized_mode_rel_err", worst, 1e-11),
        _result("pure_diffusion_rel_err", worst_d, 1e-13),
    ]


def convergence_slope(
    n: int = 32,
    seed: int = 7,
    epsilon: float = 2.0,
    t_end: float = 0.2,
    dts: tuple[float, ...] = (0.04, 0.02, 0.01, 0.005),
) -> float:
    """Observed order of the stepper on a nonlinear refinement study.

    Every dt must divide t_end so all runs land on the same final time.
    The default errors, 6.6e-12 down to 1.7e-15, stay above roundoff.
    """
    for dt in dts:
        steps = t_end / dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError(f"dt={dt} does not divide t_end={t_end}")
    grid = GridSpec(n)
    spec = InitialDataSpec(epsilon=epsilon, s=2, seed=seed)
    st0 = make_initial_data(spec, grid)

    def advance(dt: float):
        st = st0
        for _ in range(int(round(t_end / dt))):
            st = step_ifrk4(st, dt)
        return st

    ref = advance(dts[-1] / 16.0)
    errs = [
        np.sqrt(np.sum(grid.half.weight * np.abs(advance(dt).x - ref.x) ** 2)) for dt in dts
    ]
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)


def verify_order(**kwargs) -> list[VerifyResult]:
    slope = convergence_slope(**kwargs)
    row = VerifyResult("rk4_slope", slope, 4.2, bool(3.8 <= slope <= 4.2))
    return [row]


def verify_oracle(n: int = 16, seed: int = 0) -> list[VerifyResult]:
    """Fast transforms / derivatives / norms against the direct-DFT oracle."""
    grid = GridSpec(n)
    rng = _philox(seed)
    f = ScalarField(grid, rng.standard_normal((n, n)))

    # transform: compare in centered order
    fast = fft_coeffs(grid, f.samples)
    err_t = float(np.max(np.abs(np.fft.fftshift(fast) - dft_coefficients(f))))

    # relative to the largest oracle value: the values grow like |k|^3
    err_d = scale_d = 0.0
    for alpha in ((1, 0), (0, 1), (2, 1), (0, 3)):
        fast_d = ifft_samples(grid, fast * derivative_multiplier(grid, alpha))
        slow_d = dft_derivative(f, alpha).samples
        err_d = max(err_d, float(np.max(np.abs(fast_d - slow_d))))
        scale_d = max(scale_d, float(np.max(np.abs(slow_d))))
    err_d /= scale_d

    # Sobolev norm vs brute-force sum over multi-indices of L2 norms
    g = _random_scalar(grid, seed)
    m = 2
    brute = 0.0
    gf = ScalarField(grid, ifft_samples(grid, g.coeffs))
    dx = grid.spacing
    for a1 in range(m + 1):
        for a2 in range(m + 1 - a1):
            d = dft_derivative(gf, (a1, a2)).samples
            brute += float(np.sum(d * d)) * dx * dx
    err_n = abs(np.sqrt(brute) - sobolev_norm(g, m)) / sobolev_norm(g, m)
    return [
        _result("dft_transform_maxabs_err", err_t, 1e-12),
        _result("dft_derivative_rel_err", err_d, 1e-12),
        _result("sobolev_bruteforce_rel_err", err_n, 1e-10),
    ]


CHECKS = {
    "poincare": verify_poincare,
    "linear": verify_linear,
    "skew": verify_skew,
    "order": verify_order,
    "oracle": verify_oracle,
}


def run_checks(
    names, n_samples: int | None = None, k: int | None = None
) -> list[VerifyResult]:
    """The rows of the checks ``names``, with ``n_samples`` draws per random
    sweep and the Sobolev order ``k`` of the Poincare sweep when given.
    InvalidValue, before any check runs, for a name not in ``CHECKS``, for
    ``n_samples`` < 1, a sweep that would pass over no draws, or ``k``
    outside [0, 2 MAX_S + 1], the orders of the energy norms; and for an
    option that no named check reads: ``n_samples`` without poincare or
    skew, ``k`` without poincare."""
    for name in names:
        require(name in CHECKS, "check", name, f"must be one of {', '.join(sorted(CHECKS))}")
    sweeps = [name for name in names if name in ("poincare", "skew")]
    if n_samples is not None:
        require(n_samples >= 1, "samples", n_samples, "must be >= 1")
        require(bool(sweeps), "samples", n_samples, "only poincare and skew read it")
    if k is not None:
        require(0 <= k <= 2 * MAX_S + 1, "k", k, f"must lie in [0, {2 * MAX_S + 1}]")
        require("poincare" in names, "k", k, "only poincare reads it")
    rows: list[VerifyResult] = []
    for name in names:
        kwargs = {}
        if n_samples is not None and name in sweeps:
            kwargs["n_samples"] = n_samples
        if k is not None and name == "poincare":
            kwargs["ks"] = (k,)
        rows.extend(CHECKS[name](**kwargs))
    return rows
