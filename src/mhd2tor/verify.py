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
from .oracles import dft_coefficients, dft_derivative, linearized_mode_solution
from .spectral import (
    MEASURE,
    GridSpec,
    ScalarField,
    SpectralScalar,
    derivative_multiplier,
    fft_coeffs,
    ifft_samples,
    sobolev_norm,
    vorticity_spectral,
)
from .stepping import step_ifrk4
from .symmetry import (
    InitialDataSpec,
    MHDState,
    _draw_modes,
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
    return SpectralScalar(grid, _draw_modes(grid, _philox(seed, attempt=1), 5, 2.0, 1)[0])


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


def _mode_list(kmax: int) -> list[tuple[int, int]]:
    """Half-plane representatives with 0 < |k| <= kmax."""
    out = []
    for k1 in range(0, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if (k1, k2) == (0, 0) or k1 * k1 + k2 * k2 > kmax * kmax:
                continue
            if k1 == 0 and k2 < 0:
                continue
            out.append((k1, k2))
    return out


def multimode_linear_state(grid: GridSpec, kmax: int, seed: int):
    """State with one random amplitude pair on every mode |k| <= kmax.

    Amplitudes sit along the unit vector perpendicular to k, so both fields
    are divergence-free; returns (state, {k: (a0, c0)}).
    """
    rng = _philox(seed)
    n = grid.n
    x = np.zeros((4, n // 2 + 1, n), dtype=np.complex128)
    amps: dict[tuple[int, int], tuple[complex, complex]] = {}
    for k1, k2 in _mode_list(kmax):
        g = rng.standard_normal(4)
        a0 = (g[0] + 1j * g[1]) / np.sqrt(2.0)
        c0 = (g[2] + 1j * g[3]) / np.sqrt(2.0)
        norm = np.hypot(k1, k2)
        p1, p2 = -k2 / norm, k1 / norm
        mode = np.array([a0 * p1, a0 * p2, c0 * p1, c0 * p2])
        x[:, k1, k2 % n] += mode
        if k1 == 0:  # the conjugate mode (0, -k2) is stored too
            x[:, 0, -k2 % n] += np.conj(mode)
        amps[(k1, k2)] = (complex(a0), complex(c0))
    return MHDState(grid, 0.0, x), amps


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
    exactness of pure heat decay under the integrating factor."""
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
        _result("linearized_mode_rel_err", worst, 1e-8),
        _result("pure_diffusion_rel_err", worst_d, 1e-13),
    ]


def convergence_slope(
    n: int = 32,
    seed: int = 7,
    epsilon: float = 2.0,
    t_end: float = 0.1,
    dts: tuple[float, ...] = (0.02, 0.01, 0.005, 0.0025),
) -> float:
    """Observed order of the stepper on a nonlinear refinement study.

    Every dt must divide t_end so all runs land on the same final time.
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
    slow = dft_coefficients(f)
    centered = np.empty_like(slow)
    for k1 in range(-n // 2, n // 2):
        for k2 in range(-n // 2, n // 2):
            centered[k1 + n // 2, k2 + n // 2] = fast[k1 % n, k2 % n]
    err_t = float(np.max(np.abs(centered - slow)))

    err_d = 0.0
    for alpha in ((1, 0), (0, 1), (2, 1), (0, 3)):
        fast_d = ifft_samples(grid, fast * derivative_multiplier(grid, alpha))
        slow_d = dft_derivative(f, alpha).samples
        err_d = max(err_d, float(np.max(np.abs(fast_d - slow_d))))

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
        _result("dft_derivative_maxabs_err", err_d, 1e-12),
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
    rows: list[VerifyResult] = []
    for name in names:
        kwargs = {}
        if n_samples is not None and name in ("poincare", "skew"):
            kwargs["n_samples"] = n_samples
        if k is not None and name == "poincare":
            kwargs["ks"] = (k,)
        rows.extend(CHECKS[name](**kwargs))
    return rows
