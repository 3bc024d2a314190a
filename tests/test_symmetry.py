import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mhd2tor.spectral import (
    MAX_S,
    GridSpec,
    ScalarField,
    divergence_defect,
    forward_transform,
    half_coeffs,
    half_samples,
    sobolev_norm,
)
from mhd2tor.diagnostics import gradient_norm
from mhd2tor import symmetry
from mhd2tor.errors import DegenerateSpectrum, NonFiniteState
from mhd2tor.stepping import step_ifrk4
from mhd2tor.symmetry import (
    _STACK_PARITY,
    InitialDataSpec,
    MHDState,
    _reflect_coeffs,
    make_initial_data,
    random_class_velocity,
    reflect_state,
    state_from_arrays,
    symmetrize,
    symmetry_defect,
    validate_state,
)


@pytest.fixture
def grid():
    return GridSpec(32)


def test_reflection_is_involution(grid):
    st = make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=5), grid)
    twice = reflect_state(reflect_state(st))
    for a, b in zip(st.coeff_arrays(), twice.coeff_arrays()):
        assert np.max(np.abs(a - b)) == 0.0


def test_reflection_fixes_class_states(grid):
    st = make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=5), grid)
    refl = reflect_state(st)
    for a, b in zip(st.coeff_arrays(), refl.coeff_arrays()):
        assert np.max(np.abs(a - b)) < 1e-15


def test_symmetrize_idempotent_and_projects(grid):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    arrays = [
        np.fft.fft2(rng.standard_normal((32, 32))) / 32**2 for _ in range(4)
    ]
    st = state_from_arrays(grid, 0.0, *arrays)
    sym = symmetrize(st)
    assert symmetry_defect(sym) < 1e-14
    again = symmetrize(sym)
    for a, b in zip(sym.coeff_arrays(), again.coeff_arrays()):
        assert np.max(np.abs(a - b)) < 1e-16


def test_symmetry_defect_measures_anti_class_part(grid):
    """u1 = cos(x2) and b2 = sin(x1) are in the class; u2 = cos(x1)/2 is
    even in x2 where the class wants it odd, so the defect is 0.5 / 1."""
    def coeffs(samples):
        return forward_transform(ScalarField(grid, samples)).coeffs

    zero = np.zeros((grid.n, grid.n))
    st = state_from_arrays(
        grid, 0.0, coeffs(np.cos(grid.x2)), coeffs(0.5 * np.cos(grid.x1)),
        coeffs(zero), coeffs(np.sin(grid.x1)),
    )
    assert symmetry_defect(st) == pytest.approx(0.5, rel=1e-12)
    assert symmetry_defect(symmetrize(st)) < 1e-15


def _reference_defect(st):
    """The defect from the public transform: the sup of the state's samples
    as the scale, and of the samples of (x - reflect(x)) / 2 per pair."""
    phys = half_samples(st.grid, st.x)
    scale = max(float(phys.max()), -float(phys.min()))
    if scale == 0.0:
        return 0.0
    defect = 0.0
    for i in (0, 2):
        x = st.x[i : i + 2]
        anti = x - _reflect_coeffs(x, _STACK_PARITY[i : i + 2])
        anti *= 0.5
        phys = half_samples(st.grid, anti)
        defect = max(defect, float(phys.max()), -float(phys.min()))
    return defect / scale


def _class_state(n, seed, steps):
    """Drawn initial data after ``steps`` linear steps: exactly in the class."""
    grid = GridSpec(n)
    kmax = min(4, int(grid.dealias_cutoff))
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=seed, max_wavenumber=kmax), grid)
    for _ in range(steps):
        st = step_ifrk4(st, 1e-2, nonlinear=False)
    return st


def _anti_mode(n, seed):
    """A (field, row, column) where ``_class_state`` is zero (row
    k1 = n/2 - 1, above its band), off the columns k2 = 0 and -n/2, which
    are their own reflections: a coefficient added there is an anti part
    that shows (rows 0 and n/2 would keep only its real samples)."""
    r = np.random.default_rng(seed)
    column = int(r.choice([c for c in range(1, n) if c != n // 2]))
    return int(r.integers(4)), n // 2 - 1, column


@settings(max_examples=80, deadline=None)
@given(
    n=hst.sampled_from([8, 16, 32, 64]),
    seed=hst.integers(0, 2**32 - 1),
    steps=hst.integers(0, 2),
    kind=hst.sampled_from(["class", "signed-zeros", "anti", "full-rows", "nonfinite"]),
    exponent=hst.floats(-300.0, 0.0),
    bad=hst.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_symmetry_defect_is_the_transform_formula(n, seed, steps, kind, exponent, bad):
    """``symmetry_defect`` equals ``_reference_defect`` bit for bit (NaN for
    NaN): on states exactly in the class, with -0.0 entries too, where it
    skips every transform; with one anti coefficient of size 1e-300 to 1;
    on states with content on every row, as read back from a checkpoint;
    and on states holding NaN or inf."""
    st = _class_state(n, seed, steps)
    x = st.x.copy()
    f, r, c = _anti_mode(n, seed)
    if kind == "signed-zeros":
        x[(x == 0) & (np.random.default_rng(seed).random(x.shape) < 0.5)] = -0.0
    elif kind == "anti":
        assert x[f, r, c] == 0.0
        x[f, r, c] = 10.0**exponent
    elif kind == "full-rows":
        x = half_coeffs(st.grid, half_samples(st.grid, step_ifrk4(st, 1e-2).x))
    elif kind == "nonfinite":
        x[f, r, c] = bad
    st = MHDState(st.grid, st.t, x)
    with np.errstate(all="ignore"):
        got, expected = symmetry_defect(st), _reference_defect(st)
    if math.isnan(expected):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    if kind in ("class", "signed-zeros"):
        assert got == 0.0
    elif kind == "anti":
        assert got > 0.0


def test_symmetry_defect_sees_a_tiny_anti_coefficient():
    """Negative control of the in-class shortcut: one anti coefficient of
    1e-30 on a state exactly in the class gives a positive defect."""
    st = _class_state(32, 5, 1)
    assert symmetry_defect(st) == 0.0
    x = st.x.copy()
    x[2, 15, 5] = 1e-30
    defect = symmetry_defect(MHDState(st.grid, st.t, x))
    assert 0.0 < defect == _reference_defect(MHDState(st.grid, st.t, x))


def test_initial_data_postconditions(grid):
    spec = InitialDataSpec(epsilon=1e-2, s=2, seed=1)
    st = make_initial_data(spec, grid)
    norm_u = sobolev_norm(st.u, 5)
    norm_gb = gradient_norm(st.b, 4)
    assert abs(norm_u + norm_gb - 1e-2) < 1e-12
    assert symmetry_defect(st) < 1e-14
    u1, u2, b1, b2 = st.coeff_arrays()
    assert divergence_defect(grid, u1, u2) < 1e-12
    assert divergence_defect(grid, b1, b2) < 1e-12
    assert all(c[0, 0] == 0.0 for c in st.coeff_arrays())


def test_initial_data_budget_split(grid):
    st = make_initial_data(InitialDataSpec(epsilon=4e-2, s=2, seed=9), grid)
    assert np.isclose(sobolev_norm(st.u, 5), 2e-2, rtol=1e-12)
    assert np.isclose(gradient_norm(st.b, 4), 2e-2, rtol=1e-12)


def test_initial_data_reproducible(grid):
    a = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=2), grid)
    b = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=2), grid)
    for x, y in zip(a.coeff_arrays(), b.coeff_arrays()):
        assert np.array_equal(x, y)
    c = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=3), grid)
    assert any(
        not np.array_equal(x, y) for x, y in zip(a.coeff_arrays(), c.coeff_arrays())
    )


def test_initial_data_band_limited(grid):
    st = make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=4, max_wavenumber=3), grid)
    outside = grid.ksq > 9
    for c in st.coeff_arrays():
        assert np.max(np.abs(c[outside])) == 0.0


def test_initial_data_rejects_unresolvable_kmax():
    with pytest.raises(ValueError):
        make_initial_data(InitialDataSpec(epsilon=1.0, s=2, seed=1, max_wavenumber=6), GridSpec(16))


def test_spec_validation():
    with pytest.raises(ValueError):
        InitialDataSpec(epsilon=-1.0, s=2, seed=1)
    with pytest.raises(ValueError):
        InitialDataSpec(epsilon=1.0, s=1, seed=1)
    with pytest.raises(ValueError):
        InitialDataSpec(epsilon=1.0, s=2, seed=1, spectrum_decay=0.0)


@settings(max_examples=60, deadline=None)
@given(
    n=hst.sampled_from([16, 32, 64]),
    s=hst.integers(2, MAX_S),
    epsilon=hst.floats(0.0, allow_infinity=False),
    decay=hst.floats(1e-3, 1e3),
    seed=hst.integers(0, 2**63),
    data=hst.data(),
)
def test_initial_data_is_finite_or_raises(n, s, epsilon, decay, seed, data):
    """Over every valid spec, make_initial_data returns a finite state, or
    raises NonFiniteState when epsilon near the largest float scales the
    draw past it: it never returns NaN or inf."""
    grid = GridSpec(n)
    kmax = data.draw(hst.integers(1, int(grid.dealias_cutoff)))
    spec = InitialDataSpec(epsilon, s, seed, spectrum_decay=decay, max_wavenumber=kmax)
    try:
        st = make_initial_data(spec, grid)
    except NonFiniteState:
        assert epsilon > 1e300
    else:
        assert np.isfinite(st.x).all()


def test_initial_data_overflow_raises():
    """At epsilon 1.7e308, seed 15 with one wavenumber shell draws a u norm
    below 1/2, so the scale overflows (at the parent: an all-NaN state)."""
    spec = InitialDataSpec(1.7e308, 2, 15, max_wavenumber=1)
    with pytest.raises(NonFiniteState), np.errstate(over="ignore"):
        make_initial_data(spec, GridSpec(16))


def test_zero_draw_raises_after_one_draw(monkeypatch, grid):
    """A draw whose fields vanish raises DegenerateSpectrum: there is one
    draw per seed, and no retry."""
    draws = []

    def zero(grid, rng, kmax, decay):
        draws.append(rng)
        return np.zeros((4, grid.n // 2 + 1, grid.n), dtype=np.complex128)

    monkeypatch.setattr(symmetry, "_draw_class", zero)
    with pytest.raises(DegenerateSpectrum):
        make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    assert len(draws) == 1


def test_only_the_mode_sampler_and_the_dft_oracle_draw_normals():
    """One random-field generator: in the package, ``standard_normal`` is
    called by ``_draw_modes`` and by ``verify_oracle``, whose white-noise
    samples check the transforms, and nowhere else."""
    import ast
    from pathlib import Path

    callers = set()
    for path in Path(symmetry.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers.update(
                    fn.name
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "standard_normal"
                )
    assert callers == {"_draw_modes", "verify_oracle"}


def test_random_class_velocity_in_class(grid):
    u = random_class_velocity(grid, seed=11)
    st = state_from_arrays(grid, 0.0, u.c1.coeffs, u.c2.coeffs,
                           np.zeros_like(u.c1.coeffs), np.zeros_like(u.c2.coeffs))
    assert symmetry_defect(st) < 1e-14
    assert divergence_defect(grid, u.c1.coeffs, u.c2.coeffs) < 1e-13


def test_random_draw_rejects_unstorable_kmax():
    """At kmax = n/2 the modes (k1, n/2) and (k1, -n/2) share one cell."""
    with pytest.raises(ValueError):
        random_class_velocity(GridSpec(8), seed=0, kmax=4)


def test_validate_state_flags_bad_fields(grid):
    st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    assert all(r.passed for r in validate_state(st))
    u1, u2, b1, b2 = (c.copy() for c in st.coeff_arrays())
    u1[0, 0] = 1.0  # nonzero mean
    bad = state_from_arrays(grid, 0.0, u1, u2, b1, b2)
    results = {r.name: r for r in validate_state(bad)}
    assert not results["mean_u1"].passed
