import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mhd2tor import spectral
from mhd2tor.checkpoint import read_checkpoint, write_checkpoint
from mhd2tor.errors import NonFiniteState, StepTooSmall
from mhd2tor.oracles import linearized_mode_solution
from mhd2tor.spectral import GridSpec, _content_rows, forward_transform, half_samples, ScalarField
from mhd2tor.stepping import (
    StepCounts,
    StepperConfig,
    _heat_factors,
    _propagate,
    cfl_dt,
    run,
    step_ifrk4,
    step_rows,
)
from mhd2tor.symmetry import (
    InitialDataSpec,
    MHDState,
    make_initial_data,
    state_from_arrays,
    symmetry_defect,
)
from mhd2tor.verify import convergence_slope, mode_amplitudes, multimode_linear_state


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


@pytest.mark.parametrize("field", ["t_end", "cfl", "dt_max", "dt_min"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_config_rejects_non_finite(field, value):
    kwargs = {"t_end": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        StepperConfig(**kwargs)


@pytest.mark.parametrize("sample_every", [np.nan, np.inf])
def test_run_rejects_non_finite_sample_spacing(grid, sample_every):
    rows = []
    cfg = StepperConfig(t_end=0.2)
    with pytest.raises(ValueError, match="sample_every"):
        run(zero_state(grid), cfg, sample_every, lambda rec, st: rows.append(rec))
    assert rows == []


def test_cfl_follows_perturbation_speed(grid):
    """The CFL speed is the perturbation's |u| + |b|: the background e2 is
    propagated exactly and sets no limit.  A zero state gets dt_max, and a
    state's CFL dt is cfl * spacing over its own max |u| + |b|, so twice the
    state takes half the step."""
    cfg = StepperConfig(t_end=1.0, cfl=0.4, dt_max=1.0)
    assert cfl_dt(zero_state(grid), cfg) == cfg.dt_max
    st = make_initial_data(InitialDataSpec(epsilon=20.0, s=2, seed=1), grid)
    u1, u2, b1, b2 = half_samples(grid, st.x)
    speed = np.max(np.hypot(u1, u2) + np.hypot(b1, b2))
    dt = cfl_dt(st, cfg)
    assert dt < cfg.dt_max
    assert np.isclose(dt, cfg.cfl * grid.spacing / speed, rtol=1e-12)
    twice = MHDState(grid, 0.0, 2.0 * st.x)
    assert np.isclose(cfl_dt(twice, cfg), 0.5 * dt, rtol=1e-12)


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


@pytest.mark.parametrize("nonlinear", [True, False])
@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 0.0)])
def test_non_finite_coefficient_stops_the_step(grid, nonlinear, bad):
    """A NaN or inf in either part of one coefficient of the last content
    row raises NonFiniteState, and leaves the state as it was."""
    st = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=2), grid)
    st.x[3, step_rows(st, False) - 1, 3] = bad
    x0 = st.x.copy()
    with pytest.raises(NonFiniteState), np.errstate(invalid="ignore"):
        step_ifrk4(st, 1e-2, nonlinear=nonlinear)
    assert st.x.tobytes() == x0.tobytes()


def test_step_preserves_class(grid):
    """Every operation of a step from a class state (the packed products,
    the stage sums and the propagator) keeps the parities exactly."""
    st = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=2), grid)
    for _ in range(20):
        st = step_ifrk4(st, 5e-3)
    assert symmetry_defect(st) == 0.0


def _packed_vs_general(st0, dt):
    """Two steps from ``st0``, each from the packed step's last state: the
    pairs (packed step, four-field step) of the same input, the four-field
    one forced by a class test that answers False."""
    import mhd2tor.stepping as stepping

    pairs, st = [], st0
    for _ in range(2):
        packed = step_ifrk4(st, dt)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stepping, "_in_class", lambda grid, x: False)
            pairs.append((packed, step_ifrk4(st, dt)))
        st = packed
    return pairs


def _assert_agree(pairs):
    for packed, general in pairs:
        scale = np.max(np.abs(general.x))
        assert np.max(np.abs(packed.x - general.x)) <= 1e-13 * scale


@settings(max_examples=10, deadline=None)
@given(
    n=hst.sampled_from([16, 24, 32, 64]),
    epsilon=hst.floats(1e-3, 2.0),
    dt=hst.sampled_from([1e-3, 1e-2]),
    seed=hst.integers(0, 2**31 - 1),
)
def test_packed_step_matches_four_field_step(n, epsilon, dt, seed):
    """The first and the second step from a draw, run on the packed fields
    (h, g) and split by ``_unpack``, agree with the same steps run on the
    four fields within 1e-13 of max |x|, and each packed result is in the
    class by value."""
    from mhd2tor.symmetry import _in_class

    grid = GridSpec(n)
    st0 = make_initial_data(InitialDataSpec(epsilon=epsilon, s=2, seed=seed), grid)
    pairs = _packed_vs_general(st0, dt)
    _assert_agree(pairs)
    assert all(_in_class(grid, packed.x) for packed, _ in pairs)


def test_swapped_unpack_fails_the_agreement(monkeypatch):
    """Negative control of the packed step: an ``_unpack`` that puts the
    even parts into the odd slots (u2, b1) and the odd parts into the even
    slots (u1, b2) no longer agrees with the four-field step."""
    import mhd2tor.stepping as stepping

    unpack = stepping._unpack

    def swapped(hg, out):
        out[:] = unpack(hg, out)[[1, 0, 3, 2]]
        return out

    st0 = make_initial_data(InitialDataSpec(epsilon=0.5, s=2, seed=3), GridSpec(32))
    _assert_agree(_packed_vs_general(st0, 1e-2))
    monkeypatch.setattr(stepping, "_unpack", swapped)
    with pytest.raises(AssertionError):
        _assert_agree(_packed_vs_general(st0, 1e-2))


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


def test_fourth_order_at_large_k2_dt():
    """Lawson schemes can lose order on stiff oscillatory parts (Hochbruck
    and Ostermann, Acta Numerica 2010).  At n=256 the band modes reach
    |k2| dt = 85 * 0.08 = 6.8 on dt = 0.08 ... 0.01, and the refinement
    study still reads fourth order (3.963)."""
    slope = convergence_slope(n=256, t_end=0.16, dts=(0.08, 0.04, 0.02, 0.01))
    assert 3.8 <= slope <= 4.2


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
    entries; a dt_max-bound run repeats one dt and must keep hitting.  The
    factor set is (p11, p22, p12) on the half spectrum, stored complex so
    that no multiply casts it: p11 and p22 real, p12 imaginary.
    The state's max |u| + |b| is about 1, so its CFL step is about 0.08."""
    st0 = make_initial_data(InitialDataSpec(epsilon=125.0, s=2, seed=5), grid)
    _heat_factors.cache_clear()
    run(st0, StepperConfig(t_end=0.5, dt_max=1.0), 0.1, lambda rec, st: None)
    info = _heat_factors.cache_info()
    assert info.misses >= 8
    assert info.currsize <= 4
    _heat_factors.cache_clear()
    run(st0, StepperConfig(t_end=0.3), 0.1, lambda rec, st: None)
    assert _heat_factors.cache_info().hits >= 20
    p11, p22, p12 = _heat_factors(grid, 1e-2)
    assert p11.shape == p22.shape == p12.shape == (grid.n // 2 + 1, grid.n)
    assert p11.dtype == p22.dtype == p12.dtype == np.complex128
    assert not (p11.imag.any() or p22.imag.any() or p12.real.any())


def test_small_perturbation_steps_at_dt_max():
    """At n=256 with epsilon 1e-2 the max |u| + |b| is about 1.5e-4, so
    dt_max binds, not the CFL bound: each sample interval of 0.05 takes 4
    steps of dt_max and one landing (the speed of the total field b + e2,
    about 1, would give a CFL step of 0.0098 and 6 steps, 5 of them CFL),
    and the factor cache misses twice per landing, for dt_max and for the
    landing."""
    grid = GridSpec(256)
    st0 = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    counts = StepCounts()
    _heat_factors.cache_clear()
    final = run(st0, StepperConfig(t_end=0.1), 0.05, lambda rec, st: None, counts=counts)
    assert final.t == 0.1
    assert counts.cfl == 0 and counts.landing == 2 and counts.steps == 10
    assert _heat_factors.cache_info().misses == 2 * counts.landing


def _expm_factors(grid, t, coupling):
    """exp(t L) per mode from scipy, for L = [[0, i k2], [i k2, -|k|^2]]
    with the Nyquist-zeroed k2 (0 without coupling)."""
    from scipy.linalg import expm

    half = grid.half
    k2 = half.ik2.imag if coupling else np.zeros_like(half.ksq)
    L = np.zeros(half.ksq.shape + (2, 2), dtype=np.complex128)
    L[..., 0, 1] = L[..., 1, 0] = 1j * k2
    L[..., 1, 1] = -half.ksq
    E = expm(t * L)
    return E[..., 0, 0], E[..., 1, 1], E[..., 0, 1], E[..., 1, 0]


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("coupling", [True, False])
def test_propagator_matches_expm(n, coupling):
    """Every mode of the closed-form factors against scipy's expm, for the
    half steps t = dt/2 of dt from 1e-5 to 1: delta^2 < 0 at k = (0, +-1), delta = 0 at (0, +-2) and
    (+-1, +-1), the Nyquist column (k2 zeroed there) and k = 0, which must
    be exactly the identity."""
    grid = GridSpec(n)
    half = grid.half
    k1, k2 = half.k1, half.k2
    delta_sq = (half.ksq / 2) ** 2 - half.ik2.imag**2
    if coupling:
        assert np.all(delta_sq[(k1 == 0) & (np.abs(k2) == 1)] < 0)
        assert np.all(delta_sq[(k1 == 1) & (np.abs(k2) == 1)] == 0)
    assert np.all(half.ik2[:, n // 2] == 0)
    worst = 0.0
    for t in 0.5 * np.geomspace(1e-5, 1.0, 11):
        got = _heat_factors(grid, t, coupling)
        p11, p22, p12, p21 = _expm_factors(grid, t, coupling)
        for mine, ref in zip((got[0], got[1], got[2], got[2]), (p11, p22, p12, p21)):
            worst = max(worst, float(np.max(np.abs(mine - ref))))
        assert got[0][0, 0] == 1.0 and got[1][0, 0] == 1.0 and got[2][0, 0] == 0.0
        if not coupling:
            assert np.all(got[0] == 1.0) and not np.any(got[2])
    assert worst <= 1e-14


def test_factor_miss_allocates_no_array():
    """At n=256, with a new dt on every step, a step stays within the
    bytes of its new state plus 256 KiB, and a factor miss alone stays
    below 4 KiB: one factor array of the grid is 264 KiB."""
    import tracemalloc

    grid = GridSpec(256)
    st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    for i in range(2):  # warm up
        step_ifrk4(st, 1e-3 * (1.1 + i))
    windows, misses = [], _heat_factors.cache_info().misses
    tracemalloc.start()
    try:
        for i in range(3):
            dt = 2e-3 * (1 + i)
            for call in (lambda: step_ifrk4(st, dt), lambda: _heat_factors(grid, 1.5 * dt)):
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                call()
                windows.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert _heat_factors.cache_info().misses == misses + 6
    assert max(windows[0::2]) <= st.x.nbytes + 256 * 1024
    assert max(windows[1::2]) <= 4 * 1024


def test_run_invalid_sample_spacing(grid):
    st0 = zero_state(grid)
    with pytest.raises(ValueError):
        run(st0, StepperConfig(t_end=1.0), 0.0, lambda rec, st: None)


def _assert_run_dt_is_cfl_dt(monkeypatch, st0):
    """Runs ``st0`` to t = 0.3 with dt_max = 1 and a spy on each step's dt:
    every step but the last is set by the CFL bound, with dt equal to
    cfl_dt of the state it steps, bit for bit, and the last step lands on
    t = 0.3."""
    import mhd2tor.stepping as stepping

    cfg = StepperConfig(t_end=0.3, dt_max=1.0)
    taken = []

    def spy(st, choose, **kwargs):
        assert callable(choose)

        def record(speed):
            dt = choose(speed)
            taken.append((st, dt))
            return dt

        return step_ifrk4(st, record, **kwargs)

    monkeypatch.setattr(stepping, "step_ifrk4", spy)
    counts = StepCounts()
    final = run(st0, cfg, 0.3, lambda rec, st: None, counts=counts)
    assert final.t == 0.3
    assert counts.landing == 1 and counts.dt_max == 0 and counts.cfl == len(taken) - 1 >= 5
    for st, dt in taken[:-1]:
        assert dt == cfl_dt(st, cfg) < cfg.dt_max
    st, dt = taken[-1]
    assert dt == 0.3 - st.t <= cfl_dt(st, cfg) + 1e-12


def test_run_dt_is_cfl_dt_of_each_state(monkeypatch):
    """run() takes the dt of every nonlinear step from the stage-1 samples;
    on a nonlinear n=64 run bound by the CFL step (max |u| + |b| about 1),
    that dt equals cfl_dt of the state it steps, bit for bit, and the last
    step lands on t_end."""
    st0 = make_initial_data(InitialDataSpec(epsilon=85.0, s=2, seed=2), GridSpec(64))
    _assert_run_dt_is_cfl_dt(monkeypatch, st0)


def test_resumed_run_dt_is_cfl_dt_of_each_state(monkeypatch, tmp_path):
    """The run of ``test_run_dt_is_cfl_dt_of_each_state`` resumed from its
    state after one step of 1e-3, written and read back: that state has
    content on every row, past the 2/3 band, and each CFL-set dt still
    equals cfl_dt of the state it steps, bit for bit."""
    st0 = make_initial_data(InitialDataSpec(epsilon=85.0, s=2, seed=2), GridSpec(64))
    write_checkpoint(step_ifrk4(st0, 1e-3), tmp_path / "one.chk", s=2)
    resumed = read_checkpoint(tmp_path / "one.chk")
    assert step_rows(resumed) == 33
    _assert_run_dt_is_cfl_dt(monkeypatch, resumed)


def test_linear_run_is_exact_with_no_cfl_limit():
    """A linear run has no CFL limit: at n=32 with dt_max = 0.5, four times
    cfl * spacing (about 0.08, the CFL step at the background's speed 1),
    it reaches t = 2 in 4 steps, none set by the CFL bound.  Its final
    state is one application of exp(2 L) to the initial state, and on every
    mode of a multimode state it agrees with the per-mode oracle."""
    grid = GridSpec(32)
    cfg = StepperConfig(t_end=2.0, dt_max=0.5)

    def run_linear(st0):
        counts = StepCounts()
        final = run(st0, cfg, 0.5, lambda rec, st: None, nonlinear=False, counts=counts)
        assert final.t == 2.0 and counts.steps == 4 and counts.cfl == 0
        return final

    st0 = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    assert cfg.cfl * grid.spacing < 0.1
    final = run_linear(st0)
    x = st0.x
    exact = _propagate(_heat_factors(grid, 2.0), np.empty((2,) + x[:2].shape, x.dtype), x, np.empty_like(x))
    assert np.linalg.norm(final.x - exact) <= 1e-14 * np.linalg.norm(exact)

    st0, amps = multimode_linear_state(grid, kmax=4, seed=3)
    final = run_linear(st0)
    for k, (a0, c0) in amps.items():
        a, c = linearized_mode_solution(k, a0, c0, 2.0)
        a_num, c_num = mode_amplitudes(final, k)
        assert abs(a_num - a) + abs(c_num - c) <= 1e-11 * (abs(a) + abs(c))


def test_linear_step_gives_a_callable_dt_speed_zero(monkeypatch):
    """A linear step has no CFL limit: a callable dt gets the speed 0.0,
    and the step makes no transform and equals the step of that dt."""
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=3), GridSpec(16))
    transforms, speeds = [], []

    def counted(*args):
        transforms.append(args[0].shape)
        return inverse_into(*args)

    inverse_into = spectral._inverse_into
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("mhd2tor") and hasattr(mod, "_inverse_into"):
            monkeypatch.setattr(mod, "_inverse_into", counted)
    new = step_ifrk4(st, lambda speed: speeds.append(speed) or 2e-2, nonlinear=False)
    assert speeds == [0.0] and transforms == []
    assert new.x.tobytes() == step_ifrk4(st, 2e-2, nonlinear=False).x.tobytes()


def test_run_step_too_small_keeps_last_good_state():
    """A CFL step below dt_min, found after stage 1, raises before the state moves."""
    grid = GridSpec(32)
    st0 = make_initial_data(InitialDataSpec(epsilon=1e6, s=2, seed=1), grid)
    x0 = st0.x.copy()
    seen = []
    cfg = StepperConfig(t_end=1.0, dt_min=1e-3, dt_max=1e-2)
    with pytest.raises(StepTooSmall, match="last good t=0"):
        run(st0, cfg, 0.1, lambda rec, st: seen.append(st))
    assert seen == [st0] and st0.t == 0.0
    assert np.array_equal(st0.x, x0)


def _bind_content_rows(monkeypatch, rows):
    """``rows`` as ``_content_rows`` in every module of the package that binds it."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("mhd2tor.") and hasattr(mod, "_content_rows"):
            monkeypatch.setattr(mod, "_content_rows", rows)


def _samples(st, path, cfl=True):
    """cfl_dt (None without ``cfl``), symmetry_defect and the checkpoint
    bytes of a state."""
    write_checkpoint(st, path, s=2)
    dt = cfl_dt(st, StepperConfig(t_end=1.0, dt_max=1.0)) if cfl else None
    return dt, symmetry_defect(st), path.read_bytes()


def _step(st, nonlinear):
    """One step whose dt depends on the stage-1 speed, so on a nonlinear step
    that speed is checked too (a linear step gets speed 0)."""
    return step_ifrk4(st, lambda speed: 2e-2 / (1.0 + speed), nonlinear=nonlinear)


def _trajectory(st, nonlinear, path, steps=40):
    """State and ``_samples`` after each of ``steps`` steps."""
    out = []
    for _ in range(steps):
        st = _step(st, nonlinear)
        out.append((st.x.copy(), _samples(st, path)))
    return out


def _same(a, b):
    """Bit for bit: a -0.0 where the other has +0.0 would change the next
    step's content rows, and ``np.array_equal`` takes them as equal."""
    return all(
        xa.tobytes() == xb.tobytes() and sa == sb for (xa, sa), (xb, sb) in zip(a, b, strict=True)
    )


def _row_case(case, tmp_path):
    """(state, nonlinear) of one case: fresh states have fewer content rows
    than the half spectrum, a state read from a checkpoint has all of them.
    The drawn state is shifted by 0.1 along x2, out of the symmetry class,
    so that its symmetry defect is not 0 (on its content rows alone: the
    product of a phase and +0.0 can be -0.0, which counts as content)."""
    n, nonlinear, source = case
    st = make_initial_data(InitialDataSpec(epsilon=0.05, s=2, seed=4), GridSpec(n))
    m = _content_rows(st.x)
    st.x[:, :m] *= np.exp(-0.1j * st.grid.half.k2[:m])
    if source == "checkpoint":
        write_checkpoint(st, tmp_path / "read.chk", s=2)
        st = read_checkpoint(tmp_path / "read.chk")
    return st, nonlinear


ROW_CASES = [(32, True, "fresh"), (64, True, "fresh"), (32, False, "fresh"), (32, True, "checkpoint")]


@pytest.mark.parametrize("case", ROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_content_rows_change_no_bit(monkeypatch, tmp_path, case):
    """Working on the content rows alone gives the states, CFL steps,
    symmetry defects and checkpoint bytes of working on all n/2 + 1 rows."""
    st, nonlinear = _row_case(case, tmp_path)
    band = int(st.grid.dealias_cutoff) + 1
    fresh_rows = band if nonlinear else 5  # max_wavenumber + 1 in a linear run
    expected = st.grid.n // 2 + 1 if case[2] == "checkpoint" else fresh_rows
    assert step_rows(st, nonlinear) == expected
    path = tmp_path / "s.chk"
    rows = _trajectory(st, nonlinear, path)
    with monkeypatch.context() as mp:
        _bind_content_rows(mp, lambda x, least=0: x.shape[-2])
        assert _same(_trajectory(st, nonlinear, path), rows)


@pytest.mark.parametrize("case", ROW_CASES, ids=lambda c: "-".join(map(str, c)))
def test_one_content_row_too_few_shows(monkeypatch, tmp_path, case):
    """Negative control of the test above: a ``_content_rows`` one row short
    moves what a state samples, and the step either moves too or, one row
    short of the 2/3 band, is refused.  ``cfl_dt`` runs the first stage of
    a nonlinear step, so it is refused there too, also for the state of a
    linear run; its symmetry defect and checkpoint bytes still move."""
    st, nonlinear = _row_case(case, tmp_path)
    path = tmp_path / "s.chk"
    band = int(st.grid.dealias_cutoff) + 1
    samples, stepped = _samples(st, path), _step(st, nonlinear).x
    with monkeypatch.context() as mp:
        _bind_content_rows(mp, lambda x, least=0: _content_rows(x, least) - 1)
        if step_rows(st) < band:
            with pytest.raises(ValueError):
                cfl_dt(st, StepperConfig(t_end=1.0, dt_max=1.0))
            assert _samples(st, path, cfl=False)[1:] != samples[1:]
        else:
            assert _samples(st, path) != samples
        if nonlinear and step_rows(st, nonlinear) < band:
            with pytest.raises(ValueError):
                _step(st, nonlinear)
        else:
            assert not np.array_equal(_step(st, nonlinear).x, stepped)


@settings(max_examples=30, deadline=None)
@given(
    n=hst.sampled_from([16, 32]),
    extent=hst.floats(0.0, 1.0),
    nonlinear=hst.booleans(),
    seed=hst.integers(0, 2**32 - 1),
)
def test_rows_past_content_stay_zero(n, extent, nonlinear, seed):
    """A state with content on rows k1 < m0 alone: after a step, every row
    k1 >= max(m0, r) (r the band rows, when nonlinear) is +0.0 bit for bit."""
    grid = GridSpec(n)
    m0 = 1 + int(extent * (n // 2))
    x = np.zeros((4, n // 2 + 1, n), dtype=np.complex128)
    rng = np.random.default_rng(seed)
    x[:, :m0] = 1e-2 * (rng.standard_normal((4, m0, n)) + 1j * rng.standard_normal((4, m0, n)))
    x[:, m0 - 1] += 1e-2  # row m0 - 1 holds content
    st = MHDState(grid, 0.0, x)
    assert _content_rows(x) == m0
    bound = max(m0, int(grid.dealias_cutoff) + 1) if nonlinear else m0
    new = step_ifrk4(st, 1e-3, nonlinear=nonlinear)
    assert not np.any(new.x[:, bound:].view(np.int64))
    assert step_rows(new, nonlinear) <= bound
    assert np.array_equal(st.x, x)


def test_concurrent_runs_match_serial_runs():
    """Runs on three threads at once give the bits of the same runs made
    one after the other, states and records: every buffer of the run loop
    (transform workspace, stage storage, propagator room and factor cache)
    belongs to one thread."""
    import threading

    grid, cfg = GridSpec(64), StepperConfig(t_end=0.5)
    starts = [
        make_initial_data(InitialDataSpec(epsilon=0.5, s=2, seed=seed), grid) for seed in (1, 2, 3)
    ]

    def trajectory(st0):
        records = []
        final = run(st0, cfg, 0.1, lambda rec, st: records.append(rec))
        return final.x.view(np.uint64), records

    serial = [trajectory(st0) for st0 in starts]
    results = [None] * len(starts)
    barrier = threading.Barrier(len(starts))

    def work(i):
        barrier.wait()
        results[i] = trajectory(starts[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(starts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, (x, records) in zip(results, serial):
        assert got is not None
        assert np.array_equal(got[0], x) and got[1] == records
