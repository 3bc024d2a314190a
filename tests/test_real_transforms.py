"""The package runs on one real transform pair, two 1-D numpy.fft passes
each way: with the complex transforms of scipy.fft, the 2-D and N-D complex
transforms of numpy.fft, and any other use of numpy.fft.fft/ifft made to
raise, a run, a resume, the public transforms, the pressure and the
verification sweeps still work.  The pair equals scipy.fft.irfft2/rfft2 bit
for bit and writes into caller-owned buffers, so the run loop and a
checkpoint write make no page faults; the right-hand side, the step, a
run and a checkpoint use the number of transforms that the divergence form
and the samples need, packed for states in the symmetry class."""

import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import mhd2tor
from mhd2tor.checkpoint import physical_arrays, read_checkpoint, write_checkpoint
from mhd2tor.cli import main
from mhd2tor.diagnostics import EnergyParams, instantaneous
from mhd2tor.dynamics import _rhs_arrays, compute_pressure
from mhd2tor.spectral import (
    GridSpec,
    ScalarField,
    _content_rows,
    _forward_into,
    _inverse_into,
    _transform_workspace,
    forward_transform,
    half_coeffs,
    half_samples,
    inverse_transform,
)
from mhd2tor.stepping import StepCounts, StepperConfig, cfl_dt, run, step_ifrk4
from mhd2tor.symmetry import InitialDataSpec, MHDState, _pack, make_initial_data
from mhd2tor.verify import run_checks

COMPLEX = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")

CONFIG = """
n = 16
s = 2
epsilon = 1e-2
t_end = 0.2
sample_every = 0.05
snapshot_every = 0.1
"""


@pytest.fixture
def no_complex_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("complex FFT called")

    def half_spectrum_pass(fn):
        """fn only as the 1-D pass along k2 (axis -1) of stacked half spectra,
        on their leading rows: any count from 1 to all n/2 + 1 of them."""

        def guarded(a, *args, axis=-1, **kwargs):
            shape = np.shape(a)
            if args or axis != -1 or len(shape) < 2 or not 1 <= shape[-2] <= shape[-1] // 2 + 1:
                raise AssertionError(f"complex FFT called on shape {shape}, axis {axis}")
            return fn(a, axis=axis, **kwargs)

        return guarded

    for name in COMPLEX:
        monkeypatch.setattr(scipy.fft, name, refuse)
        if name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, half_spectrum_pass(getattr(np.fft, name)))
        else:
            monkeypatch.setattr(np.fft, name, refuse)


def test_no_complex_fft(tmp_path, no_complex_fft):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG)
    out, rest = tmp_path / "out", tmp_path / "rest"
    assert main(["--quiet", "simulate", "--config", str(cfg), "--outdir", str(out)]) == 0
    snapshot = out / "state_00000.100000.chk"
    assert snapshot.exists()
    args = ["--checkpoint", str(snapshot), "--outdir", str(rest)]
    assert main(["--quiet", "resume", "--config", str(cfg), *args]) == 0

    grid = GridSpec(16)
    f = ScalarField(grid, np.sin(grid.x1) * np.cos(3 * grid.x2))
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-14

    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=3), grid)
    assert np.all(np.isfinite(compute_pressure(st).samples))

    rows = run_checks(["oracle", "skew", "poincare", "linear"], n_samples=3)
    assert rows and all(row.passed for row in rows), rows


def test_transform_count(field_counts, tmp_path):
    """One rhs of the packed fields of a state in the class: 2 inverse
    fields (h = u1 + u2 and g = b1 + b2) and 2 forward (A + C and h Rg);
    one Lawson RK4 step from it: four of each, since every stage runs on
    the packed fields.  A state with one anti coefficient takes the
    general kernel: 4 inverse (u1, u2, b1, b2) and 3 forward (A, C, E) per
    rhs.  ``cfl_dt`` runs the rhs of a step's first stage, so it costs one
    rhs of the kernel that the step takes.  One step of a nonlinear run: the
    same as a step, since its CFL speed comes from the stage-1 samples; one
    step of a linear run: none, since it has no CFL limit.  A sample of a
    state in the class (the initial data, and every state of a fresh run,
    linear or not) makes none; one of a state with an anti part makes 4
    for the scale and 2 per pair.  A checkpoint write of a class state
    transforms h and g, and its read transforms them back, which leaves a
    state in the class, so a step from it is 8 + 8; a write of the state
    with an anti part transforms all four fields.  (A read of samples off
    the class: ``test_checkpoint.test_one_ulp_off_the_class_is_kept``.)"""
    grid = GridSpec(16)
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=3), grid)
    _rhs_arrays(grid, _pack(st.x))
    assert field_counts == {"irfft": 2, "rfft": 2}
    field_counts.update(irfft=0, rfft=0)
    cfl_dt(st, StepperConfig(t_end=1.0))
    assert field_counts == {"irfft": 2, "rfft": 2}
    field_counts.update(irfft=0, rfft=0)
    stepped = step_ifrk4(st, 1e-2)
    assert field_counts == {"irfft": 8, "rfft": 8}

    x = st.x.copy()
    assert x[2, 5, 3] == 0.0  # row k1 = 5 lies in the band, above the draw
    x[2, 5, 3] = 1e-30
    anti = MHDState(grid, 0.0, x)
    field_counts.update(irfft=0, rfft=0)
    _rhs_arrays(grid, anti.x)
    assert field_counts == {"irfft": 4, "rfft": 3}
    field_counts.update(irfft=0, rfft=0)
    cfl_dt(anti, StepperConfig(t_end=1.0))
    assert field_counts == {"irfft": 4, "rfft": 3}
    field_counts.update(irfft=0, rfft=0)
    step_ifrk4(anti, 1e-2)
    assert field_counts == {"irfft": 16, "rfft": 12}

    for state, per_sample in ((st, 0), (stepped, 0), (anti, 8)):
        field_counts.update(irfft=0, rfft=0)
        instantaneous(state, EnergyParams(2))
        assert field_counts == {"irfft": per_sample, "rfft": 0}  # symmetry_defect
    path = tmp_path / "a.chk"
    for state, fields in ((anti, 4), (stepped, 2)):
        field_counts.update(irfft=0, rfft=0)
        write_checkpoint(state, path, s=2)
        assert field_counts == {"irfft": fields, "rfft": 0}
    field_counts.update(irfft=0, rfft=0)
    resumed = read_checkpoint(path)
    assert field_counts == {"irfft": 0, "rfft": 2}
    field_counts.update(irfft=0, rfft=0)
    step_ifrk4(resumed, 1e-2)
    assert field_counts == {"irfft": 8, "rfft": 8}
    field_counts.update(irfft=0, rfft=0)
    counts = StepCounts()
    run(st, StepperConfig(t_end=0.05, dt_max=1e-2), 0.05, lambda rec, s: None, counts=counts)
    assert counts.steps == counts.dt_max + counts.landing == 5
    assert field_counts == {"irfft": 8 * 5 + 0 + 0, "rfft": 8 * 5}

    field_counts.update(irfft=0, rfft=0)
    counts = StepCounts()
    cfg = StepperConfig(t_end=0.05, dt_max=1e-2)
    run(st, cfg, 0.05, lambda rec, s: None, nonlinear=False, counts=counts)
    assert counts.steps == counts.dt_max + counts.landing == 5
    assert field_counts == {"irfft": 0 * 5 + 2 * 0, "rfft": 0}

    # dt_max three times cfl * spacing, the CFL step at the background's
    # speed 1: one step, still none
    cfg = StepperConfig(t_end=0.5, dt_max=0.5)
    assert cfg.cfl * grid.spacing < 0.5 / 3
    field_counts.update(irfft=0, rfft=0)
    counts = StepCounts()
    run(st, cfg, 0.5, lambda rec, s: None, nonlinear=False, counts=counts)
    assert counts.steps == counts.landing == 1
    assert field_counts == {"irfft": 0, "rfft": 0}


@pytest.mark.parametrize("n", [16, 64, 256])
def test_pair_matches_scipy_bitwise(n):
    """The 1-D passes, in the caller's buffers and through the public
    functions, equal scipy.fft.irfft2/rfft2 bit for bit."""
    rng = np.random.default_rng(n)
    shape = (4, n // 2 + 1, n)
    half = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    samples = rng.standard_normal((3, n, n))
    expected_samples = scipy.fft.irfft2(half, s=(n, n), axes=(-1, -2), norm="forward")
    expected_half = scipy.fft.rfft2(samples, axes=(-1, -2), norm="forward")

    before = half.copy()
    assert np.array_equal(half_samples(GridSpec(n), half), expected_samples)
    assert np.array_equal(half, before)  # the public inverse leaves its input alone
    assert np.array_equal(half_coeffs(GridSpec(n), samples), expected_half)

    spec, phys = np.empty(shape, dtype=np.complex128), np.empty((4, n, n))
    assert _inverse_into(half, spec, phys) is phys
    assert np.array_equal(phys, expected_samples)
    out = np.empty((3, n // 2 + 1, n), dtype=np.complex128)
    assert _forward_into(samples, out, out) is out
    assert np.array_equal(out, expected_half)

    # the run loop's layout: buffers stored transposed, band rows alone
    spec_t = np.empty((4, n, n // 2 + 1), dtype=np.complex128).transpose(0, 2, 1)
    phys_t = np.empty((4, n, n)).transpose(0, 2, 1)
    _inverse_into(half, spec_t, phys_t)
    assert np.array_equal(phys_t, expected_samples)
    r = n // 3 + 1
    band = np.empty((3, r, n), dtype=np.complex128)
    phys_t[:3] = samples
    assert _forward_into(phys_t[:3], spec_t[:3], band) is band
    assert np.array_equal(band, expected_half[:, :r])


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("rows", ["one", "band", "all"])
def test_run_loop_samples_are_transposed_half_samples(n, rows):
    """The run loop's samples, stored transposed and transformed on the
    content rows alone, are the public ``half_samples`` bit for bit."""
    grid = GridSpec(n)
    m = {"one": 1, "band": int(grid.dealias_cutoff) + 1, "all": n // 2 + 1}[rows]
    rng = np.random.default_rng(n + m)
    x = np.zeros((4, n // 2 + 1, n), dtype=np.complex128)
    x[:, :m] = rng.standard_normal((4, m, n)) + 1j * rng.standard_normal((4, m, n))
    assert _content_rows(x) == m
    ws = _transform_workspace(grid)
    _inverse_into(x[:, :m], ws.spec_t, ws.phys_t)
    assert ws.phys.transpose(0, 2, 1).tobytes() == half_samples(grid, x).tobytes()


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.parametrize("n", [64, 256])
def test_step_makes_no_page_faults(n):
    """After warm-up, a step writes only into buffers it already owns
    (the state array it returns is recycled from the one freed before)."""
    st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), GridSpec(n))
    for _ in range(3):
        st = step_ifrk4(st, 1e-3)
    before = _minor_faults()
    for _ in range(4):
        st = step_ifrk4(st, 1e-3)
    assert (_minor_faults() - before) / 4 < 50


_SAMPLED_RUN = """
import resource
from mhd2tor.diagnostics import EnergyParams
from mhd2tor.spectral import GridSpec
from mhd2tor.stepping import StepCounts, StepperConfig, run
from mhd2tor.symmetry import InitialDataSpec, make_initial_data

st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), GridSpec(256))
faults = []

def sink(rec, state):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

counts = StepCounts()
run(st, StepperConfig(t_end=0.035), 5e-3, sink, energy_params=EnergyParams(2), counts=counts)
assert counts.steps == counts.landing == 7 == len(faults) - 1
print((faults[7] - faults[3]) / 4)
"""


def _src_env() -> dict:
    """The environment of a child interpreter that imports this package."""
    src = str(Path(mhd2tor.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_sampled_run_makes_no_page_faults():
    """A nonlinear run at n=256 that samples every step: its CFL step (about
    8e-3) overshoots every sample time 5e-3 apart, so each step lands on one.
    One run of seven such steps: the first three, with their samples, warm
    up, and the last four are measured, so the warm-up covers the same
    landings and samples as the measured window, and no run ends between
    them to free its states.  It runs in a fresh interpreter: whether malloc
    hands a freed state's block back depends on the heap, and in this one
    it is what earlier tests left."""
    proc = subprocess.run(
        [sys.executable, "-c", _SAMPLED_RUN], env=_src_env(), capture_output=True, text=True,
        check=True,
    )
    assert float(proc.stdout) < 50


def test_checkpoint_write_makes_no_page_faults(tmp_path):
    """After warm-up, a write at n=256 forms the rolled samples in the shared
    transform workspace and writes them as they are, with no copy: the file
    holds the bytes of ``physical_arrays``."""
    st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), GridSpec(256))
    path = tmp_path / "a.chk"
    for _ in range(3):
        write_checkpoint(st, path, s=2)
    before = _minor_faults()
    for _ in range(4):
        write_checkpoint(st, path, s=2)
    assert (_minor_faults() - before) / 4 < 50
    assert path.read_bytes()[24:] == physical_arrays(st).astype("<f8").tobytes()


def _full_row_state(grid):
    """A drawn state with roundoff on every row, as read from a checkpoint."""
    st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)
    return MHDState(grid, 0.0, half_coeffs(grid, half_samples(grid, st.x)))


def _mark(marks):
    """Append the traced memory (current, peak since the last mark) and
    restart the peak."""
    marks.append(tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()


@pytest.mark.parametrize("case", ["step", "linear-run-step", "sample"])
def test_run_loop_allocates_only_the_new_state(monkeypatch, tmp_path, case):
    """After warm-up, at n=256, the traced memory of one nonlinear step and
    of one step of a linear run peaks at most a state's bytes plus 256 KiB
    above where it started; in the run, the choice of dt and the loop
    around the step get 256 KiB, and so does one sample with a checkpoint
    write, which returns no state.  The run loop
    works in per-grid buffers, and a buffer allocated and freed again
    inside a call counts here, where the page-fault tests miss it.  The run
    and the sample work on all rows."""
    grid = GridSpec(256)
    full = _full_row_state(grid)
    state_bytes, marks = full.x.nbytes, []
    if case == "step":
        st = make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid)

        def call():
            step_ifrk4(st, 1e-3)
    elif case == "sample":

        def call():
            instantaneous(full, EnergyParams(2))
            write_checkpoint(full, tmp_path / "a.chk", s=2)
    else:
        import mhd2tor.diagnostics as diagnostics
        import mhd2tor.stepping as stepping

        step = stepping.step_ifrk4

        def marked_step(*args, **kwargs):
            _mark(marks)
            return step(*args, **kwargs)

        # marks at both samples and at the step, so the windows split there
        monkeypatch.setattr(diagnostics, "instantaneous", lambda st, params: _mark(marks))
        monkeypatch.setattr(stepping, "step_ifrk4", marked_step)

        def call():
            counts = StepCounts()
            cfg = StepperConfig(t_end=5e-3, dt_max=5e-3)
            run(full, cfg, 5e-3, lambda rec, st: None, nonlinear=False, counts=counts)
            assert counts.steps == counts.landing == 1

    tracemalloc.start()
    try:
        for _ in range(3):  # the first two warm up
            marks.clear()
            _mark(marks)
            call()
            _mark(marks)
    finally:
        tracemalloc.stop()
    windows = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
    if case == "linear-run-step":
        before, choose, step_window, after = windows
        assert max(before, choose, after) <= 256 * 1024
        windows = [step_window]
    (window,) = windows
    assert window <= (0 if case == "sample" else state_bytes) + 256 * 1024


def test_import_leaves_scipy_out():
    code = "import sys, mhd2tor.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
