"""The package runs on the real transform pair alone: with the complex
transforms of scipy.fft and numpy.fft (fft, ifft, fft2, ifft2, fftn, ifftn)
made to raise, a run, a resume, the public transforms, the pressure and the
verification sweeps still work.  The right-hand side and the step use the
number of real transforms that the divergence form needs."""

import numpy as np
import pytest
import scipy.fft

from mhd2tor.cli import main
from mhd2tor.dynamics import _rhs_arrays, compute_pressure
from mhd2tor.spectral import GridSpec, ScalarField, forward_transform, inverse_transform
from mhd2tor.stepping import step_ifrk4
from mhd2tor.symmetry import InitialDataSpec, make_initial_data
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

    for module in (scipy.fft, np.fft):
        for name in COMPLEX:
            monkeypatch.setattr(module, name, refuse)


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


@pytest.fixture
def field_counts(monkeypatch):
    """Counts of the n x n fields passed through scipy.fft.irfft2/rfft2."""
    counts = {"irfft2": 0, "rfft2": 0}

    def counted(name):
        fn = getattr(scipy.fft, name)

        def wrapper(a, *args, **kwargs):
            counts[name] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(scipy.fft, name, counted(name))
    return counts


def test_transform_count(field_counts):
    """One rhs: 4 inverse fields (u1, u2, b1, b2) and 3 forward (A, C, E);
    one IF-RK4 step: four of each."""
    grid = GridSpec(16)
    st = make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=3), grid)
    _rhs_arrays(grid, st.x, True, True)
    assert field_counts == {"irfft2": 4, "rfft2": 3}
    field_counts.update(irfft2=0, rfft2=0)
    step_ifrk4(st, 1e-2)
    assert field_counts == {"irfft2": 16, "rfft2": 12}
