"""The package runs on the real transform pair alone: with the complex
transforms of scipy.fft and numpy.fft (fft, ifft, fft2, ifft2, fftn, ifftn)
made to raise, a run, a resume, the public transforms, the pressure and the
verification sweeps still work."""

import numpy as np
import pytest
import scipy.fft

from mhd2tor.cli import main
from mhd2tor.dynamics import compute_pressure
from mhd2tor.spectral import GridSpec, ScalarField, forward_transform, inverse_transform
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
