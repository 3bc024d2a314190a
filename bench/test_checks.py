"""Each output check fails on the fault it exists to catch.

Run with ``python3 -m pytest bench``.  The fixtures are built from closed
forms, not from the solver.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402

N = 16
GAP_CAP = 1e-3  # energy-law quadrature cap for the closed-form diag.csv below


def grid(n: int = N):
    x = -np.pi + 2.0 * np.pi * np.arange(n) / n
    return np.meshgrid(x, x, indexing="ij")


def class_fields(n: int = N) -> np.ndarray:
    """Divergence-free (u1, u2, b1, b2) with the class parities.

    u = (d2 psi, -d1 psi) with psi odd in x2; b = (d2 a, -d1 a) with a even in x2.
    """
    x1, x2 = grid(n)
    # psi = cos(x1) sin(x2) + 0.3 sin(2 x1) sin(3 x2); a = sin(x1) cos(2 x2)
    u1 = np.cos(x1) * np.cos(x2) + 0.9 * np.sin(2 * x1) * np.cos(3 * x2)
    u2 = np.sin(x1) * np.sin(x2) - 0.6 * np.cos(2 * x1) * np.sin(3 * x2)
    b1 = -2.0 * np.sin(x1) * np.sin(2 * x2)
    b2 = -np.cos(x1) * np.cos(2 * x2)
    return np.stack([u1, u2, b1, b2])


def write_checkpoint(path, arrays: np.ndarray, s: int = 2, t: float = 0.5) -> None:
    n = arrays.shape[-1]
    with open(path, "wb") as fh:
        fh.write(checks.HEADER.pack(checks.MAGIC, n, s, t))
        fh.write(arrays.astype("<f8").tobytes())


def write_diag(path, t: np.ndarray, energy: np.ndarray, diss: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("t,l2_energy,grad_b_l2_sq\n")
        for row in zip(t, energy, diss):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def decaying_diag(h: float = 0.05, t_end: float = 1.0):
    """E = exp(-2t) (1 + 0.1 sin 8t) with D = -dE/dt, so the law holds exactly."""
    t = h * np.arange(int(round(t_end / h)) + 1)
    energy = np.exp(-2.0 * t) * (1.0 + 0.1 * np.sin(8.0 * t))
    diss = np.exp(-2.0 * t) * (2.0 * (1.0 + 0.1 * np.sin(8.0 * t)) - 0.8 * np.cos(8.0 * t))
    return t, energy, diss


def test_structure_accepts_class_fields(tmp_path):
    path = tmp_path / "ok.chk"
    write_checkpoint(path, class_fields())
    t, arrays = checks.check_structure(str(path), N, 2)
    assert t == 0.5 and arrays.shape == (4, N, N)


def test_flipped_parity_fails(tmp_path):
    arrays = class_fields()
    x1, x2 = grid()
    arrays[3] = -np.cos(x1) * np.sin(2 * x2)  # b2 made odd in x2
    path = tmp_path / "flip.chk"
    write_checkpoint(path, arrays)
    with pytest.raises(checks.CheckFailed, match="parity defect"):
        checks.check_structure(str(path), N, 2)


def test_truncated_checkpoint_fails(tmp_path):
    path = tmp_path / "short.chk"
    write_checkpoint(path, class_fields())
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 8)
    with pytest.raises(checks.CheckFailed, match="bytes, layout needs"):
        checks.read_checkpoint(str(path))


def test_linear_propagator_accepts_exact_and_rejects_perturbed_mode():
    initial = class_fields()
    t = 0.7
    exact = np.fft.ifft2(checks.linear_solution(initial, t)).real
    assert checks.check_linear(initial, exact, t) < 1e-12
    perturbed = exact.copy()
    x = np.arange(N)
    perturbed[2] += 1e-6 * np.cos(2 * np.pi * 3 * x / N)[:, None]  # one mode of b1
    with pytest.raises(checks.CheckFailed, match="linear propagator"):
        checks.check_linear(initial, perturbed, t)


def test_energy_law_accepts_exact_decay(tmp_path):
    path = tmp_path / "diag.csv"
    write_diag(path, *decaying_diag())
    checks.check_diag(str(path), 0.0, 1.0, 0.05, GAP_CAP)


def test_raised_energy_row_fails(tmp_path):
    t, energy, diss = decaying_diag()
    energy[7] = energy[6] * (1.0 + 1e-12)
    path = tmp_path / "diag.csv"
    write_diag(path, t, energy, diss)
    with pytest.raises(checks.CheckFailed, match="l2_energy rises"):
        checks.check_diag(str(path), 0.0, 1.0, 0.05, GAP_CAP)


def test_missing_dissipation_fails_energy_law(tmp_path):
    t, energy, diss = decaying_diag()
    path = tmp_path / "diag.csv"
    write_diag(path, t, energy, 0.99 * diss)
    with pytest.raises(checks.CheckFailed, match="energy law residual"):
        checks.check_diag(str(path), 0.0, 1.0, 0.05, GAP_CAP)


@pytest.mark.parametrize("row", [6, 7])
def test_spiked_dissipation_row_fails_energy_law(tmp_path, row):
    """Row 6 is even and odd on the 2h grid, row 7 is odd.

    Without the cap, a spike in row 6 widens |S_h - S_2h| three times as
    much as it moves the residual, so it would pass for any size.
    """
    t, energy, diss = decaying_diag()
    diss[row] += 0.5
    if row == 6:
        residual, allowance = checks.energy_law(energy, diss, 0.05, np.inf)
        assert abs(residual) < allowance
    path = tmp_path / "diag.csv"
    write_diag(path, t, energy, diss)
    with pytest.raises(checks.CheckFailed, match="energy law residual"):
        checks.check_diag(str(path), 0.0, 1.0, 0.05, GAP_CAP)


def test_malformed_diag_fails(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text("t,l2_energy,grad_b_l2_sq\n0,1,2\n0.05,1\n")
    with pytest.raises(checks.CheckFailed, match="line 3 has 2 cells"):
        checks.read_diag(str(path))
    path.write_text("t,l2_energy,grad_b_l2_sq\n0,1,x\n")
    with pytest.raises(checks.CheckFailed, match="could not convert"):
        checks.read_diag(str(path))
    path.write_text("t,l2_energy\n0,1\n")
    with pytest.raises(checks.CheckFailed, match="missing columns"):
        checks.read_diag(str(path))
