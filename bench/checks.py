"""Output checks made apart from the solver, with numpy and scipy only.

Nothing here imports mhd2tor.  The checkpoint reader follows the
``MHD2TOR1`` layout the README documents; parities, divergence, the energy
law and the linear propagator are recomputed from the files a run wrote.
Every check raises ``CheckFailed`` with a reason.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np
import scipy.linalg

MAGIC = b"MHD2TOR1"
HEADER = struct.Struct("<8sIId")  # magic, u32 n, u32 s, f64 t
# Parity of u1, u2, b1, b2 under x2 -> -x2.
PARITY = (1.0, -1.0, -1.0, 1.0)

STRUCT_TOL = 1e-10  # parity and divergence, relative; roundoff is ~1e-16
T_END_TOL = 1e-9
LINEAR_TOL = 1e-7  # IF-RK4 at dt = 0.01 is ~3e-9 relative
RESUME_TOL = 1e-10
ENERGY_FLOOR = 1e-7  # relative; IF-RK4 at dt = 0.01 misses the law by ~1e-9
DIAG_COLUMNS = ("t", "l2_energy", "grad_b_l2_sq")  # the ones the checks read


class CheckFailed(Exception):
    pass


def read_checkpoint(path: str) -> tuple[int, int, float, np.ndarray]:
    """(n, s, t, samples of shape (4, n, n)) of one checkpoint file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < HEADER.size:
        raise CheckFailed(f"{path}: truncated header ({len(raw)} bytes)")
    magic, n, s, t = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CheckFailed(f"{path}: bad magic {magic!r}")
    expected = HEADER.size + 4 * 8 * n * n
    if len(raw) != expected:
        raise CheckFailed(f"{path}: {len(raw)} bytes, layout needs {expected}")
    arrays = np.frombuffer(raw, dtype="<f8", offset=HEADER.size).reshape(4, n, n)
    if not np.all(np.isfinite(arrays)):
        raise CheckFailed(f"{path}: non-finite samples")
    return n, s, t, arrays.astype(np.float64)


def parity_defect(arrays: np.ndarray) -> float:
    """Largest relative departure of u1, u2, b1, b2 from their x2 parities.

    The grid x2_j = -pi + 2 pi j / n is reflection-closed: -x2_j is x2 at
    index (n - j) mod n.
    """
    n = arrays.shape[-1]
    refl = arrays[:, :, (-np.arange(n)) % n]
    scale = np.max(np.abs(arrays))
    if scale == 0.0:
        return 0.0
    sign = np.array(PARITY)[:, None, None]
    return float(np.max(np.abs(refl - sign * arrays)) / scale)


def divergence_defect(f1: np.ndarray, f2: np.ndarray) -> float:
    """||div f|| / ||grad f|| in L2, from numpy.fft (Nyquist derivative zeroed)."""
    n = f1.shape[0]
    k = np.fft.fftfreq(n, 1.0 / n)
    kd = np.where(k == -n // 2, 0.0, k)
    h1, h2 = np.fft.fft2(f1), np.fft.fft2(f2)
    div = kd[:, None] * h1 + kd[None, :] * h2
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    grad = np.sum(ksq * (np.abs(h1) ** 2 + np.abs(h2) ** 2))
    if grad == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(np.abs(div) ** 2) / grad))


def check_structure(path: str, n: int, s: int) -> tuple[float, np.ndarray]:
    """Read a checkpoint and check grid, s, parities and divergence; (t, samples)."""
    n_f, s_f, t, arrays = read_checkpoint(path)
    if (n_f, s_f) != (n, s):
        raise CheckFailed(f"{path}: header n={n_f}, s={s_f}; expected n={n}, s={s}")
    par = parity_defect(arrays)
    if par > STRUCT_TOL:
        raise CheckFailed(f"{path}: parity defect {par:.3e}")
    for name, (a, b) in (("u", arrays[:2]), ("b", arrays[2:])):
        div = divergence_defect(a, b)
        if div > STRUCT_TOL:
            raise CheckFailed(f"{path}: divergence of {name} {div:.3e}")
    return t, arrays


def read_diag(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckFailed(f"{path}: no sample rows")
    head = rows[0]
    missing = [name for name in DIAG_COLUMNS if name not in head]
    if missing:
        raise CheckFailed(f"{path}: missing columns {missing}")
    for i, r in enumerate(rows[1:], start=2):
        if len(r) != len(head):
            raise CheckFailed(f"{path}: line {i} has {len(r)} cells, header {len(head)}")
    try:
        data = np.array([[float(v) for v in r] for r in rows[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from None
    return {name: data[:, i] for i, name in enumerate(head)}


def simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid; 3/8 rule on the last panel if needed."""
    m = len(y) - 1
    if m < 2:
        raise CheckFailed(f"need at least 3 samples for Simpson, got {len(y)}")
    total = 0.0
    if m % 2 == 1:
        total += 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
        y = y[:-3]
    return total + h / 3.0 * (y[0] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2]) + y[-1])


def energy_law(
    energy: np.ndarray, diss: np.ndarray, h: float, gap_cap: float
) -> tuple[float, float]:
    """(residual, allowance) of l2_energy(t_end) - l2_energy(t_0) + int ||grad b||^2 dt.

    The allowance is |S_h - S_2h|, the gap between Simpson on every sample
    and on every other sample (about 15 times the error of S_h for smooth
    data), capped at ``gap_cap`` times the initial energy, plus ENERGY_FLOOR
    of the initial energy for the time-stepping error.  The gap is computed
    from the column under test, and one bad dissipation sample can widen it
    more than it moves the residual; the cap, fixed per workload, bounds that.
    """
    s_h = simpson(diss, h)
    m2 = (len(diss) - 1) // 2 * 2  # the span both grids cover
    gap = simpson(diss[: m2 + 1], h) - simpson(diss[: m2 + 1 : 2], 2.0 * h)
    residual = energy[-1] - energy[0] + s_h
    return residual, (min(abs(gap), gap_cap * energy[0]) + ENERGY_FLOOR * energy[0])


def check_diag(
    path: str, t_start: float, t_end: float, sample_every: float, gap_cap: float
) -> dict:
    """Sample times, monotone energy, final time and the L2 energy law."""
    cols = read_diag(path)
    t, energy, diss = cols["t"], cols["l2_energy"], cols["grad_b_l2_sq"]
    expected = t_start + sample_every * np.arange(len(t))
    if np.max(np.abs(t - expected)) > T_END_TOL:
        raise CheckFailed(f"{path}: sample times are not every {sample_every}")
    if abs(t[-1] - t_end) > T_END_TOL:
        raise CheckFailed(f"{path}: last t {t[-1]!r}, t_end {t_end!r}")
    rise = np.diff(energy)
    if np.any(rise > 0.0):
        i = int(np.argmax(rise))
        raise CheckFailed(f"{path}: l2_energy rises by {rise[i]:.3e} at t={t[i + 1]:.6g}")
    # d/dt l2_energy = -||grad b||^2
    residual, allowance = energy_law(energy, diss, sample_every, gap_cap)
    if abs(residual) > allowance:
        raise CheckFailed(
            f"{path}: energy law residual {residual:.3e} exceeds quadrature "
            f"allowance {allowance:.3e}"
        )
    return cols


def linear_solution(initial: np.ndarray, t: float) -> np.ndarray:
    """Fourier coefficients (numpy.fft.fft2 scaling) of the linear flow at time t.

    Per mode and per component c, (u_c, b_c)' = [[0, i k2], [i k2, -|k|^2]] (u_c, b_c).
    Divergence-free data stay divergence-free, so the projection drops out.
    """
    n = initial.shape[-1]
    k = np.fft.fftfreq(n, 1.0 / n)
    # the Nyquist wavenumber carries no sign, so d/dx2 is zero there
    k2 = np.where(k == -n // 2, 0.0, k)[None, :] * np.ones((n, 1))
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    gen = np.zeros((n, n, 2, 2), dtype=np.complex128)
    gen[..., 0, 1] = gen[..., 1, 0] = 1j * k2
    gen[..., 1, 1] = -ksq
    prop = scipy.linalg.expm(gen * t)
    h = np.fft.fft2(initial)
    out = np.empty_like(h)
    for c in (0, 1):
        u, b = h[c], h[c + 2]
        out[c] = prop[..., 0, 0] * u + prop[..., 0, 1] * b
        out[c + 2] = prop[..., 1, 0] * u + prop[..., 1, 1] * b
    return out


def check_linear(initial: np.ndarray, final: np.ndarray, t: float) -> float:
    """Relative max error of every final mode against the exact linear flow."""
    want = linear_solution(initial, t)
    err = float(np.max(np.abs(np.fft.fft2(final) - want)) / np.max(np.abs(want)))
    if err > LINEAR_TOL:
        raise CheckFailed(f"linear propagator mismatch {err:.3e} > {LINEAR_TOL:.0e}")
    return err


def check_resume(uninterrupted: np.ndarray, resumed: np.ndarray) -> float:
    err = float(np.max(np.abs(resumed - uninterrupted)) / np.max(np.abs(uninterrupted)))
    if err > RESUME_TOL:
        raise CheckFailed(f"resumed state differs from uninterrupted by {err:.3e}")
    return err


def check_run(run_dir: str, cfg: dict, t_start: float, gap_cap: float):
    """Every file of one simulate/resume output directory; returns final samples."""
    n, s, t_end = cfg["n"], cfg["s"], cfg["t_end"]
    every = cfg["sample_every"]
    check_diag(os.path.join(run_dir, "diag.csv"), t_start, t_end, every, gap_cap)
    t_final, final = check_structure(os.path.join(run_dir, "final.chk"), n, s)
    if abs(t_final - t_end) > T_END_TOL:
        raise CheckFailed(f"final.chk at t={t_final!r}, t_end {t_end!r}")
    snap_every = cfg.get("snapshot_every", 0.0)
    snaps = sorted(f for f in os.listdir(run_dir) if f.startswith("state_"))
    if snap_every > 0:
        first = int(round(t_start / snap_every)) + 1
        want = int(round(t_end / snap_every)) - first + 1
        if len(snaps) != want:
            raise CheckFailed(f"{run_dir}: {len(snaps)} snapshots, expected {want}")
        for i, name in enumerate(snaps):
            t_snap, _ = check_structure(os.path.join(run_dir, name), n, s)
            if abs(t_snap - (first + i) * snap_every) > T_END_TOL:
                raise CheckFailed(f"{name}: header t={t_snap!r}")
    elif snaps:
        raise CheckFailed(f"{run_dir}: snapshots written with snapshot_every = 0")
    return t_final, final
