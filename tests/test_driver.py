import csv
import sys

import numpy as np

from mhd2tor import spectral
from mhd2tor.checkpoint import read_checkpoint
from mhd2tor.config import RunConfig
from mhd2tor.driver import EXIT_OK, csv_header, resume, simulate
from mhd2tor.spectral import GridSpec

_TAIL = [
    "l2_energy", "grad_b_l2_sq", "symmetry_defect",
    "div_defect_u", "div_defect_b", "mean_abs_max", "e0", "e1",
]


def test_csv_header_columns():
    """The diag.csv header bytes are part of the output contract."""
    assert csv_header(2) == [
        "t", "u_H2", "u_H3", "u_H4", "u_H5",
        "b_H2", "b_H3", "b_H4", "b_H5", "b_H6", "d2u_H2", "d2u_H4",
    ] + _TAIL
    assert csv_header(3) == [
        "t", "u_H4", "u_H5", "u_H6", "u_H7",
        "b_H4", "b_H5", "b_H6", "b_H7", "b_H8", "d2u_H4", "d2u_H6",
    ] + _TAIL


def test_simulate_and_resume_stay_on_half_spectrum(tmp_path, monkeypatch):
    """Neither a fresh run nor a resumed one builds a full n x n spectrum or
    a full-grid multiplier.  n = 20 is a size no other test uses, so no
    per-grid cache was filled before the full-grid accessors were removed."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the run built a full spectrum or full-grid multiplier")

    originals = {name: getattr(spectral, name) for name in ("to_full", "_coeff_arrays")}
    for mod in [m for name, m in sys.modules.items() if name.startswith("mhd2tor")]:
        for name, fn in originals.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, forbidden)
    for name in ("k1", "k2", "ksq", "inv_ksq", "dealias_mask", "sobolev_multiplier"):
        monkeypatch.setattr(GridSpec, name, property(forbidden))

    cfg = RunConfig(
        n=20, s=2, epsilon=1e-2, t_end=0.2, sample_every=0.05, snapshot_every=0.1,
        outdir=str(tmp_path / "first"),
    )
    assert simulate(cfg) == EXIT_OK
    cfg.t_end, cfg.outdir = 0.3, str(tmp_path / "second")
    assert resume(cfg, str(tmp_path / "first" / "final.chk")) == EXIT_OK


def test_nonlinear_resume_stays_in_the_class(tmp_path):
    """A nonlinear run resumed from its mid-run snapshot stays in the class:
    every sample of the resume reads a symmetry defect of exactly 0, and
    its final state matches the uninterrupted run's within criterion 10's
    tolerance."""
    cfg = RunConfig(
        n=64, s=2, epsilon=0.5, t_end=0.2, sample_every=0.05, snapshot_every=0.1,
        outdir=str(tmp_path / "full"),
    )
    assert simulate(cfg) == EXIT_OK
    cfg.outdir = str(tmp_path / "resumed")
    assert resume(cfg, str(tmp_path / "full" / "state_00000.100000.chk")) == EXIT_OK
    with open(tmp_path / "resumed" / "diag.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 and all(float(row["symmetry_defect"]) == 0.0 for row in rows)
    full, resumed = (read_checkpoint(tmp_path / d / "final.chk") for d in ("full", "resumed"))
    scale = np.max(np.abs(full.x))
    assert np.max(np.abs(full.x - resumed.x)) <= 1e-13 * max(scale, 1.0)
