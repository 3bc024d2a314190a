import builtins

import numpy as np
import pytest

from mhd2tor import checkpoint
from mhd2tor.checkpoint import (
    MAGIC,
    checkpoint_header,
    physical_arrays,
    read_checkpoint,
    write_checkpoint,
)
from mhd2tor.errors import CorruptCheckpoint, GridMismatch
from mhd2tor.spectral import GridSpec, ScalarField, forward_transform
from mhd2tor.symmetry import InitialDataSpec, make_initial_data, state_from_arrays


@pytest.fixture
def state():
    return make_initial_data(InitialDataSpec(epsilon=0.1, s=2, seed=13), GridSpec(32))


def test_round_trip_samples_to_roundoff(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    loaded = read_checkpoint(path)
    assert loaded.t == state.t
    scale = max(np.max(np.abs(a)) for a in physical_arrays(state))
    for a, b in zip(physical_arrays(state), physical_arrays(loaded)):
        assert np.max(np.abs(a - b)) < 1e-13 * scale
    for a, b in zip(state.coeff_arrays(), loaded.coeff_arrays()):
        assert np.max(np.abs(a - b)) < 1e-13 * scale


def test_round_trip_stable(tmp_path, state):
    # a second write/read cycle must not drift beyond roundoff of the first
    p1, p2 = tmp_path / "a.chk", tmp_path / "b.chk"
    write_checkpoint(state, p1, s=2)
    first = read_checkpoint(p1)
    write_checkpoint(first, p2, s=2)
    second = read_checkpoint(p2)
    scale = max(np.max(np.abs(a)) for a in physical_arrays(first))
    for a, b in zip(physical_arrays(first), physical_arrays(second)):
        assert np.max(np.abs(a - b)) < 1e-14 * scale


def test_on_disk_samples_sit_on_the_grid_from_minus_pi(tmp_path):
    """The stored arrays are the field at grid.x1/grid.x2 (first point -pi).
    Every field has odd k1 + k2, so samples on a grid shifted by n/2 points
    would have the opposite sign."""
    grid = GridSpec(16)
    x1, x2 = grid.x1, grid.x2
    fields = np.stack([
        np.sin(x1 + 2 * x2), np.cos(3 * x1), np.sin(x2) + np.cos(x1 - 2 * x2), np.cos(5 * x2),
    ])
    coeffs = [forward_transform(ScalarField(grid, f)).coeffs for f in fields]
    path = tmp_path / "a.chk"
    write_checkpoint(state_from_arrays(grid, 0.5, *coeffs), path, s=2)
    raw = np.frombuffer(path.read_bytes()[24:], dtype="<f8").reshape(fields.shape)
    assert np.max(np.abs(raw - fields)) < 1e-14
    for c, back in zip(coeffs, read_checkpoint(path).coeff_arrays()):
        assert np.max(np.abs(c - back)) < 1e-14


def test_header(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=3)
    assert checkpoint_header(path) == (32, 3, state.t)


def test_bad_magic(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint) as exc:
        read_checkpoint(path)
    assert exc.value.offset == 0


def test_truncated_file(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    raw = path.read_bytes()
    cut = len(raw) - 100
    path.write_bytes(raw[:cut])
    with pytest.raises(CorruptCheckpoint) as exc:
        read_checkpoint(path)
    assert exc.value.offset == cut


def test_trailing_bytes(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    with open(path, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "a.chk"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(CorruptCheckpoint):
        checkpoint_header(path)


def test_grid_mismatch(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    with pytest.raises(GridMismatch):
        read_checkpoint(path, GridSpec(64))


def test_non_finite_samples_rejected(tmp_path, state):
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    raw = bytearray(path.read_bytes())
    nan = np.float64(np.nan).tobytes()
    header = 24
    raw[header : header + 8] = nan
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_failed_write_keeps_previous_file(tmp_path, state, monkeypatch):
    """A write that fails partway leaves the previous checkpoint intact and
    no temporary file behind."""
    path = tmp_path / "final.chk"
    write_checkpoint(state, path, s=2)
    before = path.read_bytes()

    class FailingFile:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                raise OSError("disk full")
            return self.fh.write(data)

    monkeypatch.setattr(
        checkpoint, "open", lambda *a, **kw: FailingFile(builtins.open(*a, **kw)),
        raising=False,
    )
    later = type(state)(state.grid, 1.0, state.x)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(later, path, s=2)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.chk"]
