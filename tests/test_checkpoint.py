import builtins
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mhd2tor import checkpoint
from mhd2tor.checkpoint import (
    MAGIC,
    checkpoint_header,
    physical_arrays,
    read_checkpoint,
    write_checkpoint,
)
from mhd2tor.dynamics import _rhs_arrays
from mhd2tor.errors import CorruptCheckpoint, GridMismatch
from mhd2tor.spectral import (
    MAX_N,
    GridSpec,
    ScalarField,
    forward_transform,
    half_samples,
    roll_anchor,
)
from mhd2tor.stepping import step_ifrk4
from mhd2tor.symmetry import (
    _STACK_PARITY,
    InitialDataSpec,
    _in_class,
    _reflect_coeffs,
    make_initial_data,
    state_from_arrays,
    symmetry_defect,
)


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


def _on_disk_samples(path, n):
    return np.frombuffer(Path(path).read_bytes()[24:], dtype="<f8").reshape(4, n, n)


@settings(max_examples=10, deadline=None)
@given(
    n=hst.sampled_from([16, 24, 32, 64, 128]),
    seed=hst.integers(0, 2**31 - 1),
    epsilon=hst.floats(1e-3, 2.0),
)
def test_class_round_trip_stays_in_the_class(n, seed, epsilon):
    """A state in the class, one nonlinear step from the draw, is written as
    samples that are even (u1, b2) and odd (u2, b1) in x2 bit for bit, and
    is read back in the class, within the round-trip tolerances of a
    general state: the samples against those of the four-field transform,
    and the coefficients."""
    grid = GridSpec(n)
    st = step_ifrk4(make_initial_data(InitialDataSpec(epsilon, s=2, seed=seed), grid), 1e-2)
    assert _in_class(grid, st.x)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.chk"
        write_checkpoint(st, path, s=2)
        raw = _on_disk_samples(path, n)
        loaded = read_checkpoint(path)
    assert np.array_equal(_reflect_coeffs(raw, _STACK_PARITY), raw)
    assert _in_class(grid, loaded.x)
    reference = roll_anchor(half_samples(grid, st.x))
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(raw - reference)) < 1e-13 * scale
    assert np.max(np.abs(physical_arrays(loaded) - raw)) < 1e-13 * scale
    for a, b in zip(st.coeff_arrays(), loaded.coeff_arrays()):
        assert np.max(np.abs(a - b)) < 1e-13 * scale


def test_one_ulp_off_the_class_is_kept(tmp_path, state, field_counts):
    """Negative control of the class read: one sample of an odd field moved
    by one ulp takes the four-field read, so the state keeps its anti part,
    which ``symmetry_defect`` measures and which sends the right-hand side
    to the general kernel (4 + 3 field transforms)."""
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    raw = _on_disk_samples(path, 32).copy()
    raw[1, 3, 5] = np.nextafter(raw[1, 3, 5], np.inf)
    path.write_bytes(path.read_bytes()[:24] + raw.tobytes())
    field_counts.update(irfft=0, rfft=0)
    loaded = read_checkpoint(path)
    assert field_counts == {"irfft": 0, "rfft": 4}
    assert not _in_class(loaded.grid, loaded.x)
    assert symmetry_defect(loaded) > 0.0
    field_counts.update(irfft=0, rfft=0)
    _rhs_arrays(loaded.grid, loaded.x)
    assert field_counts == {"irfft": 4, "rfft": 3}


def _off_by_one_bit(raw):
    raw[1, 3, 5] = np.nextafter(raw[1, 3, 5], np.inf)
    return raw


def _signed_zeros(raw):
    """Column j = 0 of the odd u2 is -0.0, its own mirror; one pair of
    mirrored samples of the even u1 is -0.0 and +0.0."""
    n = raw.shape[-1]
    raw[1, :, 0] = -0.0
    raw[0, 2, 3], raw[0, 2, n - 3] = -0.0, 0.0
    return raw


@pytest.mark.parametrize("n", [8, 16, 64, 256])
@pytest.mark.parametrize(
    "case, in_class",
    [
        (lambda raw: raw, False),
        (lambda raw: raw, True),
        (_off_by_one_bit, False),
        (_signed_zeros, True),
    ],
    ids=["random", "symmetrized", "one-bit-off", "signed-zeros"],
)
def test_in_class_on_samples_matches_the_mirror_test(n, case, in_class):
    """``_in_class`` on real samples (4, n, n), the class test of a read,
    decides as the mirror test R raw == raw, with R the x2 reflection and
    the class parities: on random samples, on their symmetrized part, on
    that part one bit off and on it with signed zeros.  (At the parent the
    samples did not fit the complex view of the workspace.)"""
    grid = GridSpec(n)
    raw = np.random.default_rng(n).standard_normal((4, n, n))
    if in_class or case is _off_by_one_bit:
        raw = 0.5 * (raw + _reflect_coeffs(raw, _STACK_PARITY))
    raw = case(raw)
    assert np.array_equal(_reflect_coeffs(raw, _STACK_PARITY), raw) is in_class
    assert _in_class(grid, raw) is in_class


def test_header_refuses_a_grid_above_max_n(tmp_path, state):
    """A header n above MAX_N is corrupt at offset 8, by the n rule of
    ``GridSpec``."""
    path = tmp_path / "a.chk"
    write_checkpoint(state, path, s=2)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (MAX_N + 2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptCheckpoint) as exc:
        checkpoint_header(path)
    assert exc.value.offset == 8


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
