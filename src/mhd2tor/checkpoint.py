"""Binary checkpoint format.

Layout (little-endian):

    bytes 0..7    magic b"MHD2TOR1"
    bytes 8..11   u32 n            (grid size)
    bytes 12..15  u32 s            (energy regularity index)
    bytes 16..23  f64 t            (simulation time)
    then four n*n f64 arrays, row-major physical samples: u1, u2, b1, b2.

Physical samples on the grid anchored at -pi (the state's samples on the
grid anchored at 0, rolled by n/2 points) are the canonical on-disk
representation; writing and re-reading a state reproduces its samples
bit-exactly and its spectral coefficients to roundoff.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .errors import CorruptCheckpoint, GridMismatch
from .spectral import (
    MAX_S,
    GridSpec,
    _inverse_rows,
    _spec_as_real,
    half_coeffs,
    half_samples,
    roll_anchor,
)
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState

MAGIC = b"MHD2TOR1"
_HEADER = struct.Struct("<8sIId")
_MAX_N = 16384


def physical_arrays(st: MHDState) -> np.ndarray:
    """Row-major physical samples (u1, u2, b1, b2) of a state, shape (4, n, n)."""
    return roll_anchor(half_samples(st.grid, st.x))


def _workspace_samples(st: MHDState) -> np.ndarray:
    """``physical_arrays(st)`` formed in the shared transform workspace, valid
    until its next use: the samples, which the workspace stores transposed,
    then the roll by n/2 points as four block copies of their transposes
    into the complex stack viewed as real arrays.  The inverse transform
    runs on the rows of ``st`` that hold content."""
    n, h = st.grid.n, st.grid.n // 2
    phys = _inverse_rows(st.grid, st.x).transpose(0, 2, 1)
    rolled = _spec_as_real(st.grid, (4, n, n))
    rolled[:, :h, :h] = phys[:, h:, h:]
    rolled[:, :h, h:] = phys[:, h:, :h]
    rolled[:, h:, :h] = phys[:, :h, h:]
    rolled[:, h:, h:] = phys[:, :h, :h]
    return rolled


def write_checkpoint(st: MHDState, path: str | os.PathLike, s: int) -> None:
    """Write a state atomically: a failed write leaves ``path`` as it was.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; on any failure the temporary file is removed.
    """
    # before opening, so a failed transform leaves no file
    data = _workspace_samples(st).astype("<f8", copy=False).data
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, st.grid.n, s, st.t))
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def checkpoint_header(path: str | os.PathLike) -> tuple[int, int, float]:
    """(n, s, t) from a checkpoint header, validating magic and sanity."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise CorruptCheckpoint("truncated header", offset=len(head))
    magic, n, s, t = _HEADER.unpack(head)
    if magic != MAGIC:
        raise CorruptCheckpoint(f"bad magic {magic!r}", offset=0)
    if n < 8 or n % 2 != 0 or n > _MAX_N:
        raise CorruptCheckpoint(f"implausible grid size n={n}", offset=8)
    if not 2 <= s <= MAX_S:
        raise CorruptCheckpoint(f"regularity index s={s} outside [2, {MAX_S}]", offset=12)
    if not np.isfinite(t):
        raise CorruptCheckpoint(f"non-finite time {t}", offset=16)
    return n, s, t


def read_checkpoint(
    path: str | os.PathLike, grid: GridSpec | None = None
) -> MHDState:
    """Load a state; raises CorruptCheckpoint / GridMismatch on bad input."""
    n, _, t = checkpoint_header(path)
    if grid is not None and grid.n != n:
        raise GridMismatch(f"checkpoint has n={n}, expected n={grid.n}")
    grid = grid if grid is not None else GridSpec(n)
    nbytes = 8 * n * n
    arrays = []
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for i in range(4):
            offset = _HEADER.size + i * nbytes
            raw = fh.read(nbytes)
            if len(raw) < nbytes:
                raise CorruptCheckpoint(
                    f"truncated array {i + 1} of 4", offset=offset + len(raw)
                )
            arr = np.frombuffer(raw, dtype="<f8").reshape(n, n)
            if not np.all(np.isfinite(arr)):
                raise CorruptCheckpoint(
                    f"non-finite samples in array {i + 1} of 4", offset=offset
                )
            arrays.append(arr)
        if fh.read(1):
            raise CorruptCheckpoint(
                "trailing bytes after final array", offset=_HEADER.size + 4 * nbytes
            )
    return MHDState(grid, t, half_coeffs(grid, roll_anchor(np.stack(arrays))))
