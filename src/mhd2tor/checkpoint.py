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
from .spectral import MAX_S, GridSpec, half_coeffs, half_samples, roll_anchor
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState

MAGIC = b"MHD2TOR1"
_HEADER = struct.Struct("<8sIId")
_MAX_N = 16384


def physical_arrays(st: MHDState) -> np.ndarray:
    """Row-major physical samples (u1, u2, b1, b2) of a state, shape (4, n, n)."""
    return roll_anchor(half_samples(st.grid, st.x))


def write_checkpoint(st: MHDState, path: str | os.PathLike, s: int) -> None:
    """Write a state atomically: a failed write leaves ``path`` as it was.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``; on any failure the temporary file is removed.
    """
    arrays = physical_arrays(st)  # before opening, so a failed transform leaves no file
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, st.grid.n, s, st.t))
            fh.write(arrays.astype("<f8", copy=False).tobytes())
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
