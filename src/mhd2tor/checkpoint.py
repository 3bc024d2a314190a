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

A state in the reflection class keeps the class through the round trip,
exactly, by the packed form of ``symmetry``.  Its samples come from the
packed fields h = u1 + u2 and g = b1 + b2 alone (``_pack``), as
(h + Rh)/2, (h - Rh)/2, (g - Rg)/2 and (g + Rg)/2 (``_unpack``), with R
the x2-mirror, the permutation j -> n - j on either grid; so the written
samples are even and odd bit for bit.  A read that finds its samples even
and odd bit for bit, by the class test of the step (``_in_class``),
transforms the packed fields and splits their spectra by k2 parity the
same way, which leaves the state in the class bit for bit.  Samples off
the class by one bit take the four-field transforms both ways, so the
anti part is kept, not projected away.  A read checks the file's size
against the one its header implies before it allocates the arrays.  A
header n that ``GridSpec`` refuses is corrupt.
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
    _content_rows,
    _inverse_into,
    _n_allowed,
    _phys_as_complex,
    _spec_as_real,
    _transform_workspace,
    half_coeffs,
    roll_anchor,
)
from .spectral import fft_coeffs, ifft_samples  # noqa: F401  traced by name in bench/spans.py
from .symmetry import MHDState, _in_class, _pack, _unpack

MAGIC = b"MHD2TOR1"
_HEADER = struct.Struct("<8sIId")


def physical_arrays(st: MHDState) -> np.ndarray:
    """Row-major physical samples (u1, u2, b1, b2) of a state, shape (4, n, n):
    the bytes ``write_checkpoint`` writes."""
    return _workspace_samples(st).copy()


def _roll_into(phys: np.ndarray, rolled: np.ndarray) -> np.ndarray:
    """The samples ``phys`` (..., n, n), stored transposed
    (``Workspace.phys``), rolled by n/2 points into the row-major
    ``rolled``, as four block copies of their transposes."""
    h = phys.shape[-1] // 2
    phys = phys.swapaxes(-2, -1)
    rolled[..., :h, :h] = phys[..., h:, h:]
    rolled[..., :h, h:] = phys[..., h:, :h]
    rolled[..., h:, :h] = phys[..., :h, h:]
    rolled[..., h:, h:] = phys[..., :h, :h]
    return rolled


def _workspace_samples(st: MHDState) -> np.ndarray:
    """``physical_arrays(st)`` formed in the shared transform workspace, in
    its complex stack viewed as real arrays, valid until its next use.  The
    inverse transform runs on the rows of ``st`` that hold content, of the
    four fields, or for a state in the class of h and g alone, whose rolled
    samples wait in the second half of the real stack for ``_unpack``."""
    grid = st.grid
    ws = _transform_workspace(grid)
    x = st.x[:, : _content_rows(st.x)]
    rolled = _spec_as_real(grid, (4, grid.n, grid.n))
    if not _in_class(grid, x):
        _inverse_into(x, ws.spec_t, ws.phys_t)
        return _roll_into(ws.phys, rolled)
    hg = _pack(x, _phys_as_complex(grid, (2,) + x.shape[1:]))
    _inverse_into(hg, ws.spec_t[:2], ws.phys_t[:2])
    return _unpack(_roll_into(ws.phys[:2], ws.phys[2:]), rolled)


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
    if not _n_allowed(n):
        raise CorruptCheckpoint(f"implausible grid size n={n}", offset=8)
    if not 2 <= s <= MAX_S:
        raise CorruptCheckpoint(f"regularity index s={s} outside [2, {MAX_S}]", offset=12)
    if not np.isfinite(t):
        raise CorruptCheckpoint(f"non-finite time {t}", offset=16)
    return n, s, t


def read_checkpoint(
    path: str | os.PathLike, grid: GridSpec | None = None
) -> MHDState:
    """Load a state; raises CorruptCheckpoint / GridMismatch on bad input,
    a file of the wrong size before any array is allocated."""
    n, _, t = checkpoint_header(path)
    if grid is not None and grid.n != n:
        raise GridMismatch(f"checkpoint has n={n}, expected n={grid.n}")
    grid = grid if grid is not None else GridSpec(n)
    nbytes = 8 * n * n
    end = _HEADER.size + 4 * nbytes
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > end:
            raise CorruptCheckpoint("trailing bytes after final array", offset=end)
        if size == end:
            raw = np.empty((4, n, n), dtype="<f8")
            fh.seek(_HEADER.size)
            size = _HEADER.size + fh.readinto(raw)
    if size < end:
        i = (size - _HEADER.size) // nbytes
        raise CorruptCheckpoint(f"truncated array {i + 1} of 4", offset=size)
    for i, arr in enumerate(raw):
        if not np.all(np.isfinite(arr)):
            raise CorruptCheckpoint(
                f"non-finite samples in array {i + 1} of 4", offset=_HEADER.size + i * nbytes
            )
    if not _in_class(grid, raw):
        return MHDState(grid, t, half_coeffs(grid, roll_anchor(raw)))
    # even and odd bit for bit: split the spectra of h and g by k2 parity
    hg = half_coeffs(grid, roll_anchor(_pack(raw, raw[:2])))
    return MHDState(grid, t, _unpack(hg, np.empty((4,) + hg.shape[1:], dtype=np.complex128)))
