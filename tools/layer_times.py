"""Per-call times of the solver's layers at a few grid sizes.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/layer_times.py [--n 64 --n 128 --n 256] \\
        [--repeat 7] [--number N]

For each grid (default n = 64, 128 and 256) the state is one nonlinear
step (dt = 5e-3) from the seed-1 draw (``epsilon = 1e-2``, ``s = 2``).  On
it, ``timeit`` times four layers of the run loop:

* ``rhs``: ``dynamics._rhs_arrays`` of the packed fields of the state's
  content rows, into a buffer kept across calls;
* ``step``: ``stepping.step_ifrk4`` of dt = 5e-3 on the content rows,
  with the class test made once, as ``run`` makes it;
* ``instantaneous``: ``diagnostics.instantaneous`` with ``s = 2``;
* ``write_checkpoint``: ``checkpoint.write_checkpoint``, the file write
  included, into a temporary directory.

Each layer is timed in ``--repeat`` runs of ``--number`` calls (default
200, 100 and 20 calls at n = 64, 128 and 256, and 100 at any other n),
after one call to fill the caches.  The table gives the
median over the runs of the time per call, in milliseconds.  The package
is the one on ``sys.path``, so ``PYTHONPATH`` picks the checkout.
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import timeit

import numpy as np

from mhd2tor.checkpoint import write_checkpoint
from mhd2tor.diagnostics import EnergyParams, instantaneous
from mhd2tor.dynamics import _rhs_arrays
from mhd2tor.spectral import GridSpec
from mhd2tor.stepping import step_ifrk4, step_rows
from mhd2tor.symmetry import InitialDataSpec, _in_class, _pack, make_initial_data

LAYERS = ("rhs", "step", "instantaneous", "write_checkpoint")
DT = 5e-3
NUMBER = {64: 200, 128: 100, 256: 20}


def calls(n: int, directory: str) -> dict:
    """The four layers at grid size ``n``, as calls without arguments."""
    grid = GridSpec(n)
    st = step_ifrk4(make_initial_data(InitialDataSpec(epsilon=1e-2, s=2, seed=1), grid), DT)
    m = step_rows(st)
    x = st.x[:, :m]
    in_class = _in_class(grid, x)
    hg = _pack(x)
    out = np.empty_like(hg)
    params = EnergyParams(2)
    path = os.path.join(directory, f"n{n}.chk")
    return {
        "rhs": lambda: _rhs_arrays(grid, hg, out=out),
        "step": lambda: step_ifrk4(st, DT, rows=m, in_class=in_class),
        "instantaneous": lambda: instantaneous(st, params),
        "write_checkpoint": lambda: write_checkpoint(st, path, s=2),
    }


def layer_times(n: int, repeat: int = 7, number: int | None = None) -> dict[str, float]:
    """Median time per call in seconds of each layer at grid size ``n``."""
    number = number or NUMBER.get(n, 100)
    with tempfile.TemporaryDirectory() as directory:
        times = {}
        for name, fn in calls(n, directory).items():
            fn()
            runs = timeit.repeat(fn, number=number, repeat=repeat)
            times[name] = statistics.median(runs) / number
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, action="append", help="grid size (repeatable)")
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--number", type=int, default=None, help="calls per run")
    args = parser.parse_args(argv)
    print(f"{'n':>5}" + "".join(f"{name + ' ms':>20}" for name in LAYERS))
    for n in args.n or (64, 128, 256):
        times = layer_times(n, args.repeat, args.number)
        print(f"{n:>5}" + "".join(f"{1e3 * times[name]:>20.4f}" for name in LAYERS))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
