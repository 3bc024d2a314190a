"""Command-line interface.

Subcommands: make-ic, simulate, resume, verify, diagnose.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .checkpoint import checkpoint_header, read_checkpoint, write_checkpoint
from .config import parse_config
from .diagnostics import EnergyParams, instantaneous
from .driver import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    initial_state,
    resume,
    simulate,
)
from .errors import (
    ConfigError,
    CorruptCheckpoint,
    GridMismatch,
    Mhd2torError,
)
from .symmetry import validate_state
from .verify import CHECKS, run_checks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhd2tor",
        description="Pseudo-spectral 2D MHD (magnetic diffusion only) on the torus",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-ic", help="write seeded initial data to a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")

    p = sub.add_parser("simulate", help="run from seeded initial data")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None, help="override the config outdir")

    p = sub.add_parser("resume", help="continue a run from a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--outdir", default=None)

    p = sub.add_parser("verify", help="run built-in verification sweeps")
    p.add_argument(
        "checks", nargs="*", default=[], metavar="CHECK",
        help=f"subset of {{{','.join(sorted(CHECKS))}}} (default: all)",
    )
    p.add_argument("--samples", type=int, default=None, help="random draws per sweep")
    p.add_argument("--k", type=int, default=None, help="Sobolev order for poincare")

    p = sub.add_parser("diagnose", help="recompute all norms from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    return parser


def _cmd_make_ic(args, say) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    st = initial_state(cfg)
    write_checkpoint(st, args.out, cfg.s)
    say(f"wrote initial data (n={cfg.n}, seed={cfg.seed}) to {args.out}")
    return EXIT_OK


def _cmd_simulate(args, say) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    code = simulate(cfg, outdir=args.outdir)
    say(f"simulate finished with exit code {code}")
    return code


def _cmd_resume(args, say) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    code = resume(cfg, args.checkpoint, outdir=args.outdir)
    say(f"resume finished with exit code {code}")
    return code


def _cmd_verify(args, say) -> int:
    names = args.checks or sorted(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    rows = run_checks(names, n_samples=args.samples, k=args.k)
    ok = True
    for row in rows:
        ok = ok and row.passed
        say(
            f"{'PASS' if row.passed else 'FAIL'}  {row.name}: "
            f"{row.value:.6e} (bound {row.bound:.6e})"
        )
    return EXIT_OK if ok else EXIT_NUMERICAL


def _cmd_diagnose(args, say) -> int:
    n, s, t = checkpoint_header(args.checkpoint)
    st = read_checkpoint(args.checkpoint)
    rec = instantaneous(st, EnergyParams(s))
    say(f"n = {n}")
    say(f"s = {s}")
    say(f"t = {t:.17g}")
    for m, v in sorted(rec.norm_u.items()):
        say(f"u_H{m} = {v:.17g}")
    for m, v in sorted(rec.norm_b.items()):
        say(f"b_H{m} = {v:.17g}")
    for m, v in sorted(rec.norm_d2u.items()):
        say(f"d2u_H{m} = {v:.17g}")
    say(f"l2_energy = {rec.l2_energy:.17g}")
    say(f"grad_b_l2_sq = {rec.grad_b_l2_sq:.17g}")
    ok = True
    for check in validate_state(st):
        ok = ok and check.passed
        say(f"{'PASS' if check.passed else 'FAIL'}  {check.name}: {check.value:.6e}")
    return EXIT_OK if ok else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    def say(msg: str) -> None:
        if not args.quiet:
            print(msg)

    handlers = {
        "make-ic": _cmd_make_ic,
        "simulate": _cmd_simulate,
        "resume": _cmd_resume,
        "verify": _cmd_verify,
        "diagnose": _cmd_diagnose,
    }
    try:
        return handlers[args.command](args, say)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorruptCheckpoint, GridMismatch, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Mhd2torError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
