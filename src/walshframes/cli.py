"""Command line front end.

Exit codes: 0 all checks passed, 1 a check computed a failing verdict,
2 configuration error or an unwritable --out, 3 input data error. Reports
go to --out when given, otherwise to stdout, and are byte-identical across
runs with equal inputs.

A command leaves its heap to the OS at exit: `main` registers `gc.freeze`
with atexit, so CPython's final collections skip the numpy and walshframes
objects instead of traversing and freeing them. A fourier_q3 `verify`
process then takes about 5 ms from the end of the command to its exit,
not 20 (shared 2-vCPU host, Python 3.11). Output is flushed and atexit
handlers run as before. Library use is unaffected: a program that imports
walshframes, its `cli` module included, keeps CPython's own exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from contextlib import contextmanager

from . import __version__
from .algebra import numeral
from .errors import InputDataError, WalshFramesError
from .harmonic import fast_inverse_transform, fast_transform
from .runner import (
    RunConfig,
    dump_wavelets_report,
    field_info_report,
    periodic_report,
    render_report,
    uindex_report,
    verify_report,
)
from .stepfn import dump_csv, load_csv

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshframes",
        description="Exact wavelet frame checks for Laurent series fields.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, config=True, out=True, seed=False):
        cmd = sub.add_parser(name, help=help_text)
        if config:
            cmd.add_argument("--config", required=True,
                             help="run configuration file (INI)")
        if out:
            cmd.add_argument("--out", help="write the report here")
        if seed:
            cmd.add_argument("--seed", type=numeral, help="override the suite seed (64-bit)")
        return cmd

    add("field-info", "describe the field and the coset enumeration")

    cmd = add("uindex", "tabulate the coset enumeration u(n)")
    cmd.add_argument("count", type=numeral, nargs="?", default=32,
                     help="tabulate n < count (default 32)")

    cmd = add("transform", "transform a dumped step function", config=False)
    cmd.add_argument("input", help="step function CSV")
    cmd.add_argument("--direction", choices=("forward", "inverse"),
                     default="forward")

    add("verify", "run the full frame verification suite", seed=True)
    add("periodic", "run the folded-system verification suite", seed=True)
    cmd = add("dump-wavelets", "derive generators and dump them as CSV", out=False)
    cmd.add_argument("--out", required=True,
                     help="directory for the generator CSV files")
    return parser


@contextmanager
def _writing(path: str | None):
    """An OSError in the block is an output that cannot be written (exit 2):
    --out, or stdout without one, whose reader may have left (`| head`)."""
    try:
        yield
    except OSError as exc:
        if path is None:   # else the flush at exit fails once more
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise WalshFramesError(f"cannot write {path or '<stdout>'!r}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with _writing(out_path), open(out_path, "w") as fh:
        fh.write(text)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command in ("field-info", "uindex"):
        rc = RunConfig.load(args.config, need_masks=False)
        report = field_info_report(rc) if args.command == "field-info" \
            else uindex_report(rc, args.count)
        _emit(render_report(report), args.out)
        return 0

    if args.command == "transform":
        try:
            f = load_csv(args.input)
        except OSError as exc:
            raise InputDataError(f"cannot read {args.input!r}: {exc}") from exc
        try:
            g = fast_transform(f) if args.direction == "forward" \
                else fast_inverse_transform(f)
        except InputDataError as exc:
            raise InputDataError(f"{args.input}: {exc}") from exc
        with _writing(args.out):
            dump_csv(g, sys.stdout if args.out is None else args.out)
        return 0

    if args.command in ("verify", "periodic"):
        rc = RunConfig.load(args.config, seed=args.seed)
        report = (verify_report if args.command == "verify" else periodic_report)(rc)
        _emit(render_report(report), args.out)
        return 0 if report["verdicts"]["overall"] else 1

    rc = RunConfig.load(args.config)   # dump-wavelets: argparse allows no other
    with _writing(args.out):
        report = dump_wavelets_report(rc, args.out)
    sys.stdout.write(render_report(report))
    return 0


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)   # once per process, however often main runs
    atexit.register(gc.freeze)
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WalshFramesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
