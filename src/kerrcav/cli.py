"""Command-line front end for sweeps, critical-point queries and fitting.

Subcommands: steady-sweep, gain-sweep, squeeze-sweep, critical, line-derive,
fit.  Results are emitted as CSV or JSON tables with deterministic
formatting.  Exit codes: 0 success, 2 configuration error, 3 numeric
failure (non-convergence or arithmetic overflow), 4 I/O error.
"""

import argparse
import functools
import json
import sys

from .fitting import NonConvergence, load_fit_file, run_fit
from .jsonfile import ConfigError
from .sweeps import (load_config_file, load_device_file, run_critical,
                     run_gain_sweep, run_line_derive, run_squeeze_sweep,
                     run_steady_sweep)
from .tableio import Table, render_blocks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _add_output_flags(parser):
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="kerrcav",
        description="Kerr-cavity amplifier sweeps, operating points and fits")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("steady-sweep", "pump response over a frequency grid"),
                       ("gain-sweep", "parametric/intermodulation gain sweep"),
                       ("squeeze-sweep", "squeezing extrema vs pump fraction"),
                       ("critical", "critical operating point of the device"),
                       ("fit", "fit device parameters to measured curves")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config path")
        _add_output_flags(p)

    p = sub.add_parser("line-derive",
                       help="lumped parameters from a transmission-line profile")
    p.add_argument("--profile", required=True, help="line-profile JSON path")
    p.add_argument("--mode-index", type=int, required=True,
                   help="1-based mode number")
    p.add_argument("--gamma1", type=float, required=True,
                   help="input-port rate for the derived device (rad/s)")
    _add_output_flags(p)
    return parser


def _emit(table: Table, args) -> int:
    # rendered in full before the file opens: a failed render leaves no file
    blocks = render_blocks(table, args.format)
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.writelines(blocks)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        # a text write, so a replaced sys.stdout (a StringIO) works too
        sys.stdout.writelines(block.decode() for block in blocks)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "line-derive":
            table = run_line_derive(args.profile, args.mode_index, args.gamma1)
        elif args.command == "fit":
            try:
                fit = run_fit(load_fit_file(args.config))
            except NonConvergence as exc:
                _emit(_fit_table(exc.best), args)
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_NUMERIC
            table = _fit_table(fit)
        elif args.command == "critical":
            table = run_critical(load_device_file(args.config))
        else:
            table = {
                "steady-sweep": run_steady_sweep,
                "gain-sweep": run_gain_sweep,
                "squeeze-sweep": run_squeeze_sweep,
            }[args.command](load_config_file(args.config))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # covers profile-file validation and JSON decoding inside the
        # loaders; malformed content is a configuration problem
        if isinstance(exc, json.JSONDecodeError):
            print(f"error: invalid JSON at line {exc.lineno}, column "
                  f"{exc.colno} (byte offset {exc.pos}): {exc.msg}",
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        # overflow or a singular point outside the guarded evaluations
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return _emit(table, args)


def _fit_table(fit) -> Table:
    p = fit.params
    return Table(["omega0", "kerr", "gamma1", "gamma2", "gamma3",
                  "rms_residual", "n_evaluations", "converged"],
                 [(p.omega0, p.kerr, p.gamma1, p.gamma2, p.gamma3,
                   fit.rms_residual, fit.n_evaluations, fit.converged)])


if __name__ == "__main__":
    raise SystemExit(main())
