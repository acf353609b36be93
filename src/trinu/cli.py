"""Command-line front end: sweep, extremum and triangle subcommands.

Each command takes only the options it reads.  ``sweep`` takes every
``SweepConfig`` field.  ``extremum`` takes no grid flag (``--points``,
``--scale``), since it scans its own grid, and its ``--path`` is
``closed-form`` or ``generic``.  ``triangle`` takes neither the route nor the
L/E range.  An option a command does not take exits with code 2.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 failed cross-check.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys

from . import measures, sweep
from .sweep import ConfigError, SweepConfig

#: The shipped sweeps, one per observed channel: electron antineutrinos over
#: 0-40 km/MeV on a linear grid, muon antineutrinos over 10-1600 km/GeV on a
#: log grid.  Each sets all seven grid and route fields, so a change of the
#: ``SweepConfig`` defaults leaves both as they are.
PRESETS = {
    "electron": {"initial": "e", "le_min": 0.0, "le_max": 40.0, "unit": "km/MeV",
                 "points": 4001, "scale": "linear", "path": "closed-form"},
    "muon": {"initial": "mu", "le_min": 10.0, "le_max": 1600.0, "unit": "km/GeV",
             "points": 4001, "scale": "log", "path": "closed-form"},
}

#: Largest route discrepancy, NaN never, that ``sweep --path both`` passes; past
#: it, the run writes its outputs and exits 4.
CROSSCHECK_TOL = 1e-10


def load_preset(name):
    return SweepConfig.from_dict(PRESETS[name])


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that takes every number for a value.

    argparse reads an argument that starts with "-" as an option unless it
    looks like -1 or -1.5, so -inf and -1e-3 would stop at "expected one
    argument" and never reach trinu's checks.  Here anything ``float``
    reads is a value; subcommand parsers inherit the rule.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_sweep_flags(parser, paths=()):
    """The flags that set ``SweepConfig`` fields of the same name.

    A query over an L/E range (``sweep``, ``extremum``) passes the routes it
    offers as ``paths`` and so also takes ``--path`` and the range bounds;
    ``sweep`` adds the grid flags itself, since ``find_extremum`` scans its
    own grid.  A single-point report (``triangle``) passes none: it always
    uses the closed form.
    """
    parser.add_argument("--initial", choices=sweep.INITIALS, default=None,
                        help="initial flavor (default: e)")
    parser.add_argument("--unit", choices=sweep.UNITS, default=None,
                        help="unit of the L/E values (default: km/MeV)")
    parser.add_argument("--params", metavar="FILE", default=None, dest="params_file",
                        help="JSON file overriding the physics parameters")
    if paths:
        parser.add_argument("--path", choices=paths, default=None,
                            help="evaluation route (default: closed-form)")
        parser.add_argument("--le-min", type=float, default=None)
        parser.add_argument("--le-max", type=float, default=None)
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="output file (default: stdout)")


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Building it takes about 0.8 ms, against about 1.2 ms for the rest of a
    closed-form ``extremum`` command, so ``main`` reuses it.
    """
    parser = _Parser(
        prog="trinu",
        description="Tripartite entanglement measures along three-flavor "
                    "neutrino oscillations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an L/E sweep and emit CSV")
    start = p_sweep.add_mutually_exclusive_group()
    start.add_argument("--config", metavar="FILE",
                       help="JSON SweepConfig to start from")
    start.add_argument("--preset", choices=sorted(PRESETS),
                       help="shipped sweep preset to start from")
    p_sweep.add_argument("--slopes", metavar="FILE",
                         help="also write finite-difference slopes of the "
                              "measures to FILE")
    _add_sweep_flags(p_sweep, sweep.PATHS)
    p_sweep.add_argument("--points", type=int, default=None)
    p_sweep.add_argument("--scale", choices=sweep.SCALES, default=None)

    p_ext = sub.add_parser("extremum", help="locate an extremum of one measure")
    p_ext.add_argument("--measure", choices=measures.MEASURE_NAMES, required=True)
    p_ext.add_argument("--kind", choices=("max", "min"), required=True)
    p_ext.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                       required=True, help="search window, in --unit")
    _add_sweep_flags(p_ext, measures.PATHS)

    p_tri = sub.add_parser("triangle", help="print a concurrence-triangle report")
    p_tri.add_argument("--le", type=float, required=True,
                       help="L/E value, in --unit")
    p_tri.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a JSON record instead of the text block")
    _add_sweep_flags(p_tri)

    return parser


def _config_from_args(args):
    if getattr(args, "config", None):
        config = SweepConfig.from_json(args.config)
    elif getattr(args, "preset", None):
        config = load_preset(args.preset)
    else:
        config = SweepConfig()
    for field in dataclasses.fields(SweepConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    return config.validate()


@contextlib.contextmanager
def _open_output(path):
    """stdout for None, else ``path`` opened for writing.

    If the block fails, a regular file written there is removed again, so a
    failed run leaves no partial output behind; stdout, devices and
    symlinks are left as they are.
    """
    if path is None:
        yield sys.stdout
        return
    fh = open(path, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _same_file(a, b):
    """Whether paths ``a`` and ``b`` name one file: hard links count where both exist."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _cmd_sweep(args):
    config = _config_from_args(args)
    # two handles on one file would write over each other from offset 0
    if args.slopes and config.output is not None and _same_file(args.slopes, config.output):
        raise ConfigError("slopes", f"--slopes names the --output file {args.slopes}")
    with contextlib.ExitStack() as stack:
        csv = stack.enter_context(_open_output(config.output))
        slopes = stack.enter_context(_open_output(args.slopes)) if args.slopes else None
        summary = sweep.run_sweep(config, sink=sweep.csv_sink(csv, slopes))
    for line in sweep.summary_lines(summary):
        print(line, file=sys.stderr)
    stage_s = summary["stage_s"]
    print("stage times (s): " + ", ".join(f"{name} {t:.3g}" for name, t in stage_s.items()),
          file=sys.stderr)
    columns = summary.get("path_discrepancy_by_column", {})
    failed = [(name, d) for name, d in columns.items() if not d["max"] <= CROSSCHECK_TOL]
    if not failed:
        return 0
    # the worst column, a NaN above every number
    name, d = max(failed, key=lambda c: (math.isnan(c[1]["max"]), c[1]["max"]))
    print(f"cross-check failed: {name} differs between the routes by {d['max']:.3e}"
          f" at L/E {d['le']:.6g} km/GeV, beyond {CROSSCHECK_TOL:g}", file=sys.stderr)
    return 4


def _cmd_extremum(args):
    config = _config_from_args(args)
    record = sweep.find_extremum(config, args.measure, args.kind,
                                 tuple(args.window))
    with _open_output(config.output) as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_triangle(args):
    config = _config_from_args(args)
    params = config.load_params()
    le = args.le * config.unit_factor()
    if math.isfinite(args.le) and not math.isfinite(le):
        raise ConfigError("le", f"{args.le} {config.unit} overflows in km/GeV")
    record = sweep.triangle_record(params, config.initial, le)
    with _open_output(config.output) as fh:
        if args.as_json:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        else:
            fh.write(sweep.triangle_text(record) + "\n")
    return 0


COMMANDS = {"sweep": _cmd_sweep, "extremum": _cmd_extremum, "triangle": _cmd_triangle}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:  # ConfigError and json.JSONDecodeError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
