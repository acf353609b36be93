"""Command-line front end: sweep, extremum and triangle subcommands.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
from importlib import resources

from . import measures, sweep
from .sweep import ConfigError, SweepConfig

PRESETS = {
    "electron": "electron_linear.json",
    "muon": "muon_log.json",
}


def load_preset(name):
    ref = resources.files("trinu.presets") / PRESETS[name]
    return SweepConfig.from_dict(json.loads(ref.read_text()))


def _add_sweep_flags(parser, with_grid=True):
    """The flags that set ``SweepConfig`` fields of the same name.

    A query over a grid (``sweep``, ``extremum``) also takes the grid and the
    route.  A single-point report (``triangle``) always uses the closed form,
    so it takes neither.
    """
    parser.add_argument("--initial", choices=sweep.INITIALS, default=None,
                        help="initial flavor (default: e)")
    parser.add_argument("--unit", choices=sweep.UNITS, default=None,
                        help="unit of the L/E values (default: km/MeV)")
    parser.add_argument("--params", metavar="FILE", default=None, dest="params_file",
                        help="JSON file overriding the physics parameters")
    if with_grid:
        parser.add_argument("--path", choices=sweep.PATHS, default=None,
                            help="evaluation route (default: closed-form)")
        parser.add_argument("--le-min", type=float, default=None)
        parser.add_argument("--le-max", type=float, default=None)
        parser.add_argument("--points", type=int, default=None)
        parser.add_argument("--scale", choices=sweep.SCALES, default=None)
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="output file (default: stdout)")


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    Building it takes about 0.8 ms, against about 1.2 ms for the rest of a
    closed-form ``extremum`` command, so ``main`` reuses it.
    """
    parser = argparse.ArgumentParser(
        prog="trinu",
        description="Tripartite entanglement measures along three-flavor "
                    "neutrino oscillations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an L/E sweep and emit CSV")
    p_sweep.add_argument("--config", metavar="FILE",
                         help="JSON SweepConfig to start from")
    p_sweep.add_argument("--preset", choices=sorted(PRESETS),
                         help="shipped sweep preset to start from")
    p_sweep.add_argument("--slopes", metavar="FILE",
                         help="also write finite-difference slopes of the "
                              "measures to FILE")
    _add_sweep_flags(p_sweep)

    p_ext = sub.add_parser("extremum", help="locate an extremum of one measure")
    p_ext.add_argument("--measure", choices=measures.MEASURE_NAMES, required=True)
    p_ext.add_argument("--kind", choices=("max", "min"), required=True)
    p_ext.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                       required=True, help="search window, in --unit")
    _add_sweep_flags(p_ext)

    p_tri = sub.add_parser("triangle", help="print a concurrence-triangle report")
    p_tri.add_argument("--le", type=float, required=True,
                       help="L/E value, in --unit")
    p_tri.add_argument("--json", action="store_true", dest="as_json",
                       help="emit a JSON record instead of the text block")
    _add_sweep_flags(p_tri, with_grid=False)

    return parser


def _config_from_args(args):
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigError("config", "--config and --preset are mutually exclusive")
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


def _cmd_sweep(args):
    config = _config_from_args(args)
    with contextlib.ExitStack() as stack:
        csv = stack.enter_context(_open_output(config.output))
        slopes = stack.enter_context(_open_output(args.slopes)) if args.slopes else None
        summary = sweep.run_sweep(config, sink=sweep.csv_sink(csv, slopes))
    for line in sweep.summary_lines(summary):
        print(line, file=sys.stderr)
    stage_s = summary["stage_s"]
    print("stage times (s): " + ", ".join(f"{name} {t:.3g}" for name, t in stage_s.items()),
          file=sys.stderr)
    return 0


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
    except (ConfigError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
