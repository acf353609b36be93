"""L/E sweeps, CSV serialization and extremum refinement.

The CSV schema is fixed: le_km_per_GeV, p_e, p_mu, p_tau, ggm, three_pi,
gmc, fill, edge_a, edge_b, edge_c.  Numbers are written with 12 significant
digits ('%.12g', lowercase scientific below 1e-4), so repeated runs with the
same configuration are byte-identical.
"""

import json
import math
import numbers
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import measures
from .measures import CSV_COLUMNS
from .oscillation import OscillationParams

UNITS = ("km/GeV", "km/MeV")
SCALES = ("linear", "log")
PATHS = ("closed-form", "generic", "both")
INITIALS = ("e", "mu")

MAX_POINTS = 10 ** 7


class ConfigError(ValueError):
    """A SweepConfig field failed validation; carries the field name."""

    def __init__(self, field_name, message):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _is_number(x, kind):
    """Whether ``x`` is a ``kind`` number; JSON's true and false are not."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass
class SweepConfig:
    initial: str = "e"
    le_min: float = 0.0
    le_max: float = 40.0
    unit: str = "km/MeV"
    points: int = 4001
    scale: str = "linear"
    path: str = "closed-form"
    params_file: str | None = None
    output: str | None = None

    def validate(self):
        if self.initial not in INITIALS:
            raise ConfigError("initial", f"must be one of {INITIALS}, got {self.initial!r}")
        if self.unit not in UNITS:
            raise ConfigError("unit", f"must be one of {UNITS}, got {self.unit!r}")
        if self.scale not in SCALES:
            raise ConfigError("scale", f"must be one of {SCALES}, got {self.scale!r}")
        if self.path not in PATHS:
            raise ConfigError("path", f"must be one of {PATHS}, got {self.path!r}")
        for name in ("le_min", "le_max"):
            if not _is_number(getattr(self, name), numbers.Real):
                raise ConfigError(name, f"must be a real number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.le_min) and math.isfinite(self.le_max)):
            raise ConfigError("le_min", "sweep bounds must be finite")
        if not self.le_min < self.le_max:
            raise ConfigError("le_min", f"le_min ({self.le_min}) must be < le_max ({self.le_max})")
        if self.scale == "log" and self.le_min <= 0:
            raise ConfigError("le_min", "log scale requires le_min > 0")
        if not _is_number(self.points, numbers.Integral):
            raise ConfigError("points", f"must be an integer, got {self.points!r}")
        if not 2 <= self.points <= MAX_POINTS:
            raise ConfigError("points", f"must be in [2, {MAX_POINTS}], got {self.points}")
        for name in ("params_file", "output"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (str, os.PathLike)):
                raise ConfigError(name, f"must be a file path, got {value!r}")
        return self

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        return cls(**data).validate()

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config", "configuration file must hold a JSON object")
        return cls.from_dict(data)

    def unit_factor(self):
        """Multiplier taking configured L/E values to km/GeV."""
        return 1000.0 if self.unit == "km/MeV" else 1.0

    def grid(self):
        """The L/E grid in km/GeV, ascending."""
        if self.scale == "log":
            g = np.geomspace(self.le_min, self.le_max, self.points)
        else:
            g = np.linspace(self.le_min, self.le_max, self.points)
        g *= self.unit_factor()  # in place: a scaled copy would double the largest array
        return g

    def load_params(self):
        if self.params_file is None:
            return OscillationParams()
        return OscillationParams.from_json(self.params_file)


#: Rows per chunk of a sweep: each route's measure table, the summary and the
#: sink see at most this many rows at a time, which bounds a sweep's memory.
SWEEP_CHUNK = 4096

_GMC = CSV_COLUMNS.index("gmc")
_FILL = CSV_COLUMNS.index("fill")
_EDGES = slice(CSV_COLUMNS.index("edge_a"), CSV_COLUMNS.index("edge_c") + 1)


def _grid_local_extrema(y):
    """Counts of strict grid-local minima and maxima of a sampled curve."""
    interior = y[1:-1]
    minima = int(np.sum((interior < y[:-2]) & (interior < y[2:])))
    maxima = int(np.sum((interior > y[:-2]) & (interior > y[2:])))
    return minima, maxima


class _SummaryFold:
    """The run summary, built up from a sweep's chunks in L/E order.

    Counts that compare neighbouring rows (grid-local extrema, kinks) look at
    each chunk behind the last two rows of the chunks before it.  A running
    minimum or maximum is replaced only by a strictly better one, so a tie
    keeps the first row, as ``argmin`` and ``argmax`` do.
    """

    def __init__(self, both):
        self.tail = np.empty((0, len(CSV_COLUMNS)))
        self.minima = self.maxima = self.kinks = 0
        self.margin, self.margin_le = math.inf, 0.0
        self.discrepancy = np.full(len(CSV_COLUMNS), -np.inf) if both else None
        self.discrepancy_le = np.zeros(len(CSV_COLUMNS))

    def add(self, rows, generic=None):
        """Fold in one chunk's emitted rows; returns them behind the carried rows."""
        window = np.concatenate([self.tail, rows])
        minima, maxima = _grid_local_extrema(window[:, _GMC])
        self.minima += minima
        self.maxima += maxima
        # a kink is a switch of the shortest edge between two rows where it,
        # the gmc, is > 0, so a tie at a basis state is none; switches between
        # carried rows were counted with the chunk before
        since = window[max(len(self.tail) - 1, 0):]
        arg, kept = since[:, _EDGES].argmin(axis=1), since[:, _GMC] > 0.0
        self.kinks += int(np.sum((arg[1:] != arg[:-1]) & kept[1:] & kept[:-1]))
        margin = rows[:, _FILL] - rows[:, _GMC]
        worst = int(np.argmin(margin))
        if margin[worst] < self.margin:
            self.margin, self.margin_le = float(margin[worst]), float(rows[worst, 0])
        if generic is not None:
            diff = np.abs(rows - generic)
            worst = diff.argmax(axis=0)
            peak = diff[worst, np.arange(diff.shape[1])]
            better = peak > self.discrepancy
            self.discrepancy = np.where(better, peak, self.discrepancy)
            self.discrepancy_le = np.where(better, rows[worst, 0], self.discrepancy_le)
        self.tail = window[-2:]
        return window

    def summary(self, config):
        summary = {
            "points": int(config.points),
            "path": config.path,
            "gmc_grid_local_minima": self.minima,
            "gmc_grid_local_maxima": self.maxima,
            "gmc_kinks": self.kinks,
            "min_fill_minus_gmc": self.margin,
            "min_fill_minus_gmc_le": self.margin_le,
        }
        if self.discrepancy is not None:
            summary["max_path_discrepancy"] = float(self.discrepancy.max())
            summary["path_discrepancy_by_column"] = {
                name: {"max": float(self.discrepancy[j]), "le": float(self.discrepancy_le[j])}
                for j, name in enumerate(CSV_COLUMNS) if j > 0
            }
        return summary


def _lap(start):
    """Seconds since ``start`` and the clock reading that ends the lap."""
    now = time.perf_counter()
    return now - start, now


def run_sweep(config, sink=None):
    """Evaluate the configured sweep in chunks of ``SWEEP_CHUNK`` rows, by L/E ascending.

    Each chunk goes through each route's measure table and is folded into
    the run summary, which is returned.  With a ``sink``, each chunk is then
    handed over as ``sink(rows, window)``: ``rows`` are the chunk's emitted
    rows and ``window`` the same rows behind the last (up to) two rows
    before them, for anything that needs neighbours (the slopes).

    With path "both" the closed-form values are the ones emitted and the
    run summary carries the max per-column discrepancy against the generic
    route.  ``summary["stage_s"]`` holds the seconds spent on the grid, on
    each route's measure tables, on the summary and, with a sink, in it
    ("write"), each summed over the chunks.
    """
    config.validate()
    params = config.load_params()
    routes = [path for path in measures.PATHS if config.path in (path, "both")]
    stages = ["grid", *routes, "summary"] + (["write"] if sink is not None else [])
    stage_s = dict.fromkeys(stages, 0.0)
    clock = time.perf_counter()
    le = config.grid()
    stage_s["grid"], clock = _lap(clock)
    fold = _SummaryFold(config.path == "both")
    for start in range(0, len(le), SWEEP_CHUNK):
        tables = []
        for path in routes:
            tables.append(measures.table(params, config.initial, le[start:start + SWEEP_CHUNK],
                                         path=path))
            lap, clock = _lap(clock)
            stage_s[path] += lap
        window = fold.add(*tables)
        lap, clock = _lap(clock)
        stage_s["summary"] += lap
        if sink is not None:
            sink(tables[0], window)
            lap, clock = _lap(clock)
            stage_s["write"] += lap
    summary = fold.summary(config)
    lap, _ = _lap(clock)
    stage_s["summary"] += lap
    summary["stage_s"] = stage_s
    return summary


SLOPE_COLUMNS = ("le_km_per_GeV", "d_ggm", "d_three_pi", "d_gmc", "d_fill")


def slope_table(table):
    """Central finite-difference slopes of the four measures along a measure table.

    Meant for inspecting kinks: the non-smooth measures (ggm, gmc) show slope
    jumps where their min/max argument switches.  Rows correspond to the
    interior rows of ``table``.
    """
    le = table[:, 0]
    cols = [table[:, CSV_COLUMNS.index(name)]
            for name in ("ggm", "three_pi", "gmc", "fill")]
    d_le = le[2:] - le[:-2]
    slopes = [(c[2:] - c[:-2]) / d_le for c in cols]
    return np.column_stack([le[1:-1], *slopes])


#: How every number is written: 12 significant digits.
NUMBER_FORMAT = "%.12g"


def format_number(x):
    """Deterministic 12-significant-digit serialization of one value.

    Adding 0.0 turns -0.0 into 0.0, so every zero is written as "0".
    """
    return NUMBER_FORMAT % (x + 0.0)


def _write_table(columns, table, stream, header):
    """Write the rows of ``table`` as ``format_number`` would, after a header line if asked.

    The rows are formatted by one ``%`` over a repeated line template.
    """
    if header:
        stream.write(",".join(columns) + "\n")
    line = ",".join([NUMBER_FORMAT] * table.shape[1]) + "\n"
    stream.write((line * len(table)) % tuple((table + 0.0).ravel().tolist()))


def write_slopes(table, stream, header=True):
    """Write the ``slope_table`` of a measure table."""
    _write_table(SLOPE_COLUMNS, slope_table(table), stream, header)


def write_csv(table, stream, header=True):
    """Write a measure table, whose columns are ``CSV_COLUMNS``."""
    _write_table(CSV_COLUMNS, table, stream, header)


def csv_sink(csv, slopes=None):
    """A ``run_sweep`` sink writing the CSV to ``csv`` and the slopes to ``slopes``.

    Each chunk is written as it arrives, through ``write_csv`` and
    ``write_slopes``; the headers go out with the first chunk, the one
    chunk that comes without carried rows.
    """
    def sink(rows, window):
        header = len(window) == len(rows)
        write_csv(rows, csv, header)
        if slopes is not None:
            write_slopes(window, slopes, header)
    return sink


def summary_lines(summary):
    lines = [f"rows: {summary['points']}  path: {summary['path']}"]
    lines.append(
        "gmc grid-local minima/maxima: "
        f"{summary['gmc_grid_local_minima']}/{summary['gmc_grid_local_maxima']}"
        f"  kinks (shortest-edge switches): {summary['gmc_kinks']}"
    )
    lines.append(
        f"min fill - gmc: {summary['min_fill_minus_gmc']:+.4g}"
        f" at L/E {summary['min_fill_minus_gmc_le']:.6g} km/GeV"
    )
    if "max_path_discrepancy" in summary:
        lines.append(f"max |closed-form - generic|: {summary['max_path_discrepancy']:.3e}")
        parts = [
            f"{name} {d['max']:.3e}" + (f" at {d['le']:.6g}" if d["max"] else "")
            for name, d in summary["path_discrepancy_by_column"].items()
        ]
        lines.append("per column (L/E in km/GeV): " + ", ".join(parts))
    return lines


# ---------------------------------------------------------------------------
# extremum refinement.
# ---------------------------------------------------------------------------

#: Coarse-scan resolution inside the requested window.
SCAN_POINTS = 257

#: Points per zoom round across the current bracket.
ZOOM_POINTS = 65


def find_extremum(config, measure, kind, window):
    """Locate an extremum of one measure inside a window of the sweep range.

    The window is given in the config's unit.  A coarse scan of
    ``SCAN_POINTS`` brackets the extremum between the best point's two
    neighbours.  Each zoom round then evaluates ``ZOOM_POINTS`` across the
    bracket in one table call and shrinks it to the new best point's
    neighbours, until it is at most 1e-6 of the window width or a round no
    longer narrows it.  Returns the dict ``trinu extremum`` writes: ``kind``,
    ``measure``, the last round's best point ``le_km_per_GeV``, its table
    ``value``, the final ``bracket`` and ``boundary``, which is true if the
    best scan point sits on the window boundary; then nothing is refined.
    """
    config.validate()
    if measure not in measures.MEASURE_NAMES:
        raise ConfigError("measure", f"must be one of {measures.MEASURE_NAMES}")
    if kind not in ("max", "min"):
        raise ConfigError("kind", f"must be 'max' or 'min', got {kind!r}")
    lo, hi = (w * config.unit_factor() for w in window)
    if not lo < hi:
        raise ConfigError("window", f"empty window {window!r}")
    sweep_lo, sweep_hi = config.le_min * config.unit_factor(), config.le_max * config.unit_factor()
    if lo < sweep_lo - 1e-9 or hi > sweep_hi + 1e-9:
        raise ConfigError("window", "window must lie inside the sweep range")
    params = config.load_params()
    path = "closed-form" if config.path == "both" else config.path
    column = CSV_COLUMNS.index(measure)
    sign = -1.0 if kind == "max" else 1.0

    def record(le, value, bracket, boundary=False):
        return {"kind": kind, "measure": measure, "le_km_per_GeV": le, "value": value,
                "bracket": list(bracket), "boundary": boundary}

    def best_of(grid):
        """Index of the best grid point, its L/E and its table value."""
        vals = measures.table(params, config.initial, grid, path=path)[:, column]
        best = int(np.argmin(sign * vals))
        return best, float(grid[best]), float(vals[best])

    grid = np.linspace(lo, hi, SCAN_POINTS)
    best, le, value = best_of(grid)
    if best in (0, SCAN_POINTS - 1):
        return record(le, value, (lo, hi), boundary=True)

    a, b = float(grid[best - 1]), float(grid[best + 1])
    tol = 1e-6 * (hi - lo)
    while b - a > tol:
        grid = np.linspace(a, b, ZOOM_POINTS)
        best, le, value = best_of(grid)
        na, nb = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, ZOOM_POINTS - 1)])
        # a bracket a few ulps wide can stop shrinking before it meets tol
        if nb - na >= b - a:
            break
        a, b = na, nb
    return record(le, value, (a, b))


# ---------------------------------------------------------------------------
# concurrence-triangle report.
# ---------------------------------------------------------------------------

def triangle_record(params, initial, le):
    """Edges, half-perimeter and areas of the concurrence triangle at one point.

    ``le`` is in km/GeV.  Returns a plain dict (JSON-ready).
    """
    rep = measures.report(params, initial, le, path="closed-form")
    a, b, c = rep["edge_a"], rep["edge_b"], rep["edge_c"]
    return {
        "initial": initial,
        "le_km_per_GeV": float(le),
        "probabilities": {
            "p_e": rep["p_e"],
            "p_mu": rep["p_mu"],
            "p_tau": rep["p_tau"],
        },
        "edges": {"a": a, "b": b, "c": c},
        "half_perimeter": (a + b + c) / 2,
        "sqrt_area": rep["fill"],
        "shortest_edge": rep["gmc"],
        "fill_minus_gmc": rep["fill"] - rep["gmc"],
    }


def triangle_text(record):
    p = record["probabilities"]
    e = record["edges"]
    lines = [
        f"concurrence triangle: initial={record['initial']}  "
        f"L/E={format_number(record['le_km_per_GeV'])} km/GeV",
        f"  probabilities  (p_e, p_mu, p_tau) = "
        f"({p['p_e']:.6f}, {p['p_mu']:.6f}, {p['p_tau']:.6f})",
        f"  edges          (a, b, c) = ({e['a']:.6f}, {e['b']:.6f}, {e['c']:.6f})",
        f"  half-perimeter Q = {record['half_perimeter']:.6f}",
        f"  sqrt(area)  [fill]     = {record['sqrt_area']:.6f}",
        f"  shortest edge [gmc]    = {record['shortest_edge']:.6f}",
        f"  fill - gmc             = {record['fill_minus_gmc']:+.6f}",
    ]
    return "\n".join(lines)
