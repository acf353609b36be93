"""L/E sweeps, CSV serialization and extremum refinement.

The CSV schema is fixed: le_km_per_GeV, p_e, p_mu, p_tau, ggm, three_pi,
gmc, fill, edge_a, edge_b, edge_c.  Numbers are written with 12 significant
digits ('%.12g', lowercase scientific below 1e-4), so repeated runs with the
same configuration are byte-identical.

``format_number`` is the rule for one value.  The table writers apply it in
numpy, 512 rows of 11 columns at a time (0.41 MB of working memory).
Scaling |x| by one exact power of ten gives a 12-digit mantissa with a
single rounding, which is the one ``%`` prints unless it is an exact
half-integer.  Those values, zeros, non-finite values and decimal exponents
outside [-11, 33], 0.016-0.031% of a preset sweep's values, go through
``format_number`` itself; the section above ``_fill_slots`` gives the
argument in full.
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
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"sweep bounds must be finite, got {getattr(self, name)}")
        if not self.le_min < self.le_max:
            raise ConfigError("le_min", f"le_min ({self.le_min}) must be < le_max ({self.le_max})")
        if self.le_min < 0:
            raise ConfigError("le_min", f"L/E must be non-negative, got {self.le_min}")
        if not math.isfinite(self.le_max * self.unit_factor()):
            raise ConfigError("le_max", f"{self.le_max} {self.unit} overflows in km/GeV")
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
#: It is larger than the generic route's batch and the writer's block because
#: each chunk pays a fixed cost in ``measures.table``, the summary fold and
#: the sink: with 512 rows here too, the 200k-point closed-form electron
#: sweep went from 0.329 to 0.400 s.
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
            # a NaN counts as worse than any number, and the first one stays
            better = ~(peak <= self.discrepancy) & ~np.isnan(self.discrepancy)
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


# ---------------------------------------------------------------------------
# table writing: ``format_number`` in numpy, a block of rows at a time.
#
# Exactness.  A value x whose decimal exponent e = floor(log10|x|) lies in
# [-11, 33] is scaled by one exact power of ten, s = |x|·10^(11-e): a
# product for e <= 11, else a quotient, by one of 10^0…10^22, which are
# exact doubles.  So s is the exact t = |x|·10^(11-e) after one correct
# rounding.  Every half-integer on [1e11, 1e12) is a double, and correct
# rounding is monotone, so s and t lie on the same side of each
# half-integer unless s is one.  Where s is not a half-integer, rint(s) =
# rint(t) is the 12-digit mantissa that ``%`` prints (CPython rounds the
# exact binary value correctly, after D. M. Gay, 1990).  Everything else
# goes to ``format_number``: exact ties, zeros, infinities, NaNs, exponents
# outside [-11, 33], and s outside [1e11, 1e12) or rounding up to 1e12
# (near powers of ten, where log10 can misjudge e; an s that rounds up to
# 1e11 from below prints as 10^e at either exponent).  Counted over the CSV
# and slopes, that is 0.016-0.031% of the values of the preset sweeps, and
# 352 and 188 of the 3.2M values (0.011% and 0.006%) of 200k-point electron
# and muon sweeps; a margin of 1e-4 about each half-integer sent 713 and
# 556 of them, one of 1e-3 0.19-0.21% of the values.
#
# Layout.  Each value gets a 24-byte slot of three little-endian words:
# bytes 0-5 hold the sign and the "0." to "0.000" prefix, bytes 6-17 the 12
# digits, one per byte (groups of four from a 10000-entry table), byte 18
# room for the point, bytes 19-22 the exponent and byte 23 the separator.
# Tables indexed by the sign and the exponent give the prefix and the
# exponent.  Only the values with a trailing zero or a point inside their
# digits, 27-30% of a sweep's, are edited further, by tables indexed by
# (exponent, last nonzero digit): where a kept digit follows the point, the
# digits after it move up a byte, as a word shift, and the point goes into
# the gap; each trailing "0" that %g drops is cleared.  Deleting the zero
# bytes of a block leaves its text.
# ---------------------------------------------------------------------------

#: Rows per block of the 11-column CSV; a narrower table takes as many
#: values per block, in more rows.  Formatting a block peaks at 0.41 MB
#: (``tracemalloc``), which bounds the writer's working memory to what stays
#: in cache.  It is not a whole ``SWEEP_CHUNK``: 4096-row blocks made the
#: 200k-point closed-form electron sweep 25% slower.  The generic route's
#: batch of ``measures.GENERIC_CHUNK`` states is a separate bound, on
#: arrays of another width.
_BLOCK_ROWS = 512

#: k = floor(log10|x|) + _K0, clipped to [0, 46], indexes the per-exponent
#: tables; exponents -11 to 33 (k from 1 to 45) are formatted in numpy.
_K0 = 12
_E = np.arange(47) - _K0
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])   # 10^0…10^22, each exact
# s = |x|·_SCALE[k], then / _DIV[k] where k > _K0 + 11; NaN sends a value to
# the fallback
_SCALE = np.where(_E <= 11, _POW10[np.clip(11 - _E, 0, 22)], 1.0)
_SCALE[0] = np.nan
_DIV = np.where(_E > 11, _POW10[np.clip(_E - 11, 0, 22)], 1.0)
_DIV[-1] = np.nan


def _slot_words(codes):
    """The three little-endian words of 24-byte slots holding ``codes`` (..., 24), a byte each.

    A negative code subtracts its byte: added to a slot, the word takes it away.
    """
    at = np.arange(24)
    return (np.asarray(codes) << 8 * (at % 8)).reshape(*np.shape(codes)[:-1], 3, 8).sum(axis=-1)


def _number_tables():
    """The tables of the block formatter, built from index arrays over the bytes of a slot."""
    # the digits of 0000…9999, one per byte, from those of 00…99
    pair = np.arange(100)
    two = 48 + pair // 10 + (48 + pair % 10 << 8)
    digits = (two[:, None] + (two << 16)).ravel()
    # position (1-12) of a group's last nonzero digit among the 12, 0 if none
    last2 = (pair > 0).astype(np.uint8) + (pair % 10 > 0)
    last4 = np.where(pair > 0, 2 + last2, last2[:, None]).ravel()
    last_nonzero = np.where(last4 > 0, last4 + 4 * np.arange(3, dtype=np.uint8)[:, None], 0)
    # by sign and exponent: the sign and "0." to "0.000" prefix in bytes 0-5
    # (word 0), and the exponent in bytes 19-22 (word 2)
    fixed = (_E >= -4) & (_E < 12)
    width = np.where(fixed & (_E < 0), 1 - _E, 0)
    at = np.arange(1, 6)
    prefix = (np.where(at <= width[:, None], [48, 46, 48, 48, 48], 0) << 8 * at).sum(axis=1)
    size = np.maximum(_E, -_E)
    codes = np.column_stack([np.full(47, ord("e")), np.where(_E < 0, ord("-"), ord("+")),
                             48 + size // 10, 48 + size % 10])
    exponent = np.where(fixed, 0, (codes << 8 * np.arange(3, 7)).sum(axis=1))
    # by (exponent, last nonzero digit): keep the digits up to the last
    # nonzero one or the point, whichever is later; if a kept digit follows
    # digit ``point``, the digits after it move up a byte for the point
    point = np.where(fixed, np.maximum(_E + 1, 0), 1)
    kept = np.maximum(np.arange(13), point[:, None])[..., None]
    p = np.where(point[:, None, None] < kept, point[:, None, None], 0)
    digit = np.arange(24) - 5   # digit d (1-12) of a slot sits in its byte 5 + d
    moving = _slot_words((p > 0) & (digit > p) & (digit <= 12))
    # after the move: -"0" on each trailing zero, which clears it, and the point
    shifted = digit - ((p > 0) & (digit > p + 1))
    edit = _slot_words(np.where((shifted > kept) & (shifted <= 12) & (digit >= 1), -48,
                                np.where((p > 0) & (digit == p + 1), 46, 0)))
    return (digits.astype(np.uint32), last_nonzero.ravel(),
            np.concatenate([prefix, prefix + ord("-")]).astype(np.uint64),
            exponent.astype(np.uint64), (point > 0) & (point < 12),
            moving.astype(np.uint64).view("V24").ravel(),
            edit.astype(np.uint64).view("V24").ravel())


#: The tables: digit groups, each group's last nonzero digit, the slot's
#: words 0 (by sign and exponent) and 2 (by exponent), whether a point can
#: fall inside the digits (by exponent), and by (exponent, last nonzero
#: digit) the digit bytes that move up (1, else 0) and, added after the
#: move, the trailing zeros cleared and the point
(_DIGITS, _LAST_NONZERO, _SIGN_PREFIX, _EXPONENT, _POINTED, _MOVE,
 _EDIT) = _number_tables()
_GROUP_DIVISOR = np.array([10 ** 8, 10 ** 4, 1])[:, None]
_GROUP_OFFSET = 10000 * np.arange(3)[:, None]
_SEPARATORS = np.array([ord(","), ord("\n")], dtype=np.uint64) << 56


def _mantissas(x):
    """Exponent index k, 12-digit mantissa and fallback positions of the values ``x``."""
    a = np.abs(x)
    # zeros, infinities and NaNs (signalling ones too) only raise flags on
    # their way to the fallback
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log10(a)
        t += _K0
        np.fmax(t, 0.0, out=t)
        np.fmin(t, len(_E) - 1.0, out=t)
        k = t.astype(np.intp)
        s = _SCALE.take(k)
        s *= a
        big = np.flatnonzero(k > _K0 + 11)
        if big.size:
            s[big] = a[big] / _DIV.take(k[big])
        m = np.rint(s)
        np.subtract(s, m, out=t)
        np.abs(t, out=t)
        ok = t < 0.5
        ok &= s >= 1e11
        ok &= m < 1e12
    fallback = np.flatnonzero(~ok)
    k[fallback] = _K0   # a fixed-notation exponent: no exponent word
    m[fallback] = 1e11
    return k, m, fallback


def _fill_slots(text, x, separators):
    """Write the 24-byte slots of the values ``x`` to the start of ``text``.

    ``separators`` end the rows of a block.  Every byte of each slot is
    written, so ``text`` need not be cleared between blocks.
    """
    k, m, fallback = _mantissas(x)
    words = np.frombuffer(text, "<u8", 3 * x.size)
    words[0::3] = _SIGN_PREFIX.take(np.signbit(x) * len(_E) + k)
    np.add(_EXPONENT.take(k).reshape(-1, len(separators)), separators,
           out=words[2::3].reshape(-1, len(separators)))
    # m // 10^8, m // 10^4 and m, less the digits of the groups before; the
    # three groups go to bytes 6, 10 and 14 of each slot
    g = m.astype(np.intp) // _GROUP_DIVISOR
    del m
    g[1:] -= 10000 * g[:-1]
    digits = _DIGITS.take(g)
    np.ndarray((3, x.size), "<u4", text, 6, (4, 24))[...] = digits
    # the values with a trailing zero or a point inside their digits: the
    # others print all 12 digits as they stand
    rows = np.flatnonzero((digits[2].view(np.uint8)[3::4] == ord("0")) | _POINTED.take(k))
    del digits
    if rows.size:
        g = g.take(rows, axis=1)
        g += _GROUP_OFFSET
        last = _LAST_NONZERO.take(g)
        # 13 table entries per exponent, one per last nonzero digit (0-12)
        edit = np.maximum(np.maximum(last[0], last[1]), last[2], dtype=np.intp)
        edit += 13 * k[rows]
        slots = words.view("V24")
        w = slots.take(rows).view("<u8")
        # the digits after the point move up a byte, the top byte of a word
        # into the next word (none leaves a slot); then the edit puts in the
        # point and takes "0" from each trailing zero.  No byte of these sums
        # and differences carries into the next, so whole words take them
        moving = _MOVE.take(edit).view(np.uint8)
        moving *= w.view(np.uint8)
        moving = moving.view("<u8")
        w -= moving
        w[1:] += moving[:-1] >> 56
        moving <<= 8
        w += moving
        w += _EDIT.take(edit).view("<u8")
        np.put(slots, rows, w.view("V24"))
    if fallback.size:
        exact = "".join([format_number(y).ljust(23, "\0") for y in x[fallback].tolist()])
        words.view(np.uint8).reshape(-1, 24)[fallback, :23] = np.frombuffer(
            exact.encode("ascii"), np.uint8).reshape(-1, 23)


def _write_block(block, stream, separators, text):
    """Write the rows of one block, each value as ``format_number`` writes it.

    ``text`` is a buffer of at least 24 bytes per value, reused from block
    to block.
    """
    _fill_slots(text, block.ravel(), separators)
    if len(text) > 24 * block.size:
        text = text[:24 * block.size]
    stream.write(text.translate(None, b"\0").decode("ascii"))


def _write_table(columns, table, stream, header):
    """Write the rows of ``table`` as ``format_number`` would, after a header line if asked.

    The rows go out in blocks of ``_BLOCK_ROWS`` CSV rows' worth of values,
    each formatted in numpy (see above) into one reused buffer and written
    as soon as it is formatted.
    """
    if header:
        stream.write(",".join(columns) + "\n")
    table = np.asarray(table, dtype=float)
    separators = np.full(table.shape[1], _SEPARATORS[0])
    separators[-1] = _SEPARATORS[1]
    rows = _BLOCK_ROWS * len(CSV_COLUMNS) // table.shape[1]
    text = bytearray(24 * rows * table.shape[1])
    for start in range(0, len(table), rows):
        _write_block(table[start:start + rows], stream, separators, text)


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

    The scan reads ``config.path`` as the route of every table call, so it
    must be one of ``measures.PATHS``: ``both`` raises the ``ValueError`` of
    ``measures.table``.  The config's grid (``points``, ``scale``) is not
    read, only validated.
    """
    config.validate()
    if measure not in measures.MEASURE_NAMES:
        raise ConfigError("measure", f"must be one of {measures.MEASURE_NAMES}")
    if kind not in ("max", "min"):
        raise ConfigError("kind", f"must be 'max' or 'min', got {kind!r}")
    if not all(math.isfinite(w) for w in window):
        raise ConfigError("window", f"window bounds must be finite, got {window!r}")
    lo, hi = (w * config.unit_factor() for w in window)
    if not lo < hi:
        raise ConfigError("window", f"empty window {window!r}")
    sweep_lo, sweep_hi = config.le_min * config.unit_factor(), config.le_max * config.unit_factor()
    if lo < sweep_lo - 1e-9 or hi > sweep_hi + 1e-9:
        raise ConfigError("window", f"window {window!r} must lie inside the sweep range "
                                    f"[{config.le_min}, {config.le_max}] {config.unit}")
    params = config.load_params()
    column = CSV_COLUMNS.index(measure)
    sign = -1.0 if kind == "max" else 1.0

    def record(le, value, bracket, boundary=False):
        return {"kind": kind, "measure": measure, "le_km_per_GeV": le, "value": value,
                "bracket": list(bracket), "boundary": boundary}

    def best_of(grid):
        """Index of the best grid point, its L/E and its table value."""
        vals = measures.table(params, config.initial, grid, path=config.path)[:, column]
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
