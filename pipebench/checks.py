"""Checks of the program's outputs against the independent reference.

Every check returns a list of problems; an empty list means the output is
right.  Tolerances: 1e-10 absolute for anything the program promises to
1e-10 (probabilities, measures, the two routes' agreement), and the CSV's
own 12-significant-digit rounding for the L/E column.
"""

import json
import re

import numpy as np

import reference

TOL = 1e-10
EXACT = 1e-12

CSV_COLUMNS = ("le_km_per_GeV", "p_e", "p_mu", "p_tau", "ggm", "three_pi", "gmc",
               "fill", "edge_a", "edge_b", "edge_c")
SLOPE_COLUMNS = ("le_km_per_GeV", "d_ggm", "d_three_pi", "d_gmc", "d_fill")
MEASURES = ("ggm", "three_pi", "gmc", "fill")

#: Rows per sweep whose fill is also checked in 50-digit mpmath.
MP_SAMPLES = 64

#: Points of the dense scan an extremum must dominate.
SCAN_POINTS = 4097

#: find_extremum refines to this fraction of the window width.
REFINE_TOL = 1e-6

DISCREPANCY = re.compile(r"max \|closed-form - generic\|: (\S+)")


def _worst(name, got, want, tol):
    """One problem naming the worst element of |got - want| beyond ``tol``, if any."""
    err = np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))
    excess = np.broadcast_to(np.where(np.isnan(err), np.inf, err - tol), err.shape)
    if excess.size and np.any(excess > 0):
        i = int(np.argmax(excess))
        return [f"{name}: |error| {err.flat[i]:.3e} beyond tolerance at index {i}"]
    return []


def _read_table(path, columns):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    if header != ",".join(columns):
        return None, [f"{path}: header {header!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != len(columns):
        return None, [f"{path}: {table.shape[1]} columns"]
    return table, []


def check_sweep(cfg, csv_path, slopes_path=None, stderr=""):
    """Check a sweep's CSV (and slopes) against the configured grid and reference."""
    table, problems = _read_table(csv_path, CSV_COLUMNS)
    if table is None:
        return problems
    if len(table) != cfg["points"]:
        return [f"{len(table)} rows, expected {cfg['points']}"]
    le = reference.grid(cfg["le_min"], cfg["le_max"], cfg["points"], cfg["scale"], cfg["unit"])
    col = {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}
    problems += _worst("le grid", col["le_km_per_GeV"], le, 1e-11 * le)
    probs = reference.probabilities(cfg["initial"], le)
    got_p = table[:, 1:4]
    problems += _worst("probabilities", got_p, probs, TOL)
    if np.any(got_p < 0) or np.any(got_p > 1):
        problems.append("probability outside [0, 1]")
    problems += _worst("probability sum", got_p.sum(axis=1), 1.0, TOL)
    meas, edges = reference.measures(reference.amplitudes(cfg["initial"], le))
    for j, name in enumerate(MEASURES):
        problems += _worst(name, col[name], meas[:, j], TOL)
    problems += _worst("edges", table[:, 8:11], edges, TOL)
    problems += _worst("gmc = shortest edge", col["gmc"], table[:, 8:11].min(axis=1), EXACT)
    # fill < gmc happens on healthy sweeps (flat triangles), so the property
    # checked is the isoperimetric one: no triangle fills more than the
    # equilateral one of the same perimeter, whose fill is its edge
    if np.any(col["fill"] > table[:, 8:11].mean(axis=1) + EXACT):
        problems.append("fill above the mean edge")
    if np.any(col["fill"][col["gmc"] == 0.0] != 0.0):
        problems.append("fill nonzero where gmc is 0")
    rows = np.unique(np.linspace(0, len(le) - 1, MP_SAMPLES).astype(int))
    mp = [reference.mp_fill(probs[i]) for i in rows]
    problems += _worst("fill vs mpmath", col["fill"][rows], mp, TOL)
    if slopes_path is not None:
        problems += _check_slopes(slopes_path, le, meas)
    if cfg["path"] == "both":
        m = DISCREPANCY.search(stderr)
        if m is None:
            problems.append("no route discrepancy reported")
        elif not float(m.group(1)) <= TOL:
            problems.append(f"route discrepancy {m.group(1)} > {TOL:.0e}")
    return problems


def _check_slopes(path, le, meas):
    table, problems = _read_table(path, SLOPE_COLUMNS)
    if table is None:
        return problems
    if len(table) != len(le) - 2:
        return [f"slopes: {len(table)} rows, expected {len(le) - 2}"]
    problems += _worst("slopes le", table[:, 0], le[1:-1], 1e-11 * le[1:-1])
    d_le = le[2:] - le[:-2]
    want = (meas[2:] - meas[:-2]) / d_le[:, None]
    # the measures differ between routes by ~1e-14, which a grid step scales up
    tol = 1e-9 * np.abs(want) + 1e-13 / d_le[:, None]
    return problems + _worst("slopes", table[:, 1:], want, tol)


def _measure_at(initial, measure, le):
    meas, _ = reference.measures(reference.amplitudes(initial, np.atleast_1d(le)))
    return meas[:, MEASURES.index(measure)]


def check_extremum(op, factor, payload):
    """An extremum must match the reference at its L/E and beat a dense scan."""
    want = {"kind": op["kind"], "measure": op["measure"]}
    problems = [f"{k}: {payload.get(k)!r}" for k, v in want.items() if payload.get(k) != v]
    lo, hi = (w * factor for w in op["window"])
    le, value = payload["le_km_per_GeV"], payload["value"]
    slack = 1e-9 * (hi - lo)
    if not lo - slack <= le <= hi + slack:
        return problems + [f"extremum L/E {le} outside window [{lo}, {hi}]"]
    a, b = payload["bracket"]
    if not a - slack <= le <= b + slack:
        problems.append(f"L/E {le} outside its bracket [{a}, {b}]")
    if payload["boundary"] and min(abs(le - lo), abs(le - hi)) > slack:
        problems.append("boundary flag set away from the window edge")
    problems += _worst("extremum value", value, _measure_at(op["initial"], op["measure"], le)[0], TOL)
    grid = np.linspace(lo, hi, SCAN_POINTS)
    scan = _measure_at(op["initial"], op["measure"], grid)
    slope = np.max(np.abs(np.diff(scan))) / (grid[1] - grid[0])
    tol = EXACT + slope * REFINE_TOL * (hi - lo)
    best = scan.max() if op["kind"] == "max" else scan.min()
    beaten = value < best - tol if op["kind"] == "max" else value > best + tol
    if beaten:
        problems.append(f"{op['kind']} {value!r} beaten by dense scan {best!r} (tol {tol:.1e})")
    return problems


def check_triangle(op, factor, record):
    le = op["le"] * factor
    problems = []
    if record["initial"] != op["initial"]:
        problems.append(f"initial {record['initial']!r}")
    problems += _worst("triangle L/E", record["le_km_per_GeV"], le, EXACT * max(1.0, le))
    probs = reference.probabilities(op["initial"], [le])[0]
    p = record["probabilities"]
    problems += _worst("triangle probabilities", [p["p_e"], p["p_mu"], p["p_tau"]], probs, TOL)
    meas, edges = reference.measures(reference.amplitudes(op["initial"], [le]))
    e = record["edges"]
    got = [e["a"], e["b"], e["c"]]
    problems += _worst("triangle edges", got, edges[0], TOL)
    problems += _worst("half perimeter", record["half_perimeter"], sum(got) / 2.0, EXACT)
    problems += _worst("sqrt_area", record["sqrt_area"], meas[0, 3], TOL)
    problems += _worst("sqrt_area vs mpmath", record["sqrt_area"], reference.mp_fill(probs), TOL)
    problems += _worst("shortest edge", record["shortest_edge"], min(got), EXACT)
    problems += _worst("fill - gmc", record["fill_minus_gmc"],
                       record["sqrt_area"] - record["shortest_edge"], EXACT)
    return problems


def xcheck_failed(values):
    """The library's own guarantee: generic and closed-form routes agree to 1e-10
    on every state of the operation."""
    return any(v is None or not np.all(np.abs(np.subtract(v["generic"], v["closed"])) <= TOL)
               for v in values)


def check_xcheck(op, values):
    """Both routes against the reference measures and the mpmath fill."""
    problems = []
    for i, (state, v) in enumerate(zip(op["states"], values)):
        amps = np.array([complex(re_, im) for re_, im in state])
        meas, _ = reference.measures(amps)
        problems += _worst(f"state {i} generic route", v["generic"], meas[0], TOL)
        problems += _worst(f"state {i} closed-form route", v["closed"], meas[0], TOL)
        problems += _worst(f"state {i} fill vs mpmath", v["closed"][3],
                           reference.mp_fill(np.abs(amps) ** 2), TOL)
    return problems


def check_op(op, out):
    """Problems with the outputs of one operation that did not fail."""
    if op["op"] == "sweep":
        return check_sweep(op["config"], op["csv"], op["slopes"], out.get("stderr", ""))
    if op["op"] == "xcheck":
        return check_xcheck(op, out["values"])
    factor = 1000.0 if op["unit"] == "km/MeV" else 1.0
    with open(op["out"]) as fh:
        payload = json.load(fh)
    if op["op"] == "extremum":
        return check_extremum(op, factor, payload)
    return check_triangle(op, factor, payload)

