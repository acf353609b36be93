"""Seeded inputs of the workloads.

Each builder returns the list of operations one pass runs.  The seed moves
grid bounds, extremum windows, triangle points and cross-check states; it
never changes how many operations a pass holds or what kind they are, so the
work per pass and the share of failed operations do not depend on it.
"""

import os

import numpy as np

DENSE_POINTS = 200_000
#: Points of the cross-check sweep in a point_queries pass, and of a
#: sweep_crosscheck pass.
CROSSCHECK_POINTS = 101
CROSSCHECK_DENSE_POINTS = 1001

MEASURES = ("ggm", "three_pi", "gmc", "fill")
KINDS = ("max", "min")

#: Sweep ranges the extremum and triangle queries run in, per initial flavor.
RANGES = {
    "e": {"unit": "km/MeV", "le_min": 0.0, "le_max": 40.0},
    "mu": {"unit": "km/GeV", "le_min": 10.0, "le_max": 1600.0},
}

#: Extremum search windows (in the range's unit) before the seeded jitter of
#: +-5% per edge: the equal-probability peak and the trough after it for e,
#: the first atmospheric maxima and dip for mu.  Every measure's extremum
#: lies at least 13% of the width inside the window for every jitter, so
#: each query refines an interior extremum and a pass does the same work
#: whatever the seed.
WINDOWS = {
    ("e", "max"): (8.0, 13.0),
    ("e", "min"): (14.0, 20.0),
    ("mu", "max"): (250.0, 520.0),
    ("mu", "min"): (420.0, 600.0),
}

#: What a set-up run does: import trinu.cli and one report on each route.
SETUP_OPS = [{"op": "setup"}]

#: Operations per pass, in latency order: 6 cheap ones (4 triangles, 2
#: cross-checks), 16 closed-form extremum queries, 5 slow ones (4 generic
#: extremum queries and a small sweep on both routes).  The median of the 27
#: latencies is the 8th closed-form query, in the middle of one latency group
#: rather than at an edge between two.
GENERIC_EXTREMA = 4
TRIANGLES_PER_FLAVOR = 2
XCHECK_STATES = 8

#: A needle-like concurrence triangle on which the generic fill misses the
#: closed form by 1.17e-10 (cancellation in the Heron factor c - (a - b)).
NEEDLE_AMPS = (0.6594896186777208, 0.751713670792484, 5.898654471275196e-08)


def sweep_csv_dense(rng, work):
    cfg = {"initial": "e", "unit": "km/MeV", "scale": "linear", "path": "closed-form",
           "le_min": float(rng.uniform(0.0, 0.5)), "le_max": float(rng.uniform(39.5, 40.0)),
           "points": DENSE_POINTS}
    csv, slopes = os.path.join(work, "dense.csv"), os.path.join(work, "dense_slopes.csv")
    argv = ["sweep", "--preset", "electron", "--le-min", repr(cfg["le_min"]),
            "--le-max", repr(cfg["le_max"]), "--points", str(cfg["points"]),
            "--output", csv, "--slopes", slopes]
    return [{"op": "sweep", "argv": argv, "config": cfg, "csv": csv, "slopes": slopes}]


def crosscheck_sweep(rng, work, points=CROSSCHECK_POINTS):
    cfg = {"initial": "mu", "unit": "km/GeV", "scale": "log", "path": "both",
           "le_min": float(rng.uniform(8.0, 12.0)), "le_max": float(rng.uniform(1500.0, 1600.0)),
           "points": points}
    csv = os.path.join(work, "crosscheck.csv")
    argv = ["sweep", "--preset", "muon", "--path", "both",
            "--le-min", repr(cfg["le_min"]), "--le-max", repr(cfg["le_max"]),
            "--points", str(cfg["points"]), "--output", csv]
    return {"op": "sweep", "argv": argv, "config": cfg, "csv": csv, "slopes": None}


def _range_flags(initial):
    r = RANGES[initial]
    return ["--initial", initial, "--unit", r["unit"],
            "--le-min", repr(r["le_min"]), "--le-max", repr(r["le_max"])]


def point_queries(rng, work):
    ops = []
    combos = [(i, m, k) for i in RANGES for m in MEASURES for k in KINDS]
    generic = {combos[j] for j in rng.choice(len(combos), GENERIC_EXTREMA, replace=False)}
    for initial, measure, kind in combos:
        lo, hi = WINDOWS[(initial, kind)]
        jitter = 0.05 * (hi - lo)
        window = [float(lo + rng.uniform(-jitter, jitter)), float(hi + rng.uniform(-jitter, jitter))]
        ops.append({"op": "extremum", "initial": initial, "measure": measure, "kind": kind,
                    "unit": RANGES[initial]["unit"], "window": window,
                    "out": os.path.join(work, f"ext{len(ops)}.json")})
    for initial, measure, kind in generic:
        ops.append(dict(ops[combos.index((initial, measure, kind))], path="generic",
                        out=os.path.join(work, f"ext{len(ops)}.json")))
    for op in ops:
        op["path"] = op.get("path", "closed-form")
        op["argv"] = ["extremum", "--measure", op["measure"], "--kind", op["kind"],
                      "--window", repr(op["window"][0]), repr(op["window"][1]),
                      "--path", op["path"], *_range_flags(op["initial"]),
                      "--output", op["out"]]
    for initial in RANGES:
        r = RANGES[initial]
        for _ in range(TRIANGLES_PER_FLAVOR):
            le = float(rng.uniform(r["le_min"], r["le_max"]))
            out = os.path.join(work, f"tri{len(ops)}.json")
            ops.append({"op": "triangle", "initial": initial, "le": le, "unit": r["unit"],
                        "out": out,
                        "argv": ["triangle", "--initial", initial, "--unit", r["unit"],
                                 "--le", repr(le), "--json", "--output", out]})
    ops.append(crosscheck_sweep(rng, work))
    states = []
    for _ in range(XCHECK_STATES):
        probs = rng.dirichlet(np.ones(3))
        amps = np.sqrt(probs) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
        amps /= np.linalg.norm(amps)
        states.append([[a.real, a.imag] for a in amps])
    ops.append({"op": "xcheck", "states": states})
    ops.append({"op": "xcheck", "states": [[[a, 0.0] for a in NEEDLE_AMPS]]})
    return ops


def sweep_crosscheck(rng, work):
    return [crosscheck_sweep(rng, work, CROSSCHECK_DENSE_POINTS)]


#: The rng of a workload is seeded with its index here, so a new workload
#: goes at the end and leaves the others' inputs as they were.
BUILDERS = {
    "sweep_csv_dense": sweep_csv_dense,
    "point_queries": point_queries,
    "sweep_crosscheck": sweep_crosscheck,
}
WORKLOADS = tuple(BUILDERS)


def build(workload, seed, work):
    """Operations of one pass of ``workload`` for ``seed``, writing under ``work``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return BUILDERS[workload](rng, work)

