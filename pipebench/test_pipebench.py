"""The benchmark's checks accept the program's real outputs and reject planted
wrong ones; the tracer's self-time arithmetic and missing-target handling.

    PYTHONPATH=src python3 -m pytest -q pipebench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trinu import cli  # noqa: E402


def rewrite_cell(path, row, column, transform):
    lines = Path(path).read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = transform(cells[column])
    lines[row + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.fixture()
def dense(tmp_path):
    cfg = {"initial": "e", "unit": "km/MeV", "scale": "linear", "path": "closed-form",
           "le_min": 0.25, "le_max": 39.75, "points": 301}
    csv, slopes = tmp_path / "d.csv", tmp_path / "s.csv"
    argv = ["sweep", "--preset", "electron", "--le-min", "0.25", "--le-max", "39.75",
            "--points", "301", "--output", str(csv), "--slopes", str(slopes)]
    assert cli.main(argv) == 0
    return cfg, csv, slopes


def test_sweep_accepts_real_output(dense):
    cfg, csv, slopes = dense
    assert checks.check_sweep(cfg, csv, slopes) == []


@pytest.mark.parametrize("column,name", [(2, "probabilities"), (7, "fill"), (9, "edges")])
def test_sweep_rejects_perturbed_cell(dense, column, name):
    cfg, csv, slopes = dense
    rewrite_cell(csv, 120, column, lambda v: repr(float(v) + 1e-8))
    assert any(p.startswith(name) for p in checks.check_sweep(cfg, csv, slopes))


def test_sweep_rejects_swapped_columns(dense):
    cfg, csv, slopes = dense
    lines = Path(csv).read_text().splitlines()
    swapped = [lines[0]]
    for line in lines[1:]:
        c = line.split(",")
        c[4], c[5] = c[5], c[4]
        swapped.append(",".join(c))
    Path(csv).write_text("\n".join(swapped) + "\n")
    problems = checks.check_sweep(cfg, csv, slopes)
    assert any(p.startswith("ggm") for p in problems)
    assert any(p.startswith("three_pi") for p in problems)


def test_sweep_rejects_other_grid(dense):
    cfg, csv, slopes = dense
    problems = checks.check_sweep(dict(cfg, le_max=39.5), csv, slopes)
    assert any(p.startswith("le grid") for p in problems)


def test_sweep_rejects_perturbed_slope(dense):
    cfg, csv, slopes = dense
    rewrite_cell(slopes, 50, 4, lambda v: repr(float(v) * (1 + 1e-6) + 1e-9))
    assert any(p.startswith("slopes") for p in checks.check_sweep(cfg, csv, slopes))


def test_sweep_rejects_dropped_row(dense):
    cfg, csv, slopes = dense
    lines = Path(csv).read_text().splitlines()
    Path(csv).write_text("\n".join(lines[:-1]) + "\n")
    assert checks.check_sweep(cfg, csv, slopes) != []


def test_crosscheck_discrepancy_gate(tmp_path):
    cfg = {"initial": "mu", "unit": "km/GeV", "scale": "log", "path": "both",
           "le_min": 10.0, "le_max": 1600.0, "points": 41}
    csv = tmp_path / "m.csv"
    assert cli.main(["sweep", "--preset", "muon", "--path", "both", "--points", "41",
                     "--output", str(csv)]) == 0
    ok = "max |closed-form - generic|: 1.943e-15\n"
    assert checks.check_sweep(cfg, csv, None, ok) == []
    bad = "max |closed-form - generic|: 2.000e-10\n"
    assert any("discrepancy" in p for p in checks.check_sweep(cfg, csv, None, bad))
    assert any("discrepancy" in p for p in checks.check_sweep(cfg, csv, None, ""))


def extremum_op(tmp_path, measure="fill", kind="max", window=(8.0, 13.0)):
    out = tmp_path / "ext.json"
    op = {"op": "extremum", "initial": "e", "unit": "km/MeV", "measure": measure,
          "kind": kind, "window": list(window), "out": str(out)}
    argv = ["extremum", "--measure", measure, "--kind", kind, "--window",
            str(window[0]), str(window[1]), "--output", str(out)]
    assert cli.main(argv) == 0
    return op, json.loads(out.read_text())


def test_extremum_accepts_real_output(tmp_path):
    op, payload = extremum_op(tmp_path)
    assert checks.check_extremum(op, 1000.0, payload) == []


def test_extremum_rejects_shifted_location(tmp_path):
    op, payload = extremum_op(tmp_path)
    payload["le_km_per_GeV"] += 5.0
    assert any("extremum value" in p for p in checks.check_extremum(op, 1000.0, payload))


def test_extremum_rejects_a_lower_local_peak(tmp_path):
    """A self-consistent answer that is not the best in the window."""
    op, payload = extremum_op(tmp_path)
    le = payload["le_km_per_GeV"] - 400.0
    payload["le_km_per_GeV"], payload["bracket"] = le, [le - 1.0, le + 1.0]
    payload["value"] = float(checks._measure_at("e", "fill", le)[0])
    assert any("beaten by dense scan" in p for p in checks.check_extremum(op, 1000.0, payload))


def test_triangle_checks(tmp_path):
    out = tmp_path / "tri.json"
    op = {"op": "triangle", "initial": "mu", "le": 262.2, "unit": "km/GeV", "out": str(out)}
    assert cli.main(["triangle", "--initial", "mu", "--unit", "km/GeV", "--le", "262.2",
                     "--json", "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert checks.check_triangle(op, 1.0, record) == []
    bad = json.loads(out.read_text())
    bad["edges"]["a"], bad["edges"]["b"] = bad["edges"]["b"], bad["edges"]["a"]
    assert checks.check_triangle(op, 1.0, bad) != []
    bad = json.loads(out.read_text())
    bad["sqrt_area"] += 1e-9
    assert any("sqrt_area" in p for p in checks.check_triangle(op, 1.0, bad))


def xcheck_values(states):
    from trinu import concurrence_fill, ggm, gmc, make_state, three_pi
    from trinu.measures import measures_from_probs
    values = []
    for amps in states:
        state = make_state([complex(*a) for a in amps])
        values.append({
            "generic": [ggm(state), three_pi(state), gmc(state), concurrence_fill(state)],
            "closed": measures_from_probs(np.array(state.probabilities())).tolist()})
    return values


def test_xcheck():
    ops = workloads.build("point_queries", 3, "/nonexistent")
    op = next(o for o in ops if o["op"] == "xcheck")
    values = xcheck_values(op["states"])
    assert not checks.xcheck_failed(values)
    assert checks.check_xcheck(op, values) == []
    values[5]["closed"][1] += 1e-9
    assert any("state 5 closed-form" in p for p in checks.check_xcheck(op, values))
    assert checks.xcheck_failed(values)


def test_needle_state_fails_the_route_agreement():
    assert checks.xcheck_failed(xcheck_values([[[a, 0.0] for a in workloads.NEEDLE_AMPS]]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_shape_does_not_depend_on_seed(workload):
    shapes = {tuple(o["op"] for o in workloads.build(workload, s, "w")) for s in range(5)}
    assert len(shapes) == 1


def test_scaled_time_leaves_out_probes_and_uses_their_speed():
    ref = speed.REFERENCE_PROBE_S
    # bracketing probes at half speed, one probe inside at full speed
    samples = [(0.0, 2 * ref), (1.5, ref), (3.0, 2 * ref), (9.0, 2 * ref)]
    busy = 3.0 - 1.0 - ref
    assert speed.scaled(1.0, 3.0, samples) == pytest.approx(busy * (0.5 + 1.0 + 0.5) / 3)
    assert speed.scaled(3.0 + 2 * ref, 9.0, samples) == pytest.approx((6.0 - 2 * ref) * 0.5)


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
             ["leaf", 2.0, 3.0, 1]]
    agg = tracing.aggregate(spans)
    assert agg["self"]["outer"] == pytest.approx(6.0)
    assert agg["self"]["inner"] == pytest.approx(3.0)
    assert agg["calls"]["inner"] == 2
    assert agg["total"]["inner"] == pytest.approx(4.0)


def test_missing_target_reads_null():
    agg = tracing.aggregate([])
    metrics = tracing.layer_metrics(agg, {}, ["_backend:eigvalsh_small",
                                              "linalg:hermitian_eigenvalues"], 0)
    assert metrics["backend.eigvalsh_small_s"] is None
    assert metrics["linalg.eigensolves_per_point"] is None
    assert metrics["measures.report_calls"] == 0
    assert set(metrics) | {"trace.overhead_s", "trace.spans"} == set(tracing.UNITS)
