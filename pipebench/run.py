"""Layered pipeline benchmark of trinu.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter that imports trinu from ``src`` (closed loop, one client, one
process).  Passes repeat until S seconds have gone by; the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones plus the tracing overhead.  See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: No BLAS or OpenMP thread pools in the workers: one process, one thread.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(work, ops, spans=None):
    """Run ``ops`` in a fresh interpreter.

    Returns the pass's wall seconds less the worker's speed probes, the same
    at the reference speed (None for a traced pass, which takes no probes),
    the peak RSS in MB and the per-operation results, each with its
    latency ``s`` at the reference speed (raw for a traced pass).
    """
    spec, result = work / "spec.json", work / "result.json"
    spec.write_text(json.dumps({"src": str(SRC), "ops": ops,
                                "spans": str(spans) if spans else None}))
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), **SINGLE_THREAD)
    before = speed.probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec), str(result)],
                   env=env, stdout=subprocess.DEVNULL, check=True)
    end = time.perf_counter()
    after = speed.probe()
    data = json.loads(result.read_text())
    outs, probes = data["ops"], data["samples"]
    wall = end - start - sum(p[1] for p in probes)
    if not probes:
        for out in outs:
            out["s"] = out["end"] - out["begin"]
        return wall, None, data["peak_rss_mb"], outs
    samples = [before, *probes, after]
    for out in outs:
        out["s"] = speed.scaled(out["begin"], out["end"], samples)
    # start-up to the first probe, the operations, the last probe to exit
    first, last = probes[0], probes[-1]
    scaled_wall = (speed.scaled(start, first[0], samples) + sum(o["s"] for o in outs)
                   + speed.scaled(last[0] + last[1], end, samples))
    return wall, scaled_wall, data["peak_rss_mb"], outs


def output_files(op):
    return [op[k] for k in ("csv", "slopes", "out") if op.get(k)]


def op_failed(op, out):
    if op["op"] == "xcheck":
        return checks.xcheck_failed(out.get("values"))
    return out["rc"] != 0


class Verifier:
    """Checks every pass's outputs; an output byte-identical to one already
    verified for the same operation is accepted without recomputing."""

    def __init__(self, ops):
        self.ops = ops
        self.verified = [set() for _ in ops]
        self.problems = []

    def _digest(self, op, out):
        h = hashlib.blake2b(json.dumps([out.get("stderr"), out.get("values")]).encode())
        for path in output_files(op):
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
        return h.hexdigest()

    def check(self, outs):
        """Check one pass; returns the number of failed operations."""
        failed = 0
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            if op_failed(op, out):
                failed += 1
                continue
            key = self._digest(op, out)
            if key in self.verified[i]:
                continue
            problems = checks.check_op(op, out)
            if problems:
                self.problems += [f"op {i} ({op['op']}): {p}" for p in problems]
            else:
                self.verified[i].add(key)
        return failed


def layer_metrics(spans_path, ops):
    with open(spans_path) as fh:
        data = json.load(fh)
    csv_bytes = sum(os.path.getsize(op["csv"]) for op in ops if op["op"] == "sweep")
    metrics = tracing.layer_metrics(tracing.aggregate(data["spans"]), data["counters"],
                                    data["missing"], csv_bytes)
    metrics["trace.spans"] = len(data["spans"])
    return metrics


def median_or_none(values):
    return None if any(v is None for v in values) else statistics.median(values)


def measure(workload, seed, seconds, trace, work):
    ops = workloads.build(workload, seed, str(work))
    verifier = Verifier(ops)
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or (trace and len(passes) < 2):
        # one set-up measurement before every pass spreads them over the run
        setup.append(run_worker(work, workloads.SETUP_OPS)[1])
        traced = trace and len(passes) % 2 == 1
        spans = work / "spans.json" if traced else None
        for op in ops:
            for path in output_files(op):
                Path(path).unlink(missing_ok=True)
        wall, scaled_wall, rss, outs = run_worker(work, ops, spans)
        record = {"traced": traced, "wall": wall, "scaled_wall": scaled_wall, "rss": rss,
                  "latencies": [o["s"] for o in outs], "failed": verifier.check(outs)}
        if traced:
            record["layers"] = layer_metrics(spans, ops)
            shutil.copyfile(spans, OUT / f"spans-{workload}-{seed}.json")
        passes.append(record)

    plain = [p for p in passes if not p["traced"]]
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {name: median_or_none([p["layers"][name] for p in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.mean(p["wall"] for p in traced)
                                       - statistics.mean(p["wall"] for p in plain))
        units = {name: unit for name, (unit, _) in tracing.UNITS.items()}
    else:
        # Times at the reference speed (speed.py), as means over passes.  The
        # query median is taken across operations, of each operation's mean
        # latency.
        per_op = [statistics.mean(s) for s in zip(*(p["latencies"] for p in plain))]
        metrics = {
            "setup_s": statistics.mean(setup),
            "wall_s": statistics.mean(p["scaled_wall"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss"] for p in plain),
            "query_ms_p50": 1000.0 * statistics.median(per_op),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "query_ms_p50": "ms"}
    print("pass wall times (s): " + " ".join(f"{p['wall']:.3f}" for p in plain), file=sys.stderr)
    if not trace:
        print("at the reference speed (s): "
              + " ".join(f"{p['scaled_wall']:.3f}" for p in plain), file=sys.stderr)
    for problem in verifier.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not verifier.problems,
        "attempted": len(ops) * len(passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Layered pipeline benchmark of trinu.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "trinu" / "cli.py").is_file():
        print(f"error: no trinu source tree at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
