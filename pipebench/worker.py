"""One pass of a workload in a fresh interpreter: ``worker.py SPEC RESULT``.

SPEC is a JSON file with the source tree to import trinu from, the
operations to run and whether to trace.  Each operation is timed on its
own; CLI operations go through ``trinu.cli.main`` with the argv a user would
type.  RESULT receives each operation's start and end, exit code, captured
stderr and library values.  An untraced pass also returns the speed probes
it took (``speed.py``); a traced pass takes none and writes its spans.
"""

import contextlib
import io
import json
import sys
import time

import numpy as np


def xcheck_state(trinu, amps):
    """Both routes' measures of one W-class state; None if the library refuses it."""
    m = trinu.measures
    state = trinu.tristate.make_state([complex(re, im) for re, im in amps])
    try:
        generic = [m.ggm(state), m.three_pi(state), m.gmc(state), m.concurrence_fill(state)]
    except ValueError:
        return None
    closed = m.measures_from_probs(np.array(state.probabilities()))
    return {"generic": generic, "closed": closed.tolist()}


def run_op(op, trinu, tracer):
    if op["op"] == "setup":
        params = trinu.OscillationParams()
        trinu.measures.report(params, "e", 10830.0)
        trinu.measures.report(params, "e", 10830.0, path="generic")
        return {}
    if op["op"] == "xcheck":
        if tracer is not None:
            tracer.counters["generic_points"] += len(op["states"])
        return {"values": [xcheck_state(trinu, amps) for amps in op["states"]]}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = trinu.cli.main(op["argv"])
    return {"rc": rc, "stderr": err.getvalue()}


def peak_rss_mb():
    """High-water resident set of this process since exec, from /proc.

    getrusage's ru_maxrss would also count the parent's size at fork, which
    exec carries over into the child's figure.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import trinu
    import trinu.cli

    tracer = sampler = None
    if spec.get("spans"):
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        from speed import Sampler
        sampler = Sampler()
        sampler.bracket()
        sampler.start()

    ops = []
    for op in spec["ops"]:
        begin = time.perf_counter()
        out = run_op(op, trinu, tracer)
        out["begin"], out["end"] = begin, time.perf_counter()
        ops.append(out)
        if sampler is not None:
            sampler.bracket()
    if sampler is not None:
        sampler.stop()
    with open(result_path, "w") as fh:
        json.dump({"ops": ops, "peak_rss_mb": peak_rss_mb(),
                   "samples": sampler.samples if sampler else []}, fh)
    if tracer is not None:
        with open(spec["spans"], "w") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters,
                       "missing": tracer.missing}, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
