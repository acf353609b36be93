"""Spans around the calls into each layer, and the per-layer metrics.

The tracer replaces public functions of trinu's modules by wrappers that
record one span per call: name, start, end and the index of the enclosing
span.  A function imported into another module under the same name is
replaced there too, so every call site is seen.  Spans stay in memory until
the traced process writes them out at its end.  A target that no longer
exists is listed as missing, and every metric built on it reads ``null``.
"""

import sys
import time
from collections import defaultdict

#: Traced functions as "module:qualname" under the trinu package.
TARGETS = (
    "cli:main",
    "sweep:run_sweep", "sweep:SweepConfig.grid", "sweep:write_csv",
    "sweep:write_slopes", "sweep:find_extremum", "sweep:triangle_record",
    "oscillation:probability_array", "oscillation:amplitudes",
    "measures:report",
    "measures:measures_from_probs", "measures:triangle_edges_from_probs",
    "measures:ggm_from_probs", "measures:three_pi_from_probs",
    "measures:gmc_from_probs", "measures:fill_from_probs",
    "measures:one_to_other_concurrences", "measures:ggm", "measures:negativity",
    "measures:three_pi", "measures:gmc", "measures:concurrence_fill",
    "measures:heron_fill",
    "tristate:density",
    "linalg:partial_trace", "linalg:hermitian_eigenvalues",
    "_backend:eigvalsh_small",
)

CLOSED_FORM = tuple(f"measures:{n}" for n in (
    "measures_from_probs", "triangle_edges_from_probs", "ggm_from_probs",
    "three_pi_from_probs", "gmc_from_probs", "fill_from_probs"))
GENERIC = tuple(f"measures:{n}" for n in (
    "one_to_other_concurrences", "ggm", "negativity", "three_pi", "gmc",
    "concurrence_fill", "heron_fill"))


def _count_generic_point(tracer, args, kwargs):
    path = kwargs.get("path", args[3] if len(args) > 3 else "closed-form")
    if path == "generic":
        tracer.counters["generic_points"] += 1


def _table_bytes(tracer, result):
    for name in ("table", "generic_table"):
        table = getattr(result, name, None)
        tracer.counters["table_bytes"] += getattr(table, "nbytes", 0)


ON_CALL = {"measures:report": _count_generic_point}
ON_RETURN = {"sweep:run_sweep": _table_bytes}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self.missing = []
        self._stack = []

    def wrap(self, name, fn):
        on_call, on_return = ON_CALL.get(name), ON_RETURN.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target of the already imported trinu package."""
        modules = [m for k, m in sys.modules.items() if k == "trinu" or k.startswith("trinu.")]
        for target in targets:
            module_name, qualname = target.split(":")
            owner = sys.modules.get(f"trinu.{module_name}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.missing.append(target)
                continue
            traced = self.wrap(target, fn)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)


def aggregate(spans):
    """Calls, total and self seconds per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    return {"calls": calls, "total": total, "self": self_s}


def layer_metrics(agg, counters, missing, csv_bytes):
    """Per-layer metrics of one traced pass; ``None`` where a target is missing."""
    gone = set(missing)

    def present(*targets):
        return not gone.intersection(targets)

    def self_s(*targets):
        live = [t for t in targets if t not in gone]
        return sum(agg["self"][t] for t in live) if live else None

    def calls(target):
        return agg["calls"][target] if present(target) else None

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    write_csv_s = agg["total"]["sweep:write_csv"] if present("sweep:write_csv") else None
    eig_calls = calls("linalg:hermitian_eigenvalues")
    return {
        "cli.main_s": self_s("cli:main"),
        "sweep.run_sweep_s": self_s("sweep:run_sweep"),
        "sweep.grid_s": self_s("sweep:SweepConfig.grid"),
        "sweep.write_csv_s": self_s("sweep:write_csv"),
        "sweep.write_slopes_s": self_s("sweep:write_slopes"),
        "sweep.csv_mb_per_s": ratio(csv_bytes / 1e6, write_csv_s),
        "sweep.table_mb": counters.get("table_bytes", 0) / 1e6 if present("sweep:run_sweep") else None,
        "sweep.find_extremum_s": self_s("sweep:find_extremum"),
        "sweep.triangle_record_s": self_s("sweep:triangle_record"),
        "oscillation.probability_array_s": self_s("oscillation:probability_array"),
        "oscillation.probability_array_calls": calls("oscillation:probability_array"),
        "oscillation.amplitudes_calls": calls("oscillation:amplitudes"),
        "measures.closed_form_s": self_s(*CLOSED_FORM),
        "measures.report_calls": calls("measures:report"),
        "measures.report_s": self_s("measures:report"),
        "measures.generic_s": self_s(*GENERIC),
        "tristate.density_calls": calls("tristate:density"),
        "linalg.partial_trace_calls": calls("linalg:partial_trace"),
        "linalg.eigensolve_calls": eig_calls,
        "linalg.eigensolve_s": self_s("linalg:hermitian_eigenvalues"),
        "linalg.eigensolves_per_point": ratio(eig_calls, counters.get("generic_points", 0)),
        "backend.eigvalsh_small_s": self_s("_backend:eigvalsh_small"),
    }


#: Unit and better direction of every per-layer metric the benchmark reports.
UNITS = {
    "cli.main_s": ("s", "lower"),
    "sweep.run_sweep_s": ("s", "lower"),
    "sweep.grid_s": ("s", "lower"),
    "sweep.write_csv_s": ("s", "lower"),
    "sweep.write_slopes_s": ("s", "lower"),
    "sweep.csv_mb_per_s": ("MB/s", "higher"),
    "sweep.table_mb": ("MB", "lower"),
    "sweep.find_extremum_s": ("s", "lower"),
    "sweep.triangle_record_s": ("s", "lower"),
    "oscillation.probability_array_s": ("s", "lower"),
    "oscillation.probability_array_calls": ("count", "lower"),
    "oscillation.amplitudes_calls": ("count", "lower"),
    "measures.closed_form_s": ("s", "lower"),
    "measures.report_calls": ("count", "lower"),
    "measures.report_s": ("s", "lower"),
    "measures.generic_s": ("s", "lower"),
    "tristate.density_calls": ("count", "lower"),
    "linalg.partial_trace_calls": ("count", "lower"),
    "linalg.eigensolve_calls": ("count", "lower"),
    "linalg.eigensolve_s": ("s", "lower"),
    "linalg.eigensolves_per_point": ("count", "lower"),
    "backend.eigvalsh_small_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}
