"""Every target of the benchmark's tracer resolves, so no per-layer metric
reads ``null``: the benchmark's smoke run rejects a ``null`` metric, and a
function it traces can go only together with the metric built on it."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "pipebench"))

import tracing  # noqa: E402
import trinu.cli  # noqa: E402, F401


def missing_targets():
    """The tracer's targets that name no callable of the imported package,
    resolved as ``tracing.Tracer.install`` resolves them, without wrapping."""
    missing = []
    for target in tracing.TARGETS:
        module_name, qualname = target.split(":")
        owner = sys.modules.get(f"trinu.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    return missing


def test_no_layer_metric_reads_null():
    metrics = tracing.layer_metrics(tracing.aggregate([]), {}, missing_targets(), 0)
    nulls = [name for name, value in metrics.items() if value is None]
    assert not nulls, (nulls, missing_targets())
