"""One fresh benchmark process: a set-up repetition, optionally followed by
the measured window.

``run.py`` starts this script once per process it needs and reads the
JSON object it prints as its last line.  It is not meant to be run by
hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate  # noqa: E402
from perfbench.harness import (  # noqa: E402
    OP_SPAN,
    SETUP_SPAN,
    OpRecord,
    Probe,
    layer_self_times,
    run_op,
    run_window,
    scale,
    schedule,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

MB = 1024.0 * 1024.0
BGP_LAYERS = ("bgp.propagate_v4", "bgp.propagate_v6")
#: Metric -> the layers whose tracemalloc peak it reports.
ALLOC_METRICS = {
    "bgp.alloc_peak_mb": BGP_LAYERS,
    "core.correction.alloc_peak_mb": ("core.correction",),
    "datasets.snapshot_io.alloc_peak_mb": ("datasets.snapshot_io.load",),
}
#: tracemalloc slows Python code about fourfold.
ALLOC_SLOWDOWN = 4.0


def _setup(workload, probe: Probe, rep: int, traced: bool, spawned_at: float) -> dict:
    """One set-up repetition.  Its time runs from the process's spawn to
    the end of set-up, less the calibration kernel runs made during it,
    and is scaled like an op's (see :mod:`perfbench.calibrate`)."""
    probe.begin_op(-1, traced)
    with calibrate.Sampler() as sampler:
        probe.call(SETUP_SPAN, workload.setup, rep)
    seconds = time.monotonic() - spawned_at - sampler.spent
    factor = calibrate.REFERENCE_S / sampler.kernel_s()
    result = {"setup_s": seconds * factor, "setup_s.unscaled": seconds}
    if traced:
        layers = layer_self_times(probe.spans)
        result["setup_layers"] = {
            "setup.bgp_s": factor * sum(layers.get(name, 0.0) for name in BGP_LAYERS),
            "setup.pipeline.artifacts.store_s": factor
            * layers.get("pipeline.artifacts.store", 0.0),
            "setup.pipeline.artifacts.bytes_written": probe.counts.get(
                (-1, "pipeline.artifacts.bytes_written"), 0.0
            ),
        }
    return result


def op_layer_metrics(probe: Probe, op_ids: List[int], factor: float) -> Dict[str, float]:
    """Per-op layer metrics from the spans and counts of traced ops, times
    multiplied by ``factor`` (to the reference host speed)."""
    n = len(op_ids)
    wanted = set(op_ids)
    spans = [span for span in probe.spans if span.op_id in wanted]
    layers = {name: total * factor for name, total in layer_self_times(spans).items()}
    wall = factor * sum(span.end - span.start for span in spans if span.name == OP_SPAN)
    metrics = {f"{name}_s": total / n for name, total in layers.items() if name != OP_SPAN}
    metrics["pipeline.runner.overhead_s"] = layers.get(OP_SPAN, 0.0) / n
    counts: Dict[str, float] = {}
    for (op_id, name), value in probe.counts.items():
        if op_id in wanted:
            counts[name] = counts.get(name, 0.0) + value
    for name, total in counts.items():
        metrics[name] = total / n
    bgp = sum(layers.get(name, 0.0) for name in BGP_LAYERS)
    metrics["bgp.share"] = bgp / wall
    metrics["trace.attributed_frac"] = 1.0 - layers.get(OP_SPAN, 0.0) / wall
    verifies = counts.get("pipeline.artifacts.verifies", 0.0)
    hits = counts.get("pipeline.artifacts.hits", 0.0)
    metrics["pipeline.artifacts.hit_ratio"] = hits / verifies if verifies else 0.0
    return metrics


def _trace_metrics(workload, probe: Probe, records: List[OpRecord], plan) -> dict:
    """Per-layer metrics of a traced window, plus one allocation pass: an
    extra op with tracemalloc on inside the measured layers only,
    separate from the timed spans.  Skipped after a failed op, or when the
    op stream is used up."""
    result: dict = {}
    traced = [r.as_dict() for r in records if r.traced and r.ok]
    untraced = [r.as_dict() for r in records if not r.traced and r.ok]
    metrics: Dict[str, float] = {}
    if traced:
        factor = statistics.median(scale(op) for op in traced)
        metrics = op_layer_metrics(probe, [op["index"] for op in traced], factor)
    if traced and untraced:
        p50 = statistics.median(op["seconds"] * scale(op) for op in traced)
        untraced_p50 = statistics.median(op["seconds"] * scale(op) for op in untraced)
        metrics["trace.overhead_frac"] = p50 / untraced_p50 - 1.0
    following = next(plan, None)
    if following is not None and all(r.ok for r in records):
        item, _ = following
        probe.alloc_layers = frozenset(name for names in ALLOC_METRICS.values() for name in names)
        limit_s = ALLOC_SLOWDOWN * workload.op_limit_s
        output, record = run_op(probe, -2, item, workload.op, limit_s, traced=False)
        del output
        probe.alloc_layers = frozenset()
        result["alloc_op"] = record.as_dict()
        for metric, names in ALLOC_METRICS.items():
            metrics[metric] = max(probe.alloc_peaks.get(name, 0) for name in names) / MB
    result["layers"] = metrics
    result["traced_ops"] = len(traced)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--rep", type=int, default=None, help="set-up repetition to run")
    parser.add_argument("--measure", action="store_true", help="then run the window")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    calibrate.pin_to_one_cpu()
    probe = Probe(traced=args.trace)
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), probe)
    result: dict = {}
    if args.rep is not None:
        result.update(
            _setup(workload, probe, args.rep, args.trace, args.spawned_at)
        )
    if args.measure:
        if args.rep is None:
            workload.prepare()
        plan = schedule(workload.inputs(), args.trace, workload.repeatable)
        records = run_window(
            probe,
            plan,
            workload.op,
            workload.check,
            args.seconds,
            workload.op_limit_s,
            calibrated=True,
        )
        result["peak_rss_mb"] = max(record.peak_rss_mb for record in records)
        result["op_limit_s"] = workload.op_limit_s
        result["ops"] = [record.as_dict() for record in records]
        if args.trace:
            result.update(_trace_metrics(workload, probe, records, plan))
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            for span in probe.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
