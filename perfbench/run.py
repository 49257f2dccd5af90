"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 7 --seconds 12 --trace 0

Every process the run needs is a fresh single-threaded Python process
(``perfbench/worker.py``): first the workload's set-up repetitions, the
last of which (or a separate process) then measures a closed-loop window
of ``--seconds`` seconds of op time.  The metrics named in
``BENCHMARK.json`` are printed by name with their units; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 1`` prints the per-layer metrics
instead of the end-to-end ones and writes the spans to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.harness import all_correct, scale, summarize, tail_percentile  # noqa: E402

#: Every process of a run must have ended by then (the benchmark's own
#: hard limit; a run normally takes well under half of it).
RUN_DEADLINE_S = 170.0


class RunError(RuntimeError):
    """The run cannot produce a result."""


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise RunError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _check_checkout() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunError(
            f"{ROOT} holds no src/repro package: run the benchmark from a "
            "checkout of the repository"
        )


def _worker(args: List[str], deadline: float) -> dict:
    """Start one fresh worker process and return its result object."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("no time left for the next process")
    command = [sys.executable, str(HERE / "worker.py"), *args]
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed the worker and waited for it.
        raise RunError(f"a worker overran the run's {RUN_DEADLINE_S:g} s limit") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"worker {' '.join(args[:4])} exited with {done.returncode}")
    return json.loads(lines[-1])


def _report(name: str, setup_results: List[dict], result: dict, summary: dict) -> None:
    ops = result["ops"]
    print(f"workload {name}: {summary['attempted']} ops, {summary['failed']} failed "
          f"(failed share {summary['failed_share']:.3f})")
    print("  times are scaled to the reference host speed (perfbench/calibrate.py); "
          "unscaled in brackets")
    setups = ", ".join(
        f"{item['setup_s']:.3f} [{item['setup_s.unscaled']:.3f}]" for item in setup_results
    )
    print(f"  set-up repetitions: {setups} s")
    unscaled = statistics.median(op["seconds"] for op in ops)
    print(f"  op_s.p50 over {len(ops)} ops: {summary['op_s.p50']:.4f} [{unscaled:.4f}] s")
    tail = tail_percentile(summary["latencies"])
    if tail is None:
        print(f"  op_s.tail: not reported ({len(ops)} ops leave fewer than 10 "
              "beyond any tail percentile)")
    else:
        pct, value, n_beyond = tail
        print(f"  op_s.tail = p{pct:g} over {len(ops)} ops ({n_beyond} beyond): {value:.4f} s")
    for op in ops:
        status = "ok"
        if not op["ok"]:
            status = f"FAILED ({op['failure']}) in {op['failed_in']}: {op['error']}"
        traced = " traced" if op["traced"] else ""
        print(f"  op {op['index']} input {op['item']}{traced}: "
              f"{op['seconds'] * scale(op):.4f} [{op['seconds']:.4f}] s, "
              f"kernel {op['kernel_s']:.4f} s, "
              f"peak RSS {op['peak_rss_mb']:.1f} MB, {status}")
    if "traced_ops" in result:
        print(f"  per-layer metrics from {result['traced_ops']} traced ops")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _check_checkout()
    spec = _spec()
    names = {item["name"] for item in spec["workloads"]}
    if workload not in names:
        raise RunError(f"unknown workload {workload!r}; BENCHMARK.json names {sorted(names)}")
    from perfbench.workloads import WORKLOADS

    kind = WORKLOADS[workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ROOT / ".perfbench"
    workdir = base / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    if trace:
        common.append("--trace")
    try:
        # Set-up repetitions in processes of their own; the last one may
        # instead be the measuring process's own set-up.
        separate = kind.setup_reps - 1 if kind.measure_in_last_rep else kind.setup_reps
        setup_results = [
            _worker(common + ["--rep", str(rep)], deadline) for rep in range(separate)
        ]
        measure = common + ["--measure", "--seconds", str(seconds)]
        if kind.measure_in_last_rep:
            measure += ["--rep", str(kind.setup_reps - 1)]
        if trace:
            traces = base / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            measure += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
        result = _worker(measure, deadline)
        if "setup_s" in result:
            setup_results.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups = [item["setup_s"] for item in setup_results]
    summary = summarize(result["ops"], result["op_limit_s"])
    _report(workload, setup_results, result, summary)
    ops = result["ops"] + ([result["alloc_op"]] if "alloc_op" in result else [])
    if trace:
        values = dict(result["layers"])
        for key in setup_results[0].get("setup_layers", {}):
            values[key] = statistics.median(item["setup_layers"][key] for item in setup_results)
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": summary["ops_per_s"],
            "op_s.p50": summary["op_s.p50"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared = spec["end_to_end"]
    metrics = {}
    for metric in declared:
        if metric["name"] not in values and not trace:
            raise RunError(f"the benchmark does not compute {metric['name']!r}")
        # A layer the workload's ops never enter reports zero.
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>16.6f} {metric['unit']}")
    return {
        "correct": all_correct(ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
