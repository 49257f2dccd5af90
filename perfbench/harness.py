"""Measurement machinery shared by every workload.

* :class:`Probe` wraps each call the benchmark makes into a layer of the
  program.  Untraced it only remembers which layer is running, so the
  watchdog can say where an op stalled; traced it also records a span
  (name, start, end, parent, op id) in memory; in an allocation pass it
  runs ``tracemalloc`` inside the listed layers only.
* :func:`self_times` turns spans into per-span self time.
* :func:`percentile` / :func:`tail_percentile` are the latency rules.
* :class:`Watchdog` fails an op that overruns its time limit.
* :func:`run_window` is the closed loop: one client, the next op starts
  when the previous one (and its output check, run by
  :func:`check_in_child`) has finished.  Each op can run under the
  host-speed :class:`~perfbench.calibrate.Sampler`, and :func:`scale`
  turns its time into seconds at the reference host speed.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import signal
import statistics
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from perfbench.calibrate import REFERENCE_S, Sampler

#: Name of the span that wraps one whole op.
OP_SPAN = "op"
#: Name of the span that wraps a traced set-up.
SETUP_SPAN = "setup"
#: Percentiles tried, highest first, when looking for a latency tail.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Ops that must lie beyond a percentile before it is reported as a tail.
TAIL_MIN_BEYOND = 10


@dataclasses.dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: int
    name: str
    start: float
    end: float = math.nan

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Probe:
    """Wraps calls into the program's layers (see the module docstring)."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        #: Layers for which the current pass measures tracemalloc peaks.
        self.alloc_layers: frozenset = frozenset()
        #: Peak traced bytes per layer name, over every call in the pass.
        self.alloc_peaks: Dict[str, int] = {}
        self.op_id = 0
        self.spans: List[Span] = []
        #: (op id, counter name) -> summed value, recorded when traced.
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        #: Names of the layer calls currently open, innermost last.
        self.stack: List[str] = []
        #: Layer path that was open when the current op raised.
        self.failed_in: Optional[str] = None
        self._open: List[int] = []

    def begin_op(self, op_id: int, traced: bool) -> None:
        self.op_id = op_id
        self.traced = traced
        self.stack.clear()
        self._open.clear()
        self.failed_in = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` as one call into layer ``name``."""
        self.stack.append(name)
        try:
            if name in self.alloc_layers and not tracemalloc.is_tracing():
                return self._call_alloc(name, fn, args, kwargs)
            if self.traced:
                return self._call_traced(name, fn, args, kwargs)
            return fn(*args, **kwargs)
        except BaseException:
            if self.failed_in is None:
                self.failed_in = "/".join(self.stack)
            raise
        finally:
            self.stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.traced:
            self.counts[(self.op_id, name)] += value

    def _call_traced(self, name, fn, args, kwargs):
        span = Span(
            span_id=len(self.spans),
            parent_id=self._open[-1] if self._open else None,
            op_id=self.op_id,
            name=name,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _call_alloc(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.alloc_peaks[name] = max(self.alloc_peaks.get(name, 0), peak)


# ----------------------------------------------------------------------
# spans -> self time
# ----------------------------------------------------------------------
def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Layer name -> summed self time of its spans."""
    spans = list(spans)
    per_span = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += per_span[span.span_id]
    return dict(totals)


# ----------------------------------------------------------------------
# latency percentiles
# ----------------------------------------------------------------------
def _rank(count: int, pct: float) -> int:
    # Rounded first so that e.g. 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile (the smallest value with ``pct`` % of the
    values at or below it)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(len(ordered), pct) - 1]


def tail_percentile(values: Iterable[float]) -> Optional[Tuple[float, float, int]]:
    """``(pct, value, ops beyond)`` for the highest candidate percentile with
    at least :data:`TAIL_MIN_BEYOND` values beyond it; ``None`` when the
    run is too short to support any."""
    values = list(values)
    for pct in TAIL_CANDIDATES:
        n_beyond = len(values) - _rank(len(values), pct)
        if n_beyond >= TAIL_MIN_BEYOND:
            return pct, percentile(values, pct), n_beyond
    return None


# ----------------------------------------------------------------------
# the per-op watchdog
# ----------------------------------------------------------------------
class OpTimeout(BaseException):
    """Raised in the main thread when an op overruns its time limit.

    A ``BaseException`` so that no ``except Exception`` inside the
    program under test can swallow it.
    """


class Watchdog:
    """Arms ``SIGALRM`` for the duration of one op (main thread only)."""

    def __init__(self, limit_s: float) -> None:
        self.limit_s = limit_s
        self._previous = None

    def _expire(self, signum, frame) -> None:
        raise OpTimeout(f"op exceeded its {self.limit_s:g} s limit")

    def __enter__(self) -> "Watchdog":
        self._previous = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
#: How a failed op failed (:attr:`OpRecord.failure`).
TIMEOUT, RAISED, CHECK = "timeout", "raised", "check"


@dataclasses.dataclass
class OpRecord:
    index: int
    item: object
    traced: bool
    seconds: float
    ok: bool = True
    #: ``None`` for an op that passed, else :data:`TIMEOUT`,
    #: :data:`RAISED` or :data:`CHECK`.
    failure: Optional[str] = None
    failed_in: Optional[str] = None
    error: Optional[str] = None
    #: Mean time of the calibration kernel runs during the op (see
    #: :mod:`perfbench.calibrate`), when calibrated.
    kernel_s: Optional[float] = None
    #: The process's peak resident set while the op ran, MB.
    peak_rss_mb: Optional[float] = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_op(probe: Probe, index: int, item, op: Callable, limit_s: float, traced: bool):
    """One op under the watchdog: ``(output or None, OpRecord)``."""
    probe.begin_op(index, traced)
    output = None
    failure = error = None
    started = time.perf_counter()
    try:
        with Watchdog(limit_s):
            output = probe.call(OP_SPAN, op, item)
    except OpTimeout as exc:
        failure, error = TIMEOUT, str(exc)
    except Exception as exc:  # the op failed; record it and go on
        failure, error = RAISED, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    record = OpRecord(index=index, item=item, traced=traced, seconds=seconds)
    if failure is not None:
        record.ok, record.failure = False, failure
        record.error, record.failed_in = error, probe.failed_in
    return output, record


def schedule(inputs: Iterator, trace: bool, repeatable: bool) -> Iterator[Tuple[object, bool]]:
    """``(item, traced)`` pairs for the window.

    Untraced runs trace nothing.  Traced runs interleave traced and
    untraced ops so the tracing overhead is measured under the same host
    conditions: a repeatable input runs twice in a row (order alternating),
    otherwise consecutive inputs alternate.
    """
    for index, item in enumerate(inputs):
        if not trace:
            yield item, False
        elif repeatable:
            first = index % 2 == 0
            yield item, first
            yield item, not first
        else:
            yield item, index % 2 == 0


def check_in_child(check: Callable, item, output, limit_s: float) -> Optional[str]:
    """``check(item, output)`` in a forked child: ``None`` when it passes.

    The child sees the op's output copy-on-write, so the check's own
    allocations neither raise this process's peak RSS nor leave garbage
    for the next op.  A check that raises, or overruns ``limit_s``,
    fails.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report through the pipe, never return
        status, message = 1, "the check process failed"
        try:
            os.close(read_end)
            with Watchdog(limit_s):
                problem = check(item, output)
            status, message = (0, "") if problem is None else (1, str(problem))
        except BaseException as exc:  # reported to the parent, then exit
            message = f"check raised {type(exc).__name__}: {exc}"
        finally:
            try:
                os.write(write_end, message.encode("utf-8", "replace")[:4096])
            finally:
                os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        message = pipe.read().decode("utf-8", "replace")
    _, wait_status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(wait_status) == 0:
        return None
    return message or f"check process ended with wait status {wait_status}"


def _rss_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def reset_peak_rss() -> None:
    """Start a new peak-RSS interval (Linux: ``VmHWM`` drops to ``VmRSS``)."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident set since the last :func:`reset_peak_rss`, MB."""
    return _rss_kb("VmHWM") / 1024.0


def run_window(
    probe: Probe,
    plan: Iterator[Tuple[object, bool]],
    op: Callable,
    check: Callable,
    seconds: float,
    limit_s: float,
    calibrated: bool = False,
) -> List[OpRecord]:
    """Run ops from ``plan`` until their summed time reaches ``seconds``.

    Each op's output is checked outside the timed section (in a forked
    child, see :func:`check_in_child`), then dropped and the garbage
    collected before the next op starts, so collector work does not grow
    with the op index.  ``calibrated`` runs each op under a
    :class:`perfbench.calibrate.Sampler`: the op's ``seconds`` leave out
    the kernel runs, its ``kernel_s`` is their mean, and its peak RSS is
    taken over that op alone.
    """
    records: List[OpRecord] = []
    measured = 0.0
    for item, traced in plan:
        if measured >= seconds:
            break
        if calibrated:
            reset_peak_rss()
            with Sampler() as sampler:
                output, record = run_op(probe, len(records), item, op, limit_s, traced)
            record.seconds -= sampler.spent
            record.peak_rss_mb = peak_rss_mb()
            record.kernel_s = sampler.kernel_s()
        else:
            output, record = run_op(probe, len(records), item, op, limit_s, traced)
        measured += record.seconds
        if record.ok:
            problem = check_in_child(check, item, output, limit_s)
            if problem is not None:
                record.ok, record.failure = False, CHECK
                record.failed_in, record.error = "check", problem
        records.append(record)
        del output
        gc.collect()
    return records


def all_correct(ops: List[dict]) -> bool:
    """Whether every op's output was correct (``ops`` as
    :meth:`OpRecord.as_dict`).

    A timed-out op is a failed op but not a wrong one: the watchdog cut it
    before it had an output.  An op that raised or failed its check was
    not correct.
    """
    return all(op["ok"] or op["failure"] == TIMEOUT for op in ops)


def scale(op: dict) -> float:
    """Factor that turns the op's time into seconds at the reference host
    speed (1 for an op that was not calibrated)."""
    return 1.0 if op.get("kernel_s") is None else REFERENCE_S / op["kernel_s"]


def summarize(ops: List[dict], limit_s: float) -> dict:
    """End-to-end figures of a window (``ops`` as :meth:`OpRecord.as_dict`),
    in seconds at the reference host speed (see :func:`scale`).

    Failed ops count against the attempted ones: they add no throughput,
    and a failed op is ranked at the watchdog limit (at least), the
    latest it could have been accepted, when taking latency percentiles.
    """
    failed = sum(1 for op in ops if not op["ok"])
    seconds = [op["seconds"] * scale(op) for op in ops]
    latencies = [
        value if op["ok"] else max(value, limit_s) for value, op in zip(seconds, ops)
    ]
    return {
        "attempted": len(ops),
        "failed": failed,
        "failed_share": failed / len(ops),
        "ops_per_s": (len(ops) - failed) / sum(seconds),
        "op_s.p50": statistics.median(latencies),
        "latencies": latencies,
    }
