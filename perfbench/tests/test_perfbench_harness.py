"""The benchmark's own rules: op streams, self time, percentiles, failures."""

import signal
import statistics
import time
from itertools import islice

import pytest

from perfbench.calibrate import REFERENCE_S, Sampler
from perfbench.harness import (
    Probe,
    Span,
    layer_self_times,
    percentile,
    run_window,
    schedule,
    self_times,
    summarize,
    tail_percentile,
)
from perfbench.workloads import CLI_BUDGET, CLI_SEED, WORKLOADS, Figure2Warm


def _first(workload, n=12):
    return list(islice(workload.inputs(), n))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_stream_is_a_function_of_the_workload_seed(name, tmp_path):
    kind = WORKLOADS[name]
    first = _first(kind(11, tmp_path, Probe()))
    again = _first(kind(11, tmp_path / "elsewhere", Probe()))
    assert first == again
    if name != "snapshot_section3":  # its stream is the pool's cycle
        assert _first(kind(12, tmp_path, Probe())) != first


def test_paper_cold_starts_on_the_cli_seed_and_never_repeats(tmp_path):
    seeds = _first(WORKLOADS["paper_cold"](CLI_SEED, tmp_path, Probe()), 50)
    assert seeds[0] == CLI_SEED
    assert len(set(seeds)) == len(seeds)


def test_figure2_budgets_are_new_and_near_the_cli_default(tmp_path):
    budgets = list(Figure2Warm(CLI_SEED, tmp_path, Probe()).inputs())
    assert len(budgets) >= 40
    assert len(set(budgets)) == len(budgets)
    assert CLI_BUDGET not in budgets
    default_work = (CLI_BUDGET[0] + 1) * CLI_BUDGET[1]
    for top, max_sources in budgets:
        assert abs(top - CLI_BUDGET[0]) <= 4
        assert abs((top + 1) * max_sources - default_work) / default_work < 0.08


def test_snapshot_ops_cycle_through_a_pool_fixed_by_the_seed(tmp_path):
    workload = WORKLOADS["snapshot_section3"](5, tmp_path, Probe())
    reps = workload.setup_reps
    assert _first(workload, 2 * reps) == list(range(reps)) * 2
    again = WORKLOADS["snapshot_section3"](5, tmp_path, Probe())
    assert workload.pool_seeds() == again.pool_seeds()
    assert workload.pool_seeds()[0] == 5
    assert len(set(workload.pool_seeds())) == reps


def _span(span_id, parent, name, start, end, op=0):
    return Span(span_id=span_id, parent_id=parent, op_id=op, name=name, start=start, end=end)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        _span(0, None, "op", 0.0, 10.0),
        _span(1, 0, "stage", 1.0, 6.0),
        _span(2, 1, "cache", 2.0, 3.0),
        _span(3, 1, "cache", 4.0, 4.5),
        _span(4, 0, "stage", 7.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 3.5, 2: 1.0, 3: 0.5, 4: 2.0})
    assert layer_self_times(spans) == pytest.approx({"op": 3.0, "stage": 5.5, "cache": 1.5})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "op", 0.0, 4.0),
        _span(1, 0, "a", 0.5, 2.0),
        _span(2, 0, "b", 1.5, 3.0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_probe_records_nested_spans_and_where_an_op_failed():
    probe = Probe(traced=True)
    probe.begin_op(3, traced=True)

    def inner():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        probe.call("op", lambda: probe.call("stage", inner))
    assert [(s.name, s.parent_id, s.op_id) for s in probe.spans] == [
        ("op", None, 3),
        ("stage", 0, 3),
    ]
    assert all(s.end >= s.start for s in probe.spans)
    assert probe.failed_in == "op/stage"
    assert probe.stack == []


def test_untraced_probe_records_nothing():
    probe = Probe()
    probe.begin_op(0, traced=False)
    assert probe.call("op", lambda x: x + 1, 1) == 2
    probe.count("bgp.events", 5)
    assert probe.spans == [] and not probe.counts


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 80) == 4.0
    assert percentile(values, 100) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(0, None), (10, None), (39, None), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_the_highest_percentile_with_ten_ops_beyond(count, expected):
    tail = tail_percentile([float(i) for i in range(count)])
    if expected is None:
        assert tail is None
    else:
        pct, value, n_beyond = tail
        assert pct == expected and n_beyond >= 10
        assert sum(1 for i in range(count) if i > value) == n_beyond


def test_failed_ops_count_against_the_attempted_ones():
    ops = [
        {"seconds": 1.0, "ok": True, "failure": None},
        {"seconds": 3.0, "ok": True, "failure": None},
        {"seconds": 0.5, "ok": False, "failure": "raised"},
        {"seconds": 2.0, "ok": True, "failure": None},
    ]
    summary = summarize(ops, limit_s=10.0)
    assert summary["attempted"] == 4 and summary["failed"] == 1
    assert summary["failed_share"] == 0.25
    assert summary["ops_per_s"] == pytest.approx(3 / 6.5)
    # The failed op ranks at the limit: the median moves up.
    assert summary["op_s.p50"] == pytest.approx(2.5)


def _busy(seconds):
    started = time.process_time()
    while time.process_time() - started < seconds:
        pass


def test_the_sampler_runs_the_kernel_while_the_process_computes():
    previous = signal.getsignal(signal.SIGPROF)
    with Sampler() as sampler:
        _busy(0.5)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(sampler.runs) >= 5
    assert sampler.spent == pytest.approx(sum(sampler.runs))
    assert sampler.kernel_s() == pytest.approx(statistics.fmean(sampler.runs))


def _busy_wall(seconds):
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        pass


def test_a_calibrated_op_leaves_the_kernel_runs_out_of_its_time():
    plan = schedule(iter([0.3, 0.01]), trace=False, repeatable=True)
    long_op, short_op = run_window(
        Probe(), plan, _busy_wall, lambda item, output: None, float("inf"), 30.0,
        calibrated=True,
    )
    # The op took 0.3 s of wall time, kernel runs included.
    assert 0.2 < long_op.seconds < 0.3
    assert long_op.kernel_s > 0 and short_op.kernel_s > 0
    assert long_op.peak_rss_mb > 0 and short_op.peak_rss_mb > 0


def test_times_are_scaled_to_the_reference_host_speed():
    ops = [
        {"seconds": 2.0, "ok": True, "failure": None, "kernel_s": 2 * REFERENCE_S},
        {"seconds": 3.0, "ok": True, "failure": None, "kernel_s": 3 * REFERENCE_S},
    ]
    summary = summarize(ops, limit_s=10.0)
    assert summary["op_s.p50"] == pytest.approx(1.0)
    assert summary["ops_per_s"] == pytest.approx(1.0)
