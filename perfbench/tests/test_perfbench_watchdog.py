"""The per-op watchdog and the failure path, on a tiny dataset."""

import time

import pytest

from perfbench.harness import (
    CHECK,
    RAISED,
    TIMEOUT,
    Probe,
    all_correct,
    run_window,
    schedule,
    summarize,
)
from perfbench.workloads import PaperCold


class TinyCold(PaperCold):
    """``paper_cold`` on the small test dataset."""

    def dataset(self, seed):
        from repro.datasets import small_config

        return small_config(seed)


@pytest.fixture()
def stalled_once(tmp_path):
    """A tiny cold workload whose first IPv6 propagation stalls."""
    from repro.faults.hooks import intercept_stage

    stalls = [30.0]

    def stall():
        if stalls:
            time.sleep(stalls.pop())

    probe = Probe()
    stages = intercept_stage("propagation_v6", stall)
    return TinyCold(3, tmp_path, probe, stages=stages), probe


def test_a_stalled_op_fails_in_its_stage_and_the_run_goes_on(stalled_once):
    workload, probe = stalled_once
    plan = schedule(iter([3, 4]), trace=False, repeatable=True)
    started = time.monotonic()
    records = run_window(probe, plan, workload.op, workload.check, float("inf"), 2.0)
    assert time.monotonic() - started < 25
    stalled, healthy = records
    assert not stalled.ok
    assert stalled.failure == TIMEOUT
    assert stalled.failed_in == "op/bgp.propagate_v6"
    assert "exceeded its 2 s limit" in stalled.error
    assert 2.0 <= stalled.seconds < 5.0
    assert healthy.ok, healthy.error
    summary = summarize([r.as_dict() for r in records], limit_s=2.0)
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["failed_share"] == 0.5
    assert summary["ops_per_s"] == pytest.approx(1 / (stalled.seconds + healthy.seconds))
    # A timeout is a failed op, not a wrong output.
    assert all_correct([r.as_dict() for r in records])


def test_a_failed_or_raising_check_fails_its_op(tmp_path):
    probe = Probe()
    workload = TinyCold(3, tmp_path, probe)

    def check(item, output):
        if item == 4:
            raise RuntimeError("check blew up")
        return "report differs"

    plan = schedule(iter([3, 4]), trace=False, repeatable=True)
    first, second = run_window(probe, plan, workload.op, check, float("inf"), 30.0)
    assert (first.ok, first.failed_in, first.error) == (False, "check", "report differs")
    assert (second.ok, second.failed_in) == (False, "check")
    assert "RuntimeError: check blew up" in second.error
    assert first.failure == second.failure == CHECK
    assert not all_correct([first.as_dict(), second.as_dict()])


def test_an_op_that_raises_fails_and_is_not_correct(tmp_path):
    from repro.faults.hooks import intercept_stage

    def crash():
        raise RuntimeError("report blew up")

    probe = Probe()
    workload = TinyCold(3, tmp_path, probe, stages=intercept_stage("section3", crash))
    plan = schedule(iter([3]), trace=False, repeatable=True)
    (record,) = run_window(probe, plan, workload.op, workload.check, float("inf"), 30.0)
    assert (record.ok, record.failure) == (False, RAISED)
    assert record.failed_in == "op/analysis.report"
    assert "RuntimeError: report blew up" in record.error
    assert not all_correct([record.as_dict()])


def test_tiny_cold_ops_pass_their_reference_check(tmp_path):
    probe = Probe()
    workload = TinyCold(3, tmp_path, probe)
    plan = schedule(iter([3]), trace=True, repeatable=True)
    records = run_window(probe, plan, workload.op, workload.check, float("inf"), 30.0)
    assert [r.ok for r in records] == [True, True]
    assert [r.traced for r in records] == [True, False]
    names = {span.name for span in probe.spans}
    assert {"op", "bgp.propagate_v4", "bgp.propagate_v6", "analysis.report"} <= names
    assert probe.counts[(0, "bgp.events")] > 0
