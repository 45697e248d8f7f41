"""Unit tests for execution-trace analysis (the Figure 10 timeline)."""

import pytest

from repro.runtime.events import Span
from repro.runtime.trace import io_rate_timeline


def execution(machine, start, end, read=0.0, write=0.0, succeeded=True,
              name="t", planned=0.0):
    """One machine-level span, as the scheduler emits per execution."""
    return Span(name=name, kind="transfer", start=start, end=end,
                machine=machine, succeeded=succeeded, disk_read_bytes=read,
                disk_write_bytes=write, planned_duration=planned)


class TestIoRateTimeline:
    def test_uniform_rate(self):
        execs = [execution(0, 0.0, 10.0, read=100.0)]
        times, rates = io_rate_timeline(execs, bucket_seconds=5.0)
        assert list(times) == [0.0, 5.0]
        assert rates[0] == pytest.approx(10.0)
        assert rates[1] == pytest.approx(10.0)

    def test_total_bytes_conserved(self):
        execs = [execution(0, 1.0, 7.0, read=60.0, write=30.0),
                 execution(1, 3.0, 9.0, read=45.0)]
        times, rates = io_rate_timeline(execs, bucket_seconds=2.0)
        assert (rates * 2.0).sum() == pytest.approx(135.0)

    def test_machine_filter(self):
        execs = [execution(0, 0.0, 4.0, read=40.0),
                 execution(1, 0.0, 4.0, read=80.0)]
        __, rates0 = io_rate_timeline(execs, 4.0, machine=0)
        assert rates0[0] == pytest.approx(10.0)

    def test_empty(self):
        times, rates = io_rate_timeline([], 5.0)
        assert times.size == 0 and rates.size == 0

    def test_zero_duration_task_bytes_in_one_bucket(self):
        execs = [execution(0, 3.0, 3.0, read=50.0)]
        times, rates = io_rate_timeline(execs, bucket_seconds=2.0)
        assert (rates * 2.0).sum() == pytest.approx(50.0)

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            io_rate_timeline([], 0.0)


class TestFailedTaskProration:
    """A killed task's bytes must prorate over the window it ran."""

    def test_failed_task_prorates_with_recorded_plan(self):
        # dispatched for 10s of 100 bytes, killed after 5s: 50 bytes land
        execs = [execution(0, 0.0, 5.0, read=100.0, succeeded=False,
                           planned=10.0)]
        __, rates = io_rate_timeline(execs, bucket_seconds=5.0)
        assert (rates * 5.0).sum() == pytest.approx(50.0)

    def test_hand_built_execution_falls_back_to_duration(self):
        # no recorded plan (planned_duration=0): no proration possible,
        # the full bytes spread over the observed window
        execs = [execution(0, 0.0, 5.0, read=100.0, succeeded=False)]
        __, rates = io_rate_timeline(execs, bucket_seconds=5.0)
        assert (rates * 5.0).sum() == pytest.approx(100.0)

    def test_succeeded_task_never_prorates(self):
        # a successful pipelined task can have duration != planned;
        # its bytes all moved regardless
        execs = [execution(0, 0.0, 5.0, read=100.0, planned=8.0)]
        __, rates = io_rate_timeline(execs, bucket_seconds=5.0)
        assert (rates * 5.0).sum() == pytest.approx(100.0)

    def test_span_view_prorates_identically(self):
        span = Span(name="t", kind="transfer", start=0.0, end=5.0,
                    machine=0, succeeded=False, disk_read_bytes=100.0,
                    planned_duration=10.0)
        __, rates = io_rate_timeline([span], bucket_seconds=5.0)
        assert (rates * 5.0).sum() == pytest.approx(50.0)
