"""Unit tests of the benchmark's statistics helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

import pytest

from benchstats import (
    CALIBRATIONS_PER_S,
    REFERENCE_CALIBRATION_MS,
    Calibrator,
    closed_loop_due,
    covered_ns,
    mean_of_kind_medians,
    open_loop_times,
    percentile,
    rss_growth_mb_per_kjob,
    process_cpu_s,
    samples_beyond,
    self_time_ns,
    tail,
    tracing_overhead_pct,
    tree_cpu_s,
)


class TestTailRule:
    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    def test_samples_beyond(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(100, 95) == 5
        assert samples_beyond(1000, 99) == 10

    def test_p99_needs_ten_samples_beyond(self):
        assert tail(list(range(1, 1001)))[1:] == (99.0, 1000)
        # 999 samples: p99 has only 9 beyond, p95 qualifies.
        value, pct, n = tail(list(range(1, 1000)))
        assert (pct, n) == (95.0, 999)
        assert value == 950

    def test_p90_at_exactly_ten_beyond(self):
        value, pct, n = tail(list(range(1, 101)))
        assert (value, pct, n) == (90, 90.0, 100)

    def test_short_run_falls_back_to_p75_then_median(self):
        # 99 samples: p90 leaves 9 beyond; p75 leaves 24.
        values = [float(v) for v in range(1, 100)]
        assert tail(values) == (75.0, 75.0, 99)
        # 30 samples: p75 leaves 7 beyond, the median 15.
        assert tail(list(range(1, 31)))[1:] == (50.0, 30)
        assert tail(list(range(1, 41)))[1:] == (75.0, 40)

    def test_tiny_run_reports_median(self):
        assert tail([3.0, 1.0, 2.0, 9.0]) == (2.0, 50.0, 4)
        assert tail([5.0])[0] == 5.0
        assert tail([1.0] * 8 + [100.0]) == (1.0, 50.0, 9)

    def test_tail_ignores_input_order(self):
        values = [5, 1, 9, 3] * 50
        assert tail(values) == tail(sorted(values))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            tail([])


class TestLateness:
    def test_on_time_open_loop_request(self):
        latency, late = open_loop_times(due=10.0, sent=10.0, done=10.02)
        assert latency == pytest.approx(0.02)
        assert late == 0.0

    def test_stall_is_charged_from_the_schedule(self):
        # Due at t=1 but the generator could only send at t=1.5: the
        # 0.5 s wait counts in latency and shows as lateness.
        latency, late = open_loop_times(due=1.0, sent=1.5, done=1.6)
        assert latency == pytest.approx(0.6)
        assert late == pytest.approx(0.5)

    def test_early_send_is_not_negative_lateness(self):
        assert open_loop_times(due=2.0, sent=1.999, done=2.1)[1] == 0.0

    def test_closed_loop_due(self):
        assert closed_loop_due(5.0, None) == 5.0
        assert closed_loop_due(5.0, 7.25) == 7.25


class TestSelfTime:
    def test_no_children(self):
        assert self_time_ns((100, 200), []) == 100

    def test_disjoint_children(self):
        assert self_time_ns((0, 100), [(10, 20), (50, 70)]) == 70

    def test_overlapping_children_count_once(self):
        assert covered_ns((0, 100), [(10, 40), (30, 60), (55, 58)]) == 50
        assert self_time_ns((0, 100), [(10, 40), (30, 60)]) == 50

    def test_nested_children_count_once(self):
        assert self_time_ns((0, 100), [(10, 90), (20, 30)]) == 20

    def test_children_clipped_to_parent(self):
        assert self_time_ns((100, 200), [(50, 150), (190, 400)]) == 40
        assert self_time_ns((100, 200), [(0, 50), (250, 300)]) == 100

    def test_fully_covered(self):
        assert self_time_ns((0, 10), [(0, 10)]) == 0


class TestRssGrowth:
    def test_per_thousand_jobs(self):
        # 20 MB over 60 jobs is 333 MB per 1,000 jobs.
        growth = rss_growth_mb_per_kjob(100_000_000, 120_000_000, 60)
        assert growth == pytest.approx(20.0 * 1000 / 60)

    def test_shrinking_is_negative(self):
        assert rss_growth_mb_per_kjob(2_000_000, 1_000_000, 1000) == -1.0

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            rss_growth_mb_per_kjob(0, 1, 0)


class TestTracingOverhead:
    def test_compared_within_kinds(self):
        # Traced requests are 10% slower in both kinds; the 10x gap
        # between kinds must not leak into the figure.
        samples = [
            ("fast", False, 1.0), ("fast", True, 1.1),
            ("slow", False, 10.0), ("slow", True, 11.0),
            ("slow", False, 10.0),
        ]
        assert tracing_overhead_pct(samples) == pytest.approx(10.0)

    def test_kinds_seen_on_one_side_are_skipped(self):
        samples = [("a", False, 2.0), ("a", True, 2.0), ("b", True, 9.0)]
        assert tracing_overhead_pct(samples) == 0.0

    def test_no_pairs(self):
        assert tracing_overhead_pct([]) == 0.0
        assert not math.isnan(tracing_overhead_pct([("a", True, 1.0)]))


class TestKindMedians:
    def test_each_sample_counts_as_its_kinds_median(self):
        samples = [("a", 1.0), ("a", 2.0), ("a", 30.0), ("b", 10.0)]
        # a's median 2 stands for its three samples, b's 10 for one.
        assert mean_of_kind_medians(samples) == pytest.approx(16.0 / 4)

    def test_outlier_moves_only_its_kind(self):
        base = [("a", 1.0)] * 5 + [("b", 10.0)] * 5
        spiked = base[:4] + [("a", 500.0)] + base[5:]
        assert mean_of_kind_medians(spiked) == mean_of_kind_medians(base)

    def test_mix_proportions_are_kept(self):
        samples = [("hit", 1.0)] * 9 + [("miss", 11.0)]
        assert mean_of_kind_medians(samples) == pytest.approx(2.0)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            mean_of_kind_medians([])


class TestCpuClocks:
    def test_own_process_clock_matches_process_time(self):
        before = time.process_time()
        mine = process_cpu_s(os.getpid())
        assert before <= mine <= time.process_time()

    def test_exited_process_reads_zero(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        assert process_cpu_s(child.pid) == 0.0

    def test_tree_counts_live_and_reaped_children(self):
        own0, total0 = tree_cpu_s()
        spin = "import time\nt = time.process_time()\n" \
               "while time.process_time() - t < 0.2: pass\n" \
               "import sys; sys.stdin.read()"
        child = subprocess.Popen([sys.executable, "-c", spin],
                                 stdin=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while process_cpu_s(child.pid) < 0.2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            own1, live = tree_cpu_s()
        finally:
            child.communicate(b"")
        own2, reaped = tree_cpu_s()
        assert live - total0 >= 0.2 + (own1 - own0)
        # Reaped: its CPU moved into RUSAGE_CHILDREN (microseconds).
        assert reaped - live >= own2 - own1 - 1e-3


class TestCalibrator:
    def test_normalise_rescales_to_the_reference_speed(self):
        cal = Calibrator()
        cal.samples = [0.002, 0.008, 0.008]  # median 8 ms
        assert cal.ms() == pytest.approx(8.0)
        assert cal.normalise(100.0) == pytest.approx(
            100.0 * REFERENCE_CALIBRATION_MS / 8.0
        )

    def test_catch_up_runs_only_the_samples_due(self):
        cal = Calibrator()
        # Three samples are due; the next one is in the future.
        cal._due = time.monotonic() - 2.4 / CALIBRATIONS_PER_S
        cal.catch_up()
        assert len(cal.samples) == 3
        assert all(s > 0 for s in cal.samples)
