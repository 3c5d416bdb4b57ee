"""Statistics and timing helpers of the benchmark (no repro imports).

Kept apart from the workload code so ``test_benchstats.py`` can check
the rules every reported number depends on: the tail-percentile rule,
open- and closed-loop lateness accounting, span self time, the
RSS-growth normalisation, CPU clocks of a process tree, and the
calibration that rescales CPU time to a reference host speed.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

#: Tail candidates, highest first.  A percentile qualifies only when at
#: least ``MIN_BEYOND`` samples lie beyond it (half the samples, in runs
#: of fewer than ``2 * MIN_BEYOND``).
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
#: Median CPU time of one :class:`Calibrator` kernel on the reference
#: host (a 2-vCPU KVM guest, Xeon, Python 3.11, NumPy 2.4) when it is
#: quiet.  Normalised CPU times read as milliseconds on that host.
REFERENCE_CALIBRATION_MS = 12.0
#: Calibration samples per second of a run.
CALIBRATIONS_PER_S = 2


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p``-th percentile's rank."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the reported tail.

    The tail is the highest of p99/p95/p90 with at least ``MIN_BEYOND``
    samples beyond it.  Runs too short for p90 (under 100 samples) fall
    back to p75 and then to the median; runs of fewer than
    ``2 * MIN_BEYOND`` samples need only half of them beyond, which the
    median always has.  The percentile printed beside the value says
    which rule applied.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    need = min(MIN_BEYOND, n // 2)
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= need:
            return percentile(values, p), p, n
    raise AssertionError("the median always has half the samples beyond")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds it took)``."""
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def timed_cpu(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds, this process's CPU seconds)``."""
    c0 = time.process_time()
    value, wall = timed(fn, *args, **kwargs)
    return value, wall, time.process_time() - c0


def open_loop_times(
    due: float, sent: float, done: float
) -> tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request, in seconds.

    Latency runs from the scheduled send time, so a stall that delays
    later sends is charged to them; lateness is how far the generator
    itself fell behind its schedule.
    """
    return done - due, max(0.0, sent - due)


def closed_loop_due(start: float, previous_done: float | None) -> float:
    """When a closed-loop client's next request falls due.

    The first request is due at the phase start; each later one the
    moment the previous reply arrived.  Send time minus this is the
    client's own lateness (its bookkeeping between requests).
    """
    return start if previous_done is None else previous_done


def covered_ns(
    parent: tuple[int, int], children: Iterable[tuple[int, int]]
) -> int:
    """Length of ``parent`` covered by the union of ``children``."""
    lo, hi = parent
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in children if e > lo and s < hi
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time_ns(
    parent: tuple[int, int], children: Iterable[tuple[int, int]]
) -> int:
    """Span duration minus the part of it its child spans cover."""
    return (parent[1] - parent[0]) - covered_ns(parent, children)


def rss_growth_mb_per_kjob(
    rss_start_bytes: int, rss_end_bytes: int, jobs: int
) -> float:
    """Resident-set growth over a phase, in MB per 1,000 jobs."""
    if jobs <= 0:
        raise ValueError("RSS growth needs at least one job")
    return (rss_end_bytes - rss_start_bytes) / 1e6 * 1000.0 / jobs


def child_pids() -> list[int]:
    """Live children of this process (the service's shard workers, a
    triangle job's Pool while it runs)."""
    tasks = Path("/proc/self/task")
    if not (tasks / str(threading.get_native_id()) / "children").exists():
        # No procfs children lists.
        return [p.pid for p in multiprocessing.active_children()]
    pids: list[int] = []
    for task in tasks.iterdir():
        try:
            pids += map(int, (task / "children").read_text().split())
        except OSError:  # the thread exited since it was listed
            pass
    return pids


def process_cpu_s(pid: int) -> float:
    """CPU seconds used so far by every thread of a live process, dead
    threads included, to the nanosecond: the process's CPU-time clock
    (Linux's ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)`` clock id).
    0 once the process has exited."""
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:  # exited since it was listed
        return 0.0


def tree_cpu_s() -> tuple[float, float]:
    """``(own, total)`` CPU seconds used so far: this process's, and
    this process's plus all its children's.

    Live children are read from procfs, reaped ones (every per-call
    triangle Pool) from ``RUSAGE_CHILDREN``.  On kernels that account
    steal time (paravirtual clocks, as on KVM guests) CPU time leaves
    out the time the host runs other guests on this VM's vCPUs, and
    every clock leaves out time spent waiting for a CPU; wall-clock
    latency includes both.
    """
    own = time.process_time()
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own + reaped.ru_utime + reaped.ru_stime
    total += sum(process_cpu_s(pid) for pid in child_pids())
    return own, total


def mean_of_kind_medians(samples: Iterable[tuple[str, float]]) -> float:
    """Mean over all samples, each sample replaced by its kind's median.

    That is ``Σ n_k · median_k / Σ n_k``.  For a mix of kinds that cost
    10x apart, the plain median lands wherever the kinds overlap and the
    plain mean follows every outlier; this follows the mix and each
    kind's typical cost, so a slow spell or a pause moves only what it
    hits.
    """
    by_kind: dict[str, list[float]] = defaultdict(list)
    for kind, value in samples:
        by_kind[kind].append(value)
    if not by_kind:
        raise ValueError("no samples")
    total = sum(len(v) * median(v) for v in by_kind.values())
    return total / sum(len(v) for v in by_kind.values())


def tracing_overhead_pct(
    samples: Iterable[tuple[str, bool, float]]
) -> float:
    """Traced-vs-untraced latency difference, in percent.

    ``samples`` are ``(kind, traced, latency)``.  Medians are compared
    within each request kind, so a mix whose kinds differ by 10x in
    latency cannot move the result by landing the two medians in
    different kinds; the per-kind ratios are averaged geometrically.
    Kinds seen on only one side are skipped; with none on both, 0.
    """
    by_kind: dict[tuple[str, bool], list[float]] = defaultdict(list)
    for kind, traced, latency in samples:
        by_kind[(kind, bool(traced))].append(latency)
    logs = []
    for kind in {k for k, _ in by_kind}:
        on, off = by_kind.get((kind, True)), by_kind.get((kind, False))
        if on and off:
            logs.append(math.log(median(on) / median(off)))
    if not logs:
        return 0.0
    return (math.exp(sum(logs) / len(logs)) - 1.0) * 100.0


class Calibrator:
    """Times a fixed kernel, interleaved with a workload's operations,
    to rescale the workload's CPU times to a reference host speed.

    Shared hosts change speed by 10-30% over minutes as their
    neighbours come and go, and CPU time moves with them.  The kernel
    runs none of this repository's code, so a change to the repository
    cannot change its time but a change in host speed does.  It has
    two halves, because the host's speed changes do not hit all code
    alike: a cache-resident half (a NumPy sort of 1 MB, JSON encoding,
    an interpreted loop, pipe system calls: the service's kinds of
    work), which gains the most when the host is quiet, and a
    memory-bound half (random gathers from and a pass over 8 MB, a
    2 MB sort: the graph builders' kind), which gains the least.  Its
    thread CPU time leaves out time spent waiting for the interpreter
    lock or a CPU.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.random(1 << 17)
        self._ints = list(range(10_000))
        self._payload = b"x" * 32_768
        self._big = rng.random(1 << 20)
        self._out = np.empty_like(self._big)
        self._gather = rng.integers(0, len(self._big), 1 << 18)
        self.samples: list[float] = []
        self._due = time.monotonic()

    def _cache_resident(self) -> None:
        np.sort(self._small)
        json.dumps(self._ints)
        x = 0
        for i in range(15_000):
            x += i
        r, w = os.pipe()
        try:
            for _ in range(4):
                os.write(w, self._payload)
                os.read(r, len(self._payload))
        finally:
            os.close(r)
            os.close(w)

    def _memory_bound(self) -> None:
        self._big[self._gather].sum()
        np.add(self._big, 1.0, out=self._out)
        np.sort(self._big[: 1 << 18])

    def sample(self) -> None:
        """Record one warm run of the kernel.

        The first run refills the caches the workload evicted, by an
        amount that depends on the workload; only the second is timed.
        """
        self._cache_resident()
        self._memory_bound()
        t0 = time.thread_time()
        self._cache_resident()
        self._memory_bound()
        self.samples.append(time.thread_time() - t0)

    def catch_up(self) -> None:
        """Run the samples that fell due since the last call, at
        ``CALIBRATIONS_PER_S``; call it between operations."""
        now = time.monotonic()
        while self._due <= now:
            self.sample()
            self._due += 1.0 / CALIBRATIONS_PER_S

    def ms(self) -> float:
        """Median kernel CPU time, in milliseconds."""
        if not self.samples:
            self.sample()
        return median(self.samples) * 1e3

    def normalise(self, duration: float) -> float:
        """``duration`` (any unit) as it would read on the reference
        host."""
        return duration * REFERENCE_CALIBRATION_MS / self.ms()
