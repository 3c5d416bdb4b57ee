"""The four workloads: set-up, timed phase, checks and metrics.

Why these four (see README.md for the layer map):

* ``serve_cold`` — every job runs the warm sharded engine; the engine,
  its wire and result encoding do the work, the cache none.
* ``serve_cached`` — open loop, ~90% cache hits; the cache, handler
  encoding and job tier do the work, the engine little.
* ``triangles`` — bypasses the BSP engine entirely (DAG, wedge index,
  per-call Pool closure scan).
* ``ingest`` — the graph generator, CSR builder and edge-list reader at
  scale 16, which the other workloads touch only inside set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.graph.builder import from_edge_array
from repro.graph.generators import RMATParameters, rmat_edges
from repro.graph.io import read_edge_list, write_edge_list

from benchstats import (
    CALIBRATIONS_PER_S,
    Calibrator,
    closed_loop_due,
    median,
    mean_of_kind_medians,
    rss_growth_mb_per_kjob,
    tail,
    timed,
    timed_cpu,
    tracing_overhead_pct,
)
from harness import Client, Outcome, Served, closed_loop, open_loop
from layers import (
    ALL_ALGS,
    ENGINE_ALGS,
    PHASES,
    Reference,
    engine_profiles,
    ingest_layers,
    require_ok,
    run_probe,
)

EDGE_FACTOR = 16
SERVE_SCALE = 14
INGEST_SCALE = 16
#: Set-ups per run; ``setup_s`` is their median.  The scale-16 ingest
#: set-up costs ~2 s, the serve set-ups well under 1 s.
SETUP_REPEATS = {"serve": 5, "ingest": 3}
#: Latency limit behind ``slo_ok_ratio``, per workload.  100 ms is the
#: interactive budget for cached reads; the others sit well above the
#: measured latencies so the ratio reads 1 until something regresses.
SLO_MS = {
    "serve_cold": 500.0,
    "serve_cached": 100.0,
    "triangles": 5000.0,
    "ingest": 20000.0,
}
#: Open-loop rate of ``serve_cached``.  Well below the hit capacity:
#: client and service share one interpreter lock, and at 30 req/s lock
#: convoys behind PageRank-hit encoding moved the p50 by 31% (IQR over
#: median) from run to run on a 2-core host, against 14% at 20 req/s.
CACHED_RATE = 20
SCRAPE_EVERY_S = 1.0
#: One cache-missing bfs write per this many ``serve_cached`` requests.
WRITE_EVERY = 10
#: Hot-set entries per algorithm.  PageRank hits (378 KB each, the
#: slowest to encode) are left out: with them the hit p50 sat in the
#: upper tail of the small-payload hits and moved ~20% more between
#: runs; PageRank's encoding cost is still measured by ``serve_cold``.
HOT_PER_ALG = {"cc": 1, "bfs": 4, "sssp": 4, "kcore": 4}
#: Cache slots beyond the hot set: writes start evicting after this many.
EVICTION_SLACK = 24
#: Distinct bfs/sssp sources in the ``serve_cold`` request pool.
POOL_SOURCES = 8
PAGERANK = {"num_supersteps": 10}
KCORE_KS = range(2, 9)


@dataclass
class Report:
    """Everything one run measured."""

    e2e: dict[str, float] = field(default_factory=dict)
    #: Printed but not gated: ``(value, unit)``.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counts_ok: bool = True


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1e6 if sys.platform == "darwin" else 1e3)


def current_rss_bytes() -> int:
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:  # no procfs: fall back to the high-water mark
        return int(peak_rss_mb() * 1e6)
    return pages * resource.getpagesize()


def _cpu_metrics(report: Report, samples, calibrator: Calibrator) -> None:
    """CPU per operation from ``(kind, own_cpu_s, cpu_s)`` samples (see
    :func:`mean_of_kind_medians`): as measured, split between this
    process (service, HTTP server and client threads) and its children
    (shard workers, triangle Pools), and normalised to the reference
    host speed (``norm_cpu_ms_per_op``)."""
    samples = list(samples)
    ms = mean_of_kind_medians((k, total * 1e3) for k, _, total in samples)
    own = mean_of_kind_medians((k, own * 1e3) for k, own, _ in samples)
    children = mean_of_kind_medians(
        (k, (total - own) * 1e3) for k, own, total in samples
    )
    report.e2e["norm_cpu_ms_per_op"] = calibrator.normalise(ms)
    report.extra["cpu_ms_per_op"] = (ms, "ms")
    report.extra["calibration_ms"] = (calibrator.ms(), "ms")
    report.layers["proc.cpu_ms_per_op"] = ms
    report.layers["proc.self_cpu_ms_per_op"] = own
    report.layers["proc.children_cpu_ms_per_op"] = children
    report.layers["loadgen.calibration_ms"] = calibrator.ms()


def _setup_metrics(report: Report, setups_s, calibrator: Calibrator) -> None:
    """``setup_s``: the median set-up's wall-clock time, normalised to
    the reference host speed like ``norm_cpu_ms_per_op`` (set-up is
    mostly CPU work: generate, build, start and warm the workers)."""
    wall = median(setups_s)
    report.e2e["setup_s"] = calibrator.normalise(wall)
    report.extra["setup_wall_s"] = (wall, "s")


def _latency_metrics(report: Report, latencies_s, slo_ms, attempted) -> None:
    """Client-side latency: printed on every run, recorded per layer
    (``loadgen.*``) by the traced run, gated only through the SLO."""
    ms = [x * 1e3 for x in latencies_s]
    value, pct, n = tail(ms)
    for name, v in (("latency_p50_ms", median(ms)),
                    ("latency_tail_ms", value)):
        report.extra[name] = (v, "ms")
        report.layers[f"loadgen.{name}"] = v
    report.extra["latency_tail_percentile"] = (pct, "pct")
    report.extra["latency_samples"] = (n, "count")
    report.e2e["slo_ok_ratio"] = sum(x <= slo_ms for x in ms) / attempted


def _throughput(report: Report, per_s: float) -> None:
    report.extra["throughput_jobs_per_s"] = (per_s, "1/s")
    report.layers["loadgen.throughput_jobs_per_s"] = per_s


def _ingest_rate(report: Report, pairs_per_s: float) -> None:
    medges = pairs_per_s / 1e6
    report.extra["ingest_medges_per_s"] = (medges, "Medges/s")
    report.layers["graph.ingest_medges_per_s"] = medges


def _finish(report: Report) -> None:
    report.e2e["peak_rss_mb"] = peak_rss_mb()
    report.extra["error_ratio"] = (report.failed / report.attempted, "ratio")


class Workload:
    """One workload run: the command-line arguments and output directory."""

    name = ""

    def __init__(self, args, out_dir: Path) -> None:
        self.seed = args.seed
        self.graph_seed = args.graph_seed
        self.seconds = args.seconds
        self.traced = args.trace
        self.out_dir = out_dir


def stratified(rng, kinds=ENGINE_ALGS):
    """``kinds`` forever, each once per block in a seeded order, so the
    mix proportions cannot drift between seeds."""
    while True:
        for i in rng.permutation(len(kinds)):
            yield kinds[i]


# -- serve workloads -------------------------------------------------------
class ServeWorkload(Workload):
    """Set-up, phase and metrics shared by the three serve workloads."""

    cache_capacity = 0

    # hooks --------------------------------------------------------------
    def plan(self, graph) -> None:
        """Draw this run's requests from the seed."""

    def references(self) -> list[tuple[str, dict]]:
        raise NotImplementedError

    def warm(self, client: Client) -> list[Outcome]:
        """First run of each engine program (not timed, not checked)."""
        return [client.job(k, self.warm_params[k]) for k in ENGINE_ALGS]

    def phase(self, served: Served, calibrator: Calibrator) -> list[Outcome]:
        raise NotImplementedError

    # run ----------------------------------------------------------------
    def setup_once(self) -> tuple[Served, object, np.ndarray, dict]:
        t0 = time.perf_counter()
        rmat = RMATParameters(scale=SERVE_SCALE, edge_factor=EDGE_FACTOR)
        edges, t_rmat = timed(rmat_edges, rmat, self.graph_seed)
        graph, t_build = timed(from_edge_array, edges, rmat.num_vertices)
        self.plan(graph)
        served = Served(
            graph, cache_capacity=self.cache_capacity, out_dir=self.out_dir
        )
        try:
            require_ok(self.warm(Client(served, None)))
        except BaseException:
            served.close()
            raise
        timings = {
            "setup_s": time.perf_counter() - t0,
            "rmat_s": t_rmat,
            "build_s": t_build,
            "construct_s": served.construct_s,
            "pairs": 2 * len(edges),
        }
        return served, graph, edges, timings

    def run(self) -> Report:
        report = Report()
        timings: dict[str, list[float]] = defaultdict(list)
        served = None
        try:
            for _ in range(SETUP_REPEATS["serve"]):
                previous = served
                served, graph, edges, t = self.setup_once()
                if previous is not None:
                    previous.close()
                for key, value in t.items():
                    timings[key].append(value)
            reference = Reference(
                graph, scale=SERVE_SCALE, edge_factor=EDGE_FACTOR,
                graph_seed=self.graph_seed,
            )
            reference.prepare(self.references())
            # Over all set-ups at once: one generate + build is ~0.3 s,
            # too short a window to time steadily on its own.
            _ingest_rate(
                report,
                sum(timings["pairs"])
                / (sum(timings["rmat_s"]) + sum(timings["build_s"])),
            )

            self.reference = reference
            service = served.service
            cache0 = service.cache.stats()
            rss0 = current_rss_bytes()
            calibrator = Calibrator()
            t0 = time.perf_counter()
            outcomes = self.phase(served, calibrator)
            elapsed = time.perf_counter() - t0
            rss1 = current_rss_bytes()
            cache1 = service.cache.stats()

            jobs = [o for o in outcomes if o.kind != "scrape"]
            report.attempted = len(outcomes)
            report.failed = sum(not o.ok for o in outcomes)
            _latency_metrics(
                report,
                [o.latency for o in jobs if o.ok],
                SLO_MS[self.name],
                len(jobs),
            )
            _throughput(report, sum(o.ok for o in jobs) / elapsed)
            _cpu_metrics(
                report,
                ((o.cpu_kind, o.own_cpu_s, o.cpu_s) for o in outcomes if o.ok),
                calibrator,
            )
            _setup_metrics(report, timings["setup_s"], calibrator)
            report.extra["rss_growth_mb_per_kjob"] = (
                rss_growth_mb_per_kjob(rss0, rss1, len(jobs)), "MB/kjob"
            )
            if self.traced:
                self.trace_layers(
                    report, served, graph, edges, reference, outcomes,
                    timings, cache0, cache1,
                )
        finally:
            if served is not None:
                served.close()
        _finish(report)
        return report

    def trace_layers(
        self, report, served, graph, edges, reference, outcomes, timings,
        cache0, cache1,
    ) -> None:
        layers = report.layers
        layers["graph.generators.rmat_edges_s"] = median(timings["rmat_s"])
        layers["graph.builder.from_edge_array_s"] = median(timings["build_s"])
        layers["service.app.construct_s"] = median(timings["construct_s"])
        weights = np.random.default_rng([self.seed, 4]).random(len(edges))
        layers.update(
            ingest_layers(
                edges, graph, weights, self.out_dir / f"edges-{self.name}.txt"
            )
        )
        service = served.service
        traced_jobs = [
            o for o in outcomes if o.traced and o.ok and o.kind != "scrape"
        ]
        phase_profiles = engine_profiles(
            service.telemetry, [o.job for o in traced_jobs]
        )
        scrapes = [
            o.service_time * 1e3
            for o in outcomes
            if o.kind == "scrape" and o.ok
        ]
        records = len(service.jobs.list_jobs())
        spans = len(service.telemetry.spans)
        hits = cache1["hits"] - cache0["hits"]
        lookups = hits + cache1["misses"] - cache0["misses"]
        layers["service.cache.hit_ratio"] = hits / lookups if lookups else 0.0
        layers["service.cache.evictions"] = (
            cache1["evictions"] - cache0["evictions"]
        )
        probe = run_probe(graph, reference, self.seed, self.out_dir)
        report.counts_ok = record_layers(
            report, probe, traced_jobs, phase_profiles, scrapes, records,
            spans, self.out_dir, self.graph_seed, self.seed,
        )
        layers["loadgen.late_tail_ms"] = tail(
            [o.lateness * 1e3 for o in outcomes]
        )[0]
        layers["tracing.overhead_pct"] = tracing_overhead_pct(
            (o.kind, o.traced, o.latency) for o in outcomes if o.ok
        )


class ServeCold(ServeWorkload):
    """Closed loop, one connection, cache off, engine algorithms only."""

    name = "serve_cold"
    cache_capacity = 0

    def plan(self, graph) -> None:
        rng = np.random.default_rng([self.seed, 1])
        sources = np.flatnonzero(graph.degrees() > 0)
        self.pool = {
            "cc": [{}],
            "bfs": [{"source": int(s)} for s in
                    rng.choice(sources, POOL_SOURCES, replace=False)],
            "sssp": [{"source": int(s)} for s in
                     rng.choice(sources, POOL_SOURCES, replace=False)],
            "pagerank": [dict(PAGERANK)],
            "kcore": [{"k": k} for k in KCORE_KS],
        }
        self.warm_params = {kind: p[0] for kind, p in self.pool.items()}

    def references(self):
        return [(k, p) for k, ps in self.pool.items() for p in ps]

    def requests(self):
        """A seeded uniform mix, stratified (see :func:`stratified`)."""
        rng = np.random.default_rng([self.seed, 2])
        for kind in stratified(rng):
            choices = self.pool[kind]
            yield kind, choices[int(rng.integers(len(choices)))]

    def phase(self, served, calibrator):
        return closed_loop(
            Client(served, self.reference), self.requests(), self.seconds,
            calibrator, alternate_trace=self.traced,
        )


class Triangles(ServeWorkload):
    """Closed loop, one connection, cache off, triangle jobs only."""

    name = "triangles"
    cache_capacity = 0

    def plan(self, graph) -> None:
        rng = np.random.default_rng([self.seed, 1])
        sources = np.flatnonzero(graph.degrees() > 0)
        self.warm_params = {
            "cc": {},
            "bfs": {"source": int(rng.choice(sources))},
            "sssp": {"source": int(rng.choice(sources))},
            "pagerank": dict(PAGERANK),
            "kcore": {"k": int(rng.choice(KCORE_KS))},
        }

    def references(self):
        return [("triangles", {})]

    def phase(self, served, calibrator):
        return closed_loop(
            Client(served, self.reference),
            itertools.repeat(("triangles", {})),
            self.seconds,
            calibrator,
            alternate_trace=self.traced,
        )


class ServeCached(ServeWorkload):
    """Open loop at ``CACHED_RATE``: hot-set hits, bfs writes, scrapes."""

    name = "serve_cached"

    def plan(self, graph) -> None:
        rng = np.random.default_rng([self.seed, 1])
        sources = np.flatnonzero(graph.degrees() > 0)
        picks = rng.permutation(sources)
        hot_bfs = picks[: HOT_PER_ALG["bfs"]]
        hot_sssp = rng.choice(sources, HOT_PER_ALG["sssp"], replace=False)
        self.hot = {
            "cc": [{}],
            "bfs": [{"source": int(s)} for s in hot_bfs],
            "sssp": [{"source": int(s)} for s in hot_sssp],
            "kcore": [{"k": int(k)} for k in rng.choice(
                list(KCORE_KS), HOT_PER_ALG["kcore"], replace=False)],
        }
        self.cache_capacity = (
            sum(len(v) for v in self.hot.values()) + EVICTION_SLACK
        )
        # Fresh bfs sources never repeat and never hit the hot set.
        n_requests = CACHED_RATE * self.seconds
        fresh = iter(picks[HOT_PER_ALG["bfs"]:])
        schedule = []
        order = np.random.default_rng([self.seed, 2])
        hits = stratified(
            np.random.default_rng([self.seed, 3]), tuple(HOT_PER_ALG)
        )
        for block in range(0, n_requests, WRITE_EVERY):
            write_at = block + int(order.integers(WRITE_EVERY))
            for i in range(block, min(block + WRITE_EVERY, n_requests)):
                if i == write_at:
                    kind, params = "bfs", {"source": int(next(fresh))}
                else:
                    kind = next(hits)
                    entries = self.hot[kind]
                    params = entries[int(order.integers(len(entries)))]
                schedule.append((i / CACHED_RATE, kind, params))
        # Scrapes fall half-way between two requests.  Calibration
        # samples (~25 ms) start a fifth of the way, after a cache hit
        # is done, and half a period away from the scrapes.  Events
        # seldom overlap, so a request's CPU reading is nearly its own.
        for j in range(int(self.seconds / SCRAPE_EVERY_S)):
            schedule.append(
                (j * SCRAPE_EVERY_S + 0.5 / CACHED_RATE, "scrape", {})
            )
        for j in range(self.seconds * CALIBRATIONS_PER_S):
            due = (j + 0.5) / CALIBRATIONS_PER_S + 0.2 / CACHED_RATE
            schedule.append((due, "calibrate", {}))
        schedule.sort(key=lambda event: event[0])
        self.schedule = schedule

    def references(self):
        hot = [(k, p) for k, ps in self.hot.items() for p in ps]
        writes = [(k, p) for _, k, p in self.schedule if k == "bfs"]
        return hot + writes

    def warm(self, client):
        """Prime the cache with the hot set (the set-up's warm-up)."""
        return [
            client.job(kind, params)
            for kind, entries in self.hot.items()
            for params in entries
        ]

    def phase(self, served, calibrator):
        return open_loop(
            [Client(served, self.reference) for _ in range(2)],
            self.schedule,
            calibrator,
            alternate_trace=self.traced,
        )


# -- traced-run layer metrics ----------------------------------------------
def record_layers(
    report, probe, phase_jobs, phase_profiles, phase_scrapes_ms,
    records, spans, out_dir, graph_seed, seed,
) -> bool:
    """Fill the per-layer metrics; return False on count drift."""
    layers = report.layers
    probe_ops = probe.outcomes + probe.scrapes
    report.attempted += len(probe_ops)
    report.failed += sum(not o.ok for o in probe_ops)
    layers["service.app.metrics_scrape_ms"] = median(
        phase_scrapes_ms
        or [o.service_time * 1e3 for o in probe.scrapes if o.ok]
    )
    jobs = [o for o in probe.outcomes if o.ok] + phase_jobs
    profiles = {**probe.profiles, **phase_profiles}
    for kind in ALL_ALGS:
        mine = [o for o in jobs if o.kind == kind]
        layers[f"service.jobs.run_ms.{kind}"] = median(
            o.job.run_seconds * 1e3 for o in mine
        )
        layers[f"service.handlers.response_kb.{kind}"] = median(
            o.response_bytes / 1024 for o in mine
        )
        if kind == "triangles":
            continue
        runs = [profiles[id(o.job)] for o in mine if id(o.job) in profiles]
        for phase in PHASES:
            layers[f"bsp.parallel.{phase}_ms.{kind}"] = median(
                p.phase_ns[phase] / 1e6 for p in runs
            )
        layers[f"bsp.parallel.pipe_mb.{kind}"] = median(
            p.pipe_bytes / 1e6 for p in runs
        )
        layers[f"service.runner.flatten_ms.{kind}"] = probe.flatten_ms[kind]
    busy = sum(p.busy_ns for p in profiles.values())
    wait = sum(p.wait_ns for p in profiles.values())
    layers["bsp.parallel.worker_busy_ratio"] = busy / (busy + wait)
    layers["bsp.parallel.skew_p50_ms"] = median(
        s / 1e6 for p in profiles.values() for s in p.skew_ns
    )
    layers["bsp.parallel.worker_peak_rss_mb"] = max(
        p.worker_peak_rss for p in profiles.values()
    ) / 1e6
    # Queue wait and handler overhead: the phase's own jobs when it has
    # any, else (ingest) the probe's.
    sample = phase_jobs or [o for o in probe.outcomes if o.ok]
    waits = [o.job.queue_wait_seconds * 1e3 for o in sample]
    overheads = [
        (o.service_time - o.job.queue_wait_seconds - o.job.run_seconds)
        * 1e3
        for o in sample
    ]
    layers["service.jobs.queue_wait_p50_ms"] = median(waits)
    layers["service.jobs.queue_wait_tail_ms"] = tail(waits)[0]
    layers["service.handlers.overhead_p50_ms"] = median(overheads)
    layers["service.handlers.overhead_tail_ms"] = tail(overheads)[0]
    layers["service.jobs.records_retained"] = records
    layers["telemetry.spans_per_job"] = spans / max(records, 1)
    layers.update(probe.library_ms)
    layers.update(probe.counts)
    return counts_repeat(probe.counts, out_dir, graph_seed, seed)


def counts_repeat(counts, out_dir: Path, graph_seed: int, seed: int) -> bool:
    """True when ``counts`` match an earlier run with the same seeds.

    The first run with a seed pair records its counts; every later one
    must reproduce them exactly.  Drift is a correctness bug.
    """
    path = out_dir / f"counts-g{graph_seed}-s{seed}.json"
    if path.exists():
        return json.loads(path.read_text(encoding="ascii")) == counts
    path.write_text(json.dumps(counts, sort_keys=True), encoding="ascii")
    return True


# -- ingest ----------------------------------------------------------------
class Ingest(Workload):
    """Library path at scale 16: generate, build (twice), read back."""

    name = "ingest"

    def __init__(self, args, out_dir: Path) -> None:
        super().__init__(args, out_dir)
        self.rmat = RMATParameters(scale=INGEST_SCALE, edge_factor=EDGE_FACTOR)
        self.path = out_dir / f"ingest-edges-s{args.seed}.txt"

    def setup_once(self):
        t0 = time.perf_counter()
        edges, t_rmat = timed(rmat_edges, self.rmat, self.graph_seed)
        graph, t_build = timed(
            from_edge_array, edges, self.rmat.num_vertices
        )
        write_edge_list(graph, self.path)
        return edges, graph, {
            "setup_s": time.perf_counter() - t0,
            "rmat_s": t_rmat,
            "build_s": t_build,
        }

    def run(self) -> Report:
        report = Report()
        try:
            return self._run(report)
        finally:
            self.path.unlink(missing_ok=True)

    def _run(self, report: Report) -> Report:
        setups = []
        for _ in range(SETUP_REPEATS["ingest"]):
            edges, graph, t = self.setup_once()
            setups.append(t)
        n = self.rmat.num_vertices
        weights = np.random.default_rng([self.seed, 4]).random(len(edges))
        want_edges = hashlib.sha256(edges.tobytes()).hexdigest()
        want = graph.fingerprint()
        want_weighted = from_edge_array(edges, n, weights=weights).fingerprint()
        lines = graph.num_edges
        del edges, graph

        steps = defaultdict(list)
        latencies, pairs, lateness, samples = [], 0, [], []
        start = time.perf_counter()
        previous_done = None
        i = 0
        cpu_samples = []
        calibrator = Calibrator()

        def step(key, fn, *args, **kwargs):
            """One library call: an operation of its own."""
            value, wall, cpu = timed_cpu(fn, *args, **kwargs)
            steps[key].append(wall)
            cpu_samples.append((key, cpu, cpu))
            calibrator.catch_up()
            return value, wall

        while time.perf_counter() - start < self.seconds:
            due = closed_loop_due(start, previous_done)
            lateness.append(max(0.0, time.perf_counter() - due))
            edges, t1 = step("rmat_s", rmat_edges, self.rmat, self.graph_seed)
            ok = [hashlib.sha256(edges.tobytes()).hexdigest() == want_edges]
            graph, t2 = step("build_s", from_edge_array, edges, n)
            ok.append(graph.fingerprint() == want)
            del graph
            graph, t3 = step(
                "weighted_s", from_edge_array, edges, n, weights=weights
            )
            ok.append(graph.fingerprint() == want_weighted)
            del graph
            graph, t4 = step("read_s", read_edge_list, self.path, n)
            ok.append(graph.fingerprint() == want)
            del graph
            report.attempted += len(ok)
            report.failed += len(ok) - sum(ok)
            latency = t1 + t2 + t3 + t4
            latencies.append(latency)
            samples.append(("mix", self.traced and i % 2 == 1, latency))
            pairs += 3 * len(edges) + lines
            del edges
            previous_done = time.perf_counter()
            i += 1

        _latency_metrics(
            report, latencies, SLO_MS[self.name], len(latencies)
        )
        _throughput(report, len(latencies) / sum(latencies))
        _cpu_metrics(report, cpu_samples, calibrator)
        _setup_metrics(report, [t["setup_s"] for t in setups], calibrator)
        _ingest_rate(report, pairs / sum(latencies))
        if self.traced:
            self.trace_layers(report, steps, lateness, samples)
        _finish(report)
        return report

    def trace_layers(self, report, steps, lateness, samples) -> None:
        """Ingest layers from the phase; service layers from the probe,
        on a scale-14 service built for it (ingest serves nothing)."""
        layers = report.layers
        layers["graph.generators.rmat_edges_s"] = median(steps["rmat_s"])
        layers["graph.builder.from_edge_array_s"] = median(steps["build_s"])
        layers["graph.builder.from_edge_array_weighted_s"] = median(
            steps["weighted_s"]
        )
        layers["graph.io.read_edge_list_s"] = median(steps["read_s"])
        rmat = RMATParameters(scale=SERVE_SCALE, edge_factor=EDGE_FACTOR)
        graph = from_edge_array(
            rmat_edges(rmat, self.graph_seed), rmat.num_vertices
        )
        reference = Reference(
            graph, scale=SERVE_SCALE, edge_factor=EDGE_FACTOR,
            graph_seed=self.graph_seed,
        )
        probe = run_probe(graph, reference, self.seed, self.out_dir)
        layers["service.app.construct_s"] = probe.construct_s
        layers["service.cache.hit_ratio"] = 0.0
        layers["service.cache.evictions"] = 0
        report.counts_ok = record_layers(
            report, probe, [], {}, [], probe.records_retained, probe.spans,
            self.out_dir, self.graph_seed, self.seed,
        )
        layers["loadgen.late_tail_ms"] = tail(
            [x * 1e3 for x in lateness]
        )[0]
        layers["tracing.overhead_pct"] = tracing_overhead_pct(samples)


WORKLOADS = {
    "serve_cold": ServeCold,
    "serve_cached": ServeCached,
    "triangles": Triangles,
    "ingest": Ingest,
}
