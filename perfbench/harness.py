"""The service under test and the clients that load it.

:class:`Served` boots the shipped :class:`GraphAnalyticsService` in this
process behind a real loopback HTTP server.  :class:`Client` posts a
job, waits on the public ``JobManager.wait`` (no polling traffic), then
fetches ``/jobs/<id>/result`` and checks the result, reading the CPU
time of the whole process tree around each request.  Each HTTP call
opens its own connection, as the repository's own clients (urllib in
``tools/service_smoke.py`` and ``repro top``) do.  The two loops drive
clients closed (one request in flight per client) or open (a fixed
schedule, late sends charged to the request).
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.service.app import GraphAnalyticsService, build_server
from repro.service.jobs import Job
from repro.telemetry.flightrec import FlightRecorder

from benchstats import (
    Calibrator,
    closed_loop_due,
    open_loop_times,
    tree_cpu_s,
)

#: Shard workers of the warm engine (the host has two cores).
NUM_WORKERS = 2
#: Upper bound on one job; far above any workload's latency.
JOB_TIMEOUT_S = 120.0


class Served:
    """One service plus its HTTP server, closed as a unit."""

    def __init__(self, graph, *, cache_capacity: int, out_dir: Path) -> None:
        recorder = FlightRecorder(
            postmortem_dir=out_dir / "postmortem",
            beacon_dir=out_dir / "flightrec",
        )
        t0 = time.monotonic()
        self.service = GraphAnalyticsService(
            graph,
            num_workers=NUM_WORKERS,
            cache_capacity=cache_capacity,
            flight_recorder=recorder,
        )
        self.construct_s = time.monotonic() - t0
        try:
            self.server = build_server(self.service, port=0)
        except OSError:
            self.service.close()
            raise
        self.port = self.server.server_address[1]
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="perfbench-http",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=30)
        self.service.close()

    def __enter__(self) -> "Served":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Outcome:
    """One request as the client saw it (times from ``time.monotonic``,
    the clock of the job records' stamps)."""

    kind: str
    params: dict
    due: float
    sent: float
    done: float
    open_loop: bool
    traced: bool
    error: str | None = None
    job: Job | None = None
    response_bytes: int = 0
    #: Time ``JobManager.wait`` slept past the job's finish (it polls
    #: every 5 ms): the in-process helper's, not the service's.
    poll_slack: float = 0.0
    #: CPU seconds used from send to reply by this process (service,
    #: HTTP server and clients) and by it plus its children.
    own_cpu_s: float = 0.0
    cpu_s: float = 0.0
    _cpu0: tuple[float, float] = field(default=(0.0, 0.0), repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def service_time(self) -> float:
        """Submit to result body received, without the poll slack."""
        return self.done - self.sent - self.poll_slack

    @property
    def latency(self) -> float:
        """Open loop: from the scheduled time; closed loop: from submit."""
        if self.open_loop:
            latency = open_loop_times(self.due, self.sent, self.done)[0]
        else:
            latency = self.done - self.sent
        return latency - self.poll_slack

    @property
    def lateness(self) -> float:
        return open_loop_times(self.due, self.sent, self.done)[1]

    @property
    def cpu_kind(self) -> str:
        """The cost class of the request: its kind, and hit or not."""
        return self.kind + ("-hit" if self.job and self.job.cached else "")

    def start_cpu(self) -> None:
        self._cpu0 = tree_cpu_s()

    def stop_cpu(self) -> None:
        own, total = tree_cpu_s()
        self.own_cpu_s = own - self._cpu0[0]
        self.cpu_s = total - self._cpu0[1]


class Client:
    """One client of a :class:`Served` service: one request at a time.

    ``reference`` (a ``layers.Reference``) checks each result body with
    its ``check_body(kind, params, body)``; None skips the check.
    """

    def __init__(self, served: Served, reference) -> None:
        self._port = served.port
        self._jobs = served.service.jobs
        self._reference = reference

    def _call(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=JOB_TIMEOUT_S
        )
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def job(
        self,
        kind: str,
        params: dict,
        *,
        due: float | None = None,
        open_loop: bool = False,
        traced: bool = False,
    ) -> Outcome:
        """Submit, wait, fetch and check one job."""
        sent = time.monotonic()
        out = Outcome(
            kind, params, sent if due is None else due, sent, sent,
            open_loop, traced,
        )
        out.start_cpu()
        try:
            status, raw = self._call(
                "POST", "/jobs", {"algorithm": kind, "params": params}
            )
            if status != 202:
                raise RuntimeError(f"submit returned {status}: {raw[:200]!r}")
            job_id = json.loads(raw)["job_id"]
            waited = time.monotonic()
            out.job = self._jobs.wait(job_id, timeout=JOB_TIMEOUT_S)
            out.poll_slack = max(
                0.0,
                time.monotonic()
                - max(out.job.finished_at_monotonic, waited),
            )
            status, raw = self._call("GET", f"/jobs/{job_id}/result")
            out.done = time.monotonic()
            out.stop_cpu()
            if status != 200:
                raise RuntimeError(f"result returned {status}: {raw[:200]!r}")
            out.response_bytes = len(raw)
            if self._reference is not None and not (
                self._reference.check_body(kind, params, raw)
            ):
                out.error = "wrong result"
        except (OSError, http.client.HTTPException, ValueError, KeyError,
                RuntimeError) as exc:  # TimeoutError is an OSError
            out.done = max(out.done, time.monotonic())
            out.error = f"{type(exc).__name__}: {exc}"
            out.stop_cpu()
        return out

    def scrape(self, *, due: float | None = None) -> Outcome:
        """One ``GET /metrics``; fails unless the service reports up."""
        sent = time.monotonic()
        out = Outcome(
            "scrape", {}, sent if due is None else due, sent, sent,
            due is not None, False,
        )
        out.start_cpu()
        try:
            status, raw = self._call("GET", "/metrics")
            out.done = time.monotonic()
            out.stop_cpu()
            out.response_bytes = len(raw)
            if status != 200 or b"\nrepro_service_up 1" not in raw:
                out.error = f"scrape returned {status}"
        except (OSError, http.client.HTTPException) as exc:
            out.done = time.monotonic()
            out.stop_cpu()
            out.error = f"{type(exc).__name__}: {exc}"
        return out


def closed_loop(
    client: Client,
    requests: Iterable[tuple[str, dict]],
    seconds: float,
    calibrator: Calibrator,
    *,
    alternate_trace: bool = False,
) -> list[Outcome]:
    """Send requests back to back from one client for ``seconds``,
    running the calibration samples that fall due between them."""
    start = time.monotonic()
    end = start + seconds
    outcomes: list[Outcome] = []
    previous_done = None
    for i, (kind, params) in enumerate(requests):
        if time.monotonic() >= end:
            break
        outcomes.append(
            client.job(
                kind,
                params,
                due=closed_loop_due(start, previous_done),
                traced=alternate_trace and i % 2 == 1,
            )
        )
        t_cal = time.monotonic()
        calibrator.catch_up()
        # Calibrating is not the client's lateness.
        previous_done = outcomes[-1].done + (time.monotonic() - t_cal)
    return outcomes


def open_loop(
    clients: Sequence[Client],
    schedule: Sequence[tuple[float, str, dict]],
    calibrator: Calibrator,
    *,
    alternate_trace: bool = False,
) -> list[Outcome]:
    """Send ``(offset_s, kind, params)`` events on schedule.

    Each client thread takes the next event, sleeps until it is due and
    sends it; when every client is busy the event waits, and its latency
    still counts from the scheduled time.  ``kind == "scrape"`` is a
    ``/metrics`` scrape, ``kind == "calibrate"`` one calibration sample
    (no request, no outcome).
    """
    lock = threading.Lock()
    cursor = iter(enumerate(schedule))
    outcomes: list[Outcome] = []
    start = time.monotonic() + 0.05

    def drive(client: Client) -> None:
        while True:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            i, (offset, kind, params) = item
            due = start + offset
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            if kind == "calibrate":
                calibrator.sample()
                continue
            if kind == "scrape":
                outcome = client.scrape(due=due)
            else:
                outcome = client.job(
                    kind, params, due=due, open_loop=True,
                    traced=alternate_trace and i % 2 == 1,
                )
            with lock:
                outcomes.append(outcome)

    threads = [
        threading.Thread(target=drive, args=(c,), name=f"perfbench-client-{k}")
        for k, c in enumerate(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    outcomes.sort(key=lambda o: o.due)
    return outcomes
