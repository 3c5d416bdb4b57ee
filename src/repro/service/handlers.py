"""HTTP routing for the graph-analytics service (stdlib only).

The router tier: translate JSON-over-HTTP requests onto the
:class:`~repro.service.app.GraphAnalyticsService` object and nothing
else — no algorithm knowledge, no lifecycle ownership.  Endpoints:

====== ======================== ===========================================
Method Path                     Meaning
====== ======================== ===========================================
GET    ``/health``              service status, graph metadata, queue
                                depth, worker liveness, job/cache tallies
GET    ``/graph``               served-graph metadata
POST   ``/jobs``                submit ``{"algorithm": ..., "params": {}}``
                                → 202 with the job id and trace id
GET    ``/jobs``                all jobs, submission order
GET    ``/jobs/<id>``           one job's status (+ queue-wait/run timing)
GET    ``/jobs/<id>/result``    200 payload when done, 409 while pending /
                                running, 500 with the error when failed
GET    ``/jobs/<id>/trace``     Chrome-trace slice of just this job's spans
GET    ``/metrics``             Prometheus text exposition of the service
                                metrics registry
GET    ``/metrics.json``        the same registry as a schema-versioned
                                JSON snapshot
GET    ``/telemetry``           schema-versioned telemetry report
                                (+ service block with cache hit/miss)
GET    ``/trace``               Chrome trace-event JSON of the session
GET    ``/debug/workers``       live flight-recorder view: per-worker
                                phase/progress/rss, stall state, skew
GET    ``/debug/postmortem``    postmortem bundle ids on disk
GET    ``/debug/postmortem/<id>`` one postmortem bundle (rings, last
                                barrier, partition map, tracebacks)
POST   ``/shutdown``            202, then graceful drain and exit
====== ======================== ===========================================

Error bodies are always ``{"error": "..."}``; malformed JSON is a 400,
unknown routes 404, wrong methods 405.

Every request is *observed*: a ``trace_id`` is resolved first (the
client's ``X-Trace-Id`` header when present, else freshly generated),
echoed back as a response header, stamped into submitted jobs, and
carried by the structured request log line the handler emits on
completion — one id correlates the HTTP access log, the job record, and
the job's span in the trace export.  Latency and status are recorded
into the service metrics registry per *route template* (``/jobs/<id>``,
not the literal path, so label cardinality stays bounded).
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler

__all__ = ["PROMETHEUS_CONTENT_TYPE", "ServiceRequestHandler"]

#: Request bodies above this are rejected (parameters are tiny).
_MAX_BODY_BYTES = 1 << 20

#: Content type of the ``GET /metrics`` exposition body.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Routes that are their own metrics label; everything else normalizes
#: to a template (or ``<other>``) so label cardinality stays bounded.
_STATIC_ROUTES = frozenset(
    {
        "/", "/health", "/graph", "/jobs", "/telemetry", "/trace",
        "/metrics", "/metrics.json", "/shutdown",
        "/debug/workers", "/debug/postmortem",
    }
)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """One HTTP request against the service (threaded by the server)."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; with Nagle's algorithm on,
    #: the body waits for the client's delayed ACK on keep-alive.
    disable_nagle_algorithm = True

    #: Per-request correlation id, resolved before dispatch.
    trace_id = ""

    @property
    def service(self):
        return self.server.service

    # -- plumbing --------------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        # http.server's own access/error lines; the structured request
        # log below supersedes them, so they only surface at debug.
        self.service.logger.debug("http.server", message=format % args)

    def _send_json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("ascii")
        self._status = code
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self.trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._status = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self.trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json_body(self) -> dict | None:
        """Parse the request body; None (after a 400/413) when invalid."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self._error(413, "request body too large")
            return None
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            self._error(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(body, dict):
            self._error(400, "JSON body must be an object")
            return None
        return body

    # -- request observation ---------------------------------------------
    def _route_template(self) -> str:
        """The metrics/log label for this request's path."""
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path in _STATIC_ROUTES:
            return path
        if path.startswith("/jobs/"):
            parts = path.split("/")[2:]
            if len(parts) == 1:
                return "/jobs/<id>"
            if len(parts) == 2 and parts[1] in ("result", "trace"):
                return f"/jobs/<id>/{parts[1]}"
        if path.startswith("/debug/postmortem/"):
            if len(path.split("/")) == 4:
                return "/debug/postmortem/<id>"
        return "<other>"

    def _handle(self, method: str, dispatch) -> None:
        """Dispatch one request with tracing, metrics, and logging."""
        from repro.service.app import new_trace_id

        start = time.monotonic()
        self.trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
        self._status = 0
        self._log_job_id = None
        try:
            dispatch()
        except Exception as exc:  # noqa: BLE001 - boundary: log, then 500
            self.service.logger.error(
                "http.error",
                method=method,
                path=self.path,
                trace_id=self.trace_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            if self._status == 0:
                try:
                    self._error(500, f"internal error: {type(exc).__name__}")
                except OSError:  # pragma: no cover - client went away
                    pass
            # The response stream may be mid-body; don't reuse the
            # connection.
            self.close_connection = True
        finally:
            latency = time.monotonic() - start
            route = self._route_template()
            metrics = self.service.metrics
            metrics.counter(
                "repro_http_requests_total",
                "HTTP requests handled.",
                {"route": route, "method": method,
                 "code": str(self._status or 0)},
            ).inc()
            metrics.histogram(
                "repro_http_request_latency_seconds",
                "Request handling latency.",
                {"route": route},
            ).observe(latency)
            self.service.logger.info(
                "http.request",
                method=method,
                path=self.path,
                route=route,
                status=self._status or 0,
                latency_ms=round(latency * 1e3, 3),
                trace_id=self.trace_id,
                job_id=self._log_job_id,
            )

    # -- GET routes ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET", self._dispatch_get)

    def _dispatch_get(self) -> None:
        path = self.path.rstrip("/") or "/"
        if path == "/health":
            self._send_json(200, self.service.status())
        elif path == "/graph":
            self._send_json(200, self.service.graph_info())
        elif path == "/jobs":
            self._send_json(
                200,
                {"jobs": [j.to_dict() for j in self.service.jobs.list_jobs()]},
            )
        elif path == "/metrics":
            self._send_text(
                200, self.service.metrics_text(), PROMETHEUS_CONTENT_TYPE
            )
        elif path == "/metrics.json":
            self._send_json(200, self.service.metrics_json())
        elif path == "/telemetry":
            self._send_json(200, self.service.telemetry_report())
        elif path == "/trace":
            self._send_json(200, self.service.chrome_trace())
        elif path == "/debug/workers":
            self._send_json(200, self.service.debug_workers())
        elif path == "/debug/postmortem":
            self._send_json(
                200, {"postmortems": self.service.postmortem_ids()}
            )
        elif path.startswith("/debug/postmortem/"):
            parts = path.split("/")[3:]
            if len(parts) != 1:
                self._error(404, f"unknown path {self.path!r}")
                return
            bundle = self.service.postmortem(parts[0])
            if bundle is None:
                self._error(404, f"unknown postmortem {parts[0]!r}")
            else:
                self._send_json(200, bundle)
        elif path.startswith("/jobs/"):
            self._get_job(path)
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _get_job(self, path: str) -> None:
        parts = path.split("/")[2:]  # after "/jobs/"
        job = self.service.jobs.get(parts[0])
        if job is None:
            self._error(404, f"unknown job {parts[0]!r}")
            return
        self._log_job_id = job.job_id
        if len(parts) == 1:
            self._send_json(200, job.to_dict())
        elif len(parts) == 2 and parts[1] == "trace":
            self._send_json(200, self.service.job_trace(job))
        elif len(parts) == 2 and parts[1] == "result":
            if job.status == "done":
                self._send_json(
                    200,
                    {
                        "job_id": job.job_id,
                        "status": job.status,
                        "trace_id": job.trace_id,
                        "cached": job.cached,
                        "result": job.result,
                    },
                )
            elif job.status == "failed":
                self._send_json(
                    500,
                    {
                        "job_id": job.job_id,
                        "status": job.status,
                        "trace_id": job.trace_id,
                        "error": job.error,
                    },
                )
            else:
                self._send_json(
                    409,
                    {
                        "job_id": job.job_id,
                        "status": job.status,
                        "trace_id": job.trace_id,
                        "error": "job has not finished; poll "
                                 f"/jobs/{job.job_id}",
                    },
                )
        else:
            self._error(404, f"unknown path {self.path!r}")

    # -- POST routes -----------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST", self._dispatch_post)

    def _dispatch_post(self) -> None:
        path = self.path.rstrip("/")
        if path == "/jobs":
            self._submit_job()
        elif path == "/shutdown":
            self._send_json(202, {"status": "shutting-down"})
            self.server.initiate_shutdown()
        else:
            self._error(404, f"unknown path {self.path!r}")

    def _submit_job(self) -> None:
        body = self._read_json_body()
        if body is None:
            return
        algorithm = body.get("algorithm")
        if not isinstance(algorithm, str):
            self._error(400, "body must name an 'algorithm' string")
            return
        params = body.get("params") or {}
        if not isinstance(params, dict):
            self._error(400, "'params' must be an object")
            return
        try:
            job = self.service.submit(
                algorithm, params, trace_id=self.trace_id
            )
        except ValueError as exc:
            self._error(400, str(exc))
            return
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        self._log_job_id = job.job_id
        self._send_json(
            202,
            {
                "job_id": job.job_id,
                "status": job.status,
                "trace_id": job.trace_id,
                "algorithm": job.algorithm,
                "params": job.params,
            },
        )

    # Reject everything else explicitly so clients get JSON, not HTML.
    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._handle("PUT", lambda: self._error(405, "method not allowed"))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._handle("DELETE", lambda: self._error(405, "method not allowed"))

    def do_PATCH(self) -> None:  # noqa: N802 - http.server API
        self._handle("PATCH", lambda: self._error(405, "method not allowed"))
