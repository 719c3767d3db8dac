"""The ``repro serve`` HTTP API (stdlib-only, JSON in / JSON out).

One :class:`ReproService` wraps a :class:`~repro.service.jobs.JobManager`
(warm worker pool + result cache) in a
:class:`http.server.ThreadingHTTPServer`.  Endpoints (all under ``/v1``;
see ``docs/service.md`` for request/response examples):

==========  ===========================  =========================================
Method      Path                         Meaning
==========  ===========================  =========================================
GET         ``/v1/health``               liveness + pool/cache summary
POST        ``/v1/experiments``          submit a spec JSON → ``202`` + job id
GET         ``/v1/jobs``                 list every job
GET         ``/v1/jobs/<id>``            job status + progress
GET         ``/v1/jobs/<id>/result``     finished job's result table (JSON rows)
GET         ``/v1/jobs/<id>/result.csv`` the same rows as CSV bytes
GET         ``/v1/cache``                list cache entries
GET         ``/v1/cache/stats``          cache counters
GET         ``/v1/cache/<key>``          inspect one entry
DELETE      ``/v1/cache/<key>``          evict one entry
==========  ===========================  =========================================

Malformed or invalid spec submissions are 4xx with a JSON ``error`` body
(the exact :class:`~repro.errors.ExperimentError` message the CLI would
print); unknown paths are 404.  The server binds loopback by default and
has no authentication — treat it like the socket sweep protocol: expose it
only on networks where every peer is trusted.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError, ServiceOverloadedError
from ..experiments.pipeline import ExperimentSpec
from ..viz.tables import rows_to_csv_text
from .jobs import JobManager

__all__ = ["ReproService"]

#: Largest accepted request body (a spec is a few hundred bytes; anything
#: near this limit is not a spec).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler: routes ``/v1/...`` onto the owning service."""

    #: Set by :class:`ReproService` on the handler subclass it serves with.
    service: "ReproService"

    protocol_version = "HTTP/1.1"

    # One TCP send per response.  A buffered ``wfile`` holds the status
    # line, headers and body until ``handle_one_request`` (or ``finish``)
    # flushes it, and with Nagle off that flush leaves at once.  Otherwise a
    # kept-alive client gets the headers and the body as two segments, and
    # the second waits for its delayed ACK (≈40 ms on Linux).
    wbufsize = -1
    disable_nagle_algorithm = True

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.service.verbose:
            super().log_message(format, *args)

    def _send_json(
        self, status: int, body: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        data = json.dumps(body, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error(self, status: int, message: str, close: bool = False) -> None:
        # ``close`` is for answers that leave the request body unread: on a
        # kept-alive connection those bytes would be parsed as the next
        # request.  ``send_header`` sets ``close_connection`` on this header.
        headers = {"Connection": "close"} if close else None
        self._send_json(status, {"error": message}, headers)

    def _send_csv(self, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/csv; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _route(self, close: bool = False) -> Optional[Tuple[str, ...]]:
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = tuple(part for part in path.split("/") if part)
        if not parts or parts[0] != "v1":
            self._send_error(
                404, f"unknown path {self.path!r}; the API lives under /v1", close
            )
            return None
        return parts[1:]

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming convention)
        parts = self._route()
        if parts is None:
            return
        manager = self.service.manager
        if parts == ("health",):
            self._send_json(200, self.service.health())
        elif parts == ("jobs",):
            self._send_json(200, {"jobs": [job.as_dict() for job in manager.list_jobs()]})
        elif len(parts) >= 2 and parts[0] == "jobs":
            self._get_job(parts[1], parts[2:])
        elif parts == ("cache",):
            self._send_json(
                200, {"entries": [entry.as_dict() for entry in manager.cache.entries()]}
            )
        elif parts == ("cache", "stats"):
            self._send_json(200, manager.cache.stats().as_dict())
        elif len(parts) == 2 and parts[0] == "cache":
            entry = manager.cache.get_entry(parts[1])
            if entry is None:
                self._send_error(404, f"no cache entry {parts[1]!r}")
            else:
                self._send_json(200, entry.as_dict())
        else:
            self._send_error(404, f"unknown path {self.path!r}")

    def _get_job(self, job_id: str, rest: Tuple[str, ...]) -> None:
        job = self.service.manager.get(job_id)
        if job is None:
            self._send_error(404, f"no job {job_id!r}")
            return
        if rest == ():
            self._send_json(200, job.as_dict())
            return
        if rest not in (("result",), ("result.csv",)):
            self._send_error(404, f"unknown path {self.path!r}")
            return
        if job.state == "failed":
            self._send_error(500, job.error or "job failed")
            return
        if job.state != "done":
            self._send_error(
                409, f"job {job_id} is {job.state}; poll /v1/jobs/{job_id} until done"
            )
            return
        rows = job.result.to_rows()
        if rest == ("result.csv",):
            self._send_csv(rows_to_csv_text(rows))
        else:
            summary = job.result.accuracy_summary()
            self._send_json(
                200,
                {
                    "id": job.id,
                    "cache_key": job.cache_key,
                    "cached": job.cached,
                    "rows": rows,
                    "accuracy": None if summary is None else summary.as_dict(),
                },
            )

    def do_POST(self) -> None:  # noqa: N802
        # Every refusal before the body is read closes the connection.
        parts = self._route(close=True)
        if parts is None:
            return
        if parts != ("experiments",):
            self._send_error(404, f"unknown path {self.path!r}", close=True)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error(400, "invalid Content-Length header", close=True)
            return
        if length <= 0:
            self._send_error(
                400, "submit a spec JSON object as the request body", close=True
            )
            return
        if length > MAX_BODY_BYTES:
            self._send_error(413, f"request body exceeds {MAX_BODY_BYTES} bytes", close=True)
            return
        body = self.rfile.read(length)
        try:
            spec = ExperimentSpec.from_json_text(body.decode("utf-8", errors="replace"))
            job = self.service.manager.submit(spec)
        except ServiceOverloadedError as exc:
            # Load shedding: the queue is full.  Tell the client when to
            # come back rather than letting submissions pile up unbounded.
            self._send_json(
                503,
                {"error": str(exc), "retry_after": exc.retry_after},
                headers={"Retry-After": str(max(1, round(exc.retry_after)))},
            )
            return
        except ReproError as exc:
            # Invalid spec (bad JSON, unknown scenario/field, inconsistent
            # mode): the submitter's fault, with the CLI's exact message.
            self._send_error(400, str(exc))
            return
        except RuntimeError as exc:  # manager shutting down
            self._send_error(503, str(exc))
            return
        self._send_json(
            202,
            {
                "id": job.id,
                "state": job.state,
                "cache_key": job.cache_key,
                "status_url": f"/v1/jobs/{job.id}",
                "result_url": f"/v1/jobs/{job.id}/result",
            },
        )

    def do_DELETE(self) -> None:  # noqa: N802
        parts = self._route()
        if parts is None:
            return
        if len(parts) == 2 and parts[0] == "cache":
            removed = self.service.manager.cache.evict(parts[1])
            if removed:
                self._send_json(200, {"evicted": parts[1]})
            else:
                self._send_error(404, f"no cache entry {parts[1]!r}")
        else:
            self._send_error(404, f"unknown path {self.path!r}")


class ReproService:
    """A running (or startable) ``repro serve`` HTTP server.

    Parameters
    ----------
    manager:
        The :class:`~repro.service.jobs.JobManager` that owns the warm pool
        and the result cache.
    host, port:
        Bind address (default loopback on an ephemeral port; read
        :attr:`address` after :meth:`start` for the bound port).
    verbose:
        Log one line per request to stderr (the CLI turns this on).

    Use as a context manager — or call :meth:`start` /
    :meth:`serve_forever` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = int(port)
        self.verbose = verbose
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def health(self) -> Dict[str, Any]:
        """The ``/v1/health`` body (also handy for in-process checks)."""
        manager = self.manager
        body: Dict[str, Any] = {
            "status": "ok",
            "jobs": len(manager.list_jobs()),
            "queued": manager.queue_depth(),
            "max_queued": manager.max_queued,
            "pool_jobs": manager.jobs,
            "cache_root": manager.cache.root,
            "cache": manager.cache.stats().as_dict(),
        }
        pools = getattr(manager.backend, "pools_created", None)
        if pools is not None:
            body["pools_created"] = pools
        return body

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (only meaningful after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[:2]
        return (self.host, self.port)

    def start(self) -> "ReproService":
        """Bind the socket and serve on a background thread."""
        if self._server is not None:
            return self
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        handler = type("_BoundHandler", (_Handler,), {"service": self})
        self._server = ThreadingHTTPServer((self.host, self.port), handler)
        try:
            self._server.serve_forever(poll_interval=0.2)
        finally:
            self.stop()

    def stop(self) -> None:
        """Shut the HTTP server down and close the job manager."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.manager.close()

    def __enter__(self) -> "ReproService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
