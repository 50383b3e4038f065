"""The HTTP face of the compile daemon (stdlib ``http.server``, JSON bodies).

Endpoints (all responses carry ``api_version``):

========  =============  ====================================================
method    path           behaviour
========  =============  ====================================================
GET       ``/healthz``   liveness: status, library version, uptime
GET       ``/stats``     cache / warm-state / job / engine counters
POST      ``/compile``   one compile request; ``202`` with a job id, or the
                         finished result inline when the body sets ``wait``
POST      ``/batch``     circuits × methods matrix, same job semantics
GET       ``/jobs/<id>`` job status and (when terminal) result or error
========  =============  ====================================================

Malformed JSON and schema violations return ``400`` with an
``{"error": "schema_error", "errors": [{"field", "message"}, …]}`` body that
names every offending field.  Unknown paths return ``404``; wrong verbs
``405``.  The full field-by-field reference lives in ``docs/http-api.md``,
generated from :mod:`repro.service.schema`.

The server is a :class:`ThreadingHTTPServer`: handler threads parse and
enqueue, the service's single worker compiles, so a slow compile never blocks
``/healthz``.  Connections are HTTP/1.1 keep-alive, one handler thread each,
with Nagle's algorithm off: a response leaves in two writes (head, then
body), and with Nagle on, the body would wait for the client's delayed ACK
of the head, tens of milliseconds per request.  A connection that sends
nothing for :data:`IDLE_TIMEOUT_SECONDS` is closed, so a client that never
closes its own does not pin a handler thread until the daemon exits
(:class:`~repro.service.client.ServiceClient` reopens a connection the
daemon closed).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.schema import (
    SchemaError,
    decode_body,
    error_payload,
    parse_batch_request,
)
from repro.service.service import CompileService

#: Request bodies larger than this are rejected outright (16 MiB covers any
#: realistic inline QASM; a runaway body must not exhaust daemon memory).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Seconds a kept-alive connection may sit idle (or stall mid-request)
#: before the daemon closes it and frees its handler thread.
IDLE_TIMEOUT_SECONDS = 60.0


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`CompileService` on the server."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_SECONDS

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:
        """Route access logs through the server's quiet flag instead of stderr spam."""
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _content_length(self) -> int:
        """The request's Content-Length, or ``-1`` for a header we cannot trust.

        An unparseable or negative value means the body's extent is unknown,
        so the connection is marked for close — reading ``rfile`` further
        could block forever, and leaving bytes behind desyncs keep-alive.
        """
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
        return length

    def _drain_body(self) -> None:
        """Consume an unread request body so a keep-alive connection stays in sync.

        Answering before reading the body would leave its bytes in the
        stream, and the next request on the connection would be parsed
        starting mid-body.  Oversized (or length-unknown) bodies are not
        worth draining — ``_content_length`` marks the connection for close.
        """
        length = self._content_length()
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)
        elif length > MAX_BODY_BYTES:
            self.close_connection = True

    def _read_body(self) -> bytes:
        length = self._content_length()
        if length < 0:
            raise SchemaError([{"field": "", "message": "invalid Content-Length header"}])
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # refusing to read it desyncs keep-alive
            raise SchemaError(
                [{"field": "", "message": f"request body exceeds {MAX_BODY_BYTES} bytes"}]
            )
        return self.rfile.read(length) if length else b""

    # -------------------------------------------------------------- routing
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/healthz``, ``/stats`` and ``/jobs/<id>``."""
        service = self.server.service
        path, _, query = self.path.partition("?")
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, service.health_payload())
        elif path == "/stats":
            scan = "scan=1" in query.split("&")
            self._send_json(200, service.stats_payload(scan_disk=scan))
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/") :]
            job = service.jobs.get(job_id)
            if job is None:
                self._send_json(404, error_payload("not_found", f"no job {job_id!r}"))
            else:
                self._send_json(200, job.payload())
        elif path in ("/compile", "/batch"):
            self._send_json(
                405, error_payload("method_not_allowed", f"{path} only accepts POST")
            )
        else:
            self._send_json(404, error_payload("not_found", f"no endpoint {path!r}"))

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """Serve ``/compile`` and ``/batch``."""
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/")
        if path not in ("/compile", "/batch"):
            self._drain_body()
            if path in ("/healthz", "/stats") or path.startswith("/jobs/"):
                self._send_json(
                    405, error_payload("method_not_allowed", f"{path} only accepts GET")
                )
            else:
                self._send_json(404, error_payload("not_found", f"no endpoint {path!r}"))
            return
        try:
            body = self._read_body()
            if path == "/compile":
                job, request = service.submit_compile(body)
            else:
                request = parse_batch_request(decode_body(body))
                job = service.jobs.submit("batch", request)
        except SchemaError as exc:
            self._send_json(400, error_payload("schema_error", str(exc), exc.errors))
            return
        except Exception as exc:  # defensive: a handler crash must answer
            self._send_json(500, error_payload("internal_error", f"{type(exc).__name__}: {exc}"))
            return
        if request.wait:
            # Fall back to the submitted object if the job table evicted the
            # entry while we waited: the worker mutates that same instance,
            # so its terminal state is still the truth.
            job = service.jobs.wait(job.id, request.timeout_seconds) or job
        self._send_json(200 if job.status in ("done", "failed") else 202, job.payload())


class ServiceServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one :class:`CompileService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: CompileService, quiet: bool = False):
        super().__init__(address, ServiceHandler)
        self.service = service
        self.quiet = quiet

    def close(self) -> None:
        """Shut the HTTP listener and the compile service down."""
        self.server_close()
        self.service.close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache: object = None,
    workers: int = 1,
    warm_chips: int | None = None,
    quiet: bool = False,
) -> ServiceServer:
    """Build a ready-to-serve daemon (``port=0`` picks an ephemeral port).

    The caller drives the accept loop (``serve_forever()``), so tests can run
    it on a thread and the CLI can run it in the foreground.
    """
    from repro.service.state import DEFAULT_WARM_CHIPS

    service = CompileService(
        cache=cache,
        workers=workers,
        warm_chips=warm_chips if warm_chips is not None else DEFAULT_WARM_CHIPS,
    )
    try:
        return ServiceServer((host, port), service, quiet=quiet)
    except OSError:
        service.close()
        raise
