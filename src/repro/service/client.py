"""A small stdlib HTTP client for the compile daemon.

Used by ``repro submit`` and the end-to-end tests; it speaks exactly the wire
format of :mod:`repro.service.schema` and raises typed errors instead of
leaking ``http.client`` internals.  Only the standard library is required, so
the client works wherever the daemon does, and importing it loads nothing of
the daemon.

A client keeps one HTTP/1.1 connection open across its requests, so a stream
of requests pays for one TCP handshake and one server thread, not one per
request.  When a reused connection turns out to be closed before any byte of
the response arrives (the daemon restarted, or closed it after an error), the
client reconnects and sends the request once more.

>>> client = ServiceClient("127.0.0.1", 8752)     # doctest: +SKIP
>>> client.healthz()["status"]                    # doctest: +SKIP
'ok'
>>> job = client.compile(circuit="qft_n10", wait=True)   # doctest: +SKIP
>>> job["result"]["cycles"]                       # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import time

from repro.errors import ReproError


class ServiceError(ReproError):
    """The daemon answered with an error payload (or could not be reached).

    ``status`` is the HTTP status code (``None`` for transport failures) and
    ``payload`` the decoded error body when one was returned.
    """

    def __init__(self, message: str, status: int | None = None, payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """Talks to one daemon at ``http://host:port`` over one kept-alive connection.

    The connection is not shared safely between threads: give each thread
    its own client.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8752, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.base_url = f"http://{host}:{port}"
        self.timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    def close(self) -> None:
        """Close the kept-alive connection; the next request opens a new one."""
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    # ------------------------------------------------------------ transport
    def _exchange(
        self, method: str, path: str, data: bytes | None, timeout: float
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """Send one request and read its whole response, reconnecting at most once."""
        headers = {"Content-Type": "application/json"} if data is not None else {}
        while True:
            reused = self._connection is not None
            if self._connection is None:
                self._connection = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
            connection = self._connection
            connection.timeout = timeout
            if connection.sock is not None:
                connection.sock.settimeout(timeout)
            try:
                try:
                    connection.request(method, path, body=data, headers=headers)
                    response = connection.getresponse()
                except ConnectionError:
                    # Nothing of a response arrived: a reused connection was
                    # closed by the daemon while idle, so send it again once.
                    if not reused:
                        raise
                    self.close()
                    continue
                raw = response.read()
            except BaseException:
                self.close()
                raise
            if response.will_close:
                self.close()
            return response, raw

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        # A `wait` request holds the HTTP response open for up to the
        # server-side timeout_seconds; the socket timeout must outlast it or
        # a slow-but-healthy compile would be misreported as unreachable.
        timeout = self.timeout
        if body is not None and body.get("wait"):
            timeout = max(timeout, float(body.get("timeout_seconds", 60.0)) + 10.0)
        try:
            response, raw = self._exchange(method, path, data, timeout)
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(f"cannot reach compile daemon at {self.base_url}: {exc}") from None
        if response.status < 400:
            return json.loads(raw.decode("utf-8"))
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            payload = {}
        detail = payload.get("message") or response.reason
        errors = payload.get("errors")
        if errors:
            detail += "".join(f"\n  {e['field']}: {e['message']}" for e in errors)
        raise ServiceError(
            f"{method} {path} -> HTTP {response.status}: {detail}",
            status=response.status,
            payload=payload,
        )

    # ------------------------------------------------------------ endpoints
    def healthz(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /stats``."""
        return self._request("GET", "/stats")

    def job(self, job_id: str) -> dict:
        """``GET /jobs/<id>``."""
        return self._request("GET", f"/jobs/{job_id}")

    def compile(self, **request) -> dict:
        """``POST /compile`` with the given schema fields; returns the job payload."""
        return self._request("POST", "/compile", request)

    def batch(self, **request) -> dict:
        """``POST /batch`` with the given schema fields; returns the job payload."""
        return self._request("POST", "/batch", request)

    def wait_for(self, job_id: str, timeout: float = 120.0, poll_seconds: float = 0.1) -> dict:
        """Poll ``/jobs/<id>`` until the job is terminal; raises on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            payload = self.job(job_id)
            if payload["status"] in ("done", "failed"):
                return payload
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {payload['status']} after {timeout:.0f}s"
                )
            time.sleep(poll_seconds)
