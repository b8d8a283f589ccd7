"""The farm's HTTP front end (stdlib only).

A :class:`ThreadingHTTPServer` in front of a :class:`repro.farm.Farm`.
Endpoints (all JSON; one JSON object per line on the streams):

=======  ==========================  ====================================
Method   Path                        Meaning
=======  ==========================  ====================================
GET      ``/health``                 liveness probe
GET      ``/metrics``                farm counters + metrics summary
POST     ``/jobs``                   submit a ``repro-job/1`` document
GET      ``/jobs``                   list jobs (``?tenant=`` filters)
GET      ``/jobs/<id>``              one job document
GET      ``/jobs/<id>/result``       the worker's full result document
POST     ``/jobs/<id>/cancel``       cancel (queued or running)
GET      ``/stream``                 NDJSON event feed (``?cursor=N``)
GET      ``/jobs/<id>/stream``       NDJSON feed, ends when terminal
=======  ==========================  ====================================

Status codes: 400 malformed job, ``Content-Length`` or ``cursor``, 404
unknown job/route, 413 body over :data:`MAX_BODY_BYTES`, 429 quota
exceeded, 503 farm shutting down.

:func:`serve` is the ``repro serve`` entry point: it owns the signal
protocol — the first SIGINT/SIGTERM stops accepting jobs and **drains**
in-flight work (bounded by ``--drain-timeout``), a second signal
cancels everything immediately.  Either way workers are joined and the
result index is flushed before the process exits; the no-orphan
property is subprocess-tested.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import FarmError, QuotaExceeded
from repro.farm.core import Farm
from repro.farm.job import TERMINAL_STATES, Job

#: How long one streaming iteration blocks for fresh events before
#: re-checking for shutdown/disconnect.
STREAM_TICK_S = 0.5

#: Largest request body accepted; a job document is a few hundred
#: bytes.
MAX_BODY_BYTES = 1 << 20


class _BadRequest(Exception):
    """A request answered with *status* and a JSON error document."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _non_negative(name: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise _BadRequest(
            400, f"{name} must be a non-negative integer, not {text!r}")
    return value


class _Handler(BaseHTTPRequestHandler):
    """Routes one request to the farm owned by the server."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-farm/1"

    # -- helpers -------------------------------------------------------
    @property
    def farm(self) -> Farm:
        return self.server.farm  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send_json(self, doc: Any, status: int = 200) -> None:
        body = (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> Optional[Dict[str, Any]]:
        try:
            length = _non_negative("Content-Length",
                                   self.headers.get("Content-Length") or "0")
            if length > MAX_BODY_BYTES:
                raise _BadRequest(
                    413, f"request body of {length} bytes exceeds "
                    f"{MAX_BODY_BYTES}")
        except _BadRequest:
            # The body is left unread, so the connection cannot carry
            # another request.
            self.close_connection = True
            raise
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    def _answer(self, handle) -> None:
        try:
            handle()
        except _BadRequest as exc:
            self._error(exc.status, str(exc))

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._answer(self._get)

    def _get(self) -> None:
        path, query = self._route()
        if path == "/health":
            self._send_json({"ok": True})
            return
        if path == "/metrics":
            doc = self.farm.snapshot()
            doc["summary"] = self.farm.metrics_summary()
            self._send_json(doc)
            return
        if path == "/jobs":
            tenant = query.get("tenant")
            jobs = [job.to_dict() for job in self.farm.jobs()
                    if tenant is None or job.tenant == tenant]
            self._send_json({"jobs": jobs})
            return
        if path == "/stream":
            self._stream(
                cursor=_non_negative("cursor", query.get("cursor", "0")),
                job_id=None)
            return
        parts = path.strip("/").split("/")
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.farm.job(parts[1])
            if job is None:
                self._error(404, f"unknown job {parts[1]!r}")
                return
            if len(parts) == 2:
                self._send_json(job.to_dict())
                return
            if parts[2] == "result":
                result = self.farm.result(job.job_id)
                if result is None:
                    self._error(404, "no result yet")
                    return
                self._send_json(result)
                return
            if parts[2] == "stream":
                self._stream(
                    cursor=_non_negative("cursor", query.get("cursor", "0")),
                    job_id=job.job_id)
                return
        self._error(404, f"no route for GET {path}")

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._answer(self._post)

    def _post(self) -> None:
        path, _query = self._route()
        if path == "/jobs":
            doc = self._read_body()
            if doc is None:
                self._error(400, "request body must be a JSON object")
                return
            try:
                job = Job.from_dict(doc)
                submitted = self.farm.submit(job)
            except QuotaExceeded as exc:
                self._error(429, str(exc))
                return
            except FarmError as exc:
                status = 503 if "not accepting" in str(exc) else 400
                self._error(status, str(exc))
                return
            self._send_json(submitted.to_dict(), status=202)
            return
        parts = path.strip("/").split("/")
        if len(parts) == 3 and parts[0] == "jobs" \
                and parts[2] == "cancel":
            cancelled = self.farm.cancel(parts[1])
            self._send_json({"job_id": parts[1],
                             "cancelled": cancelled})
            return
        self._error(404, f"no route for POST {path}")

    # -- streaming -----------------------------------------------------
    def _stream(self, cursor: int, job_id: Optional[str]) -> None:
        """NDJSON event feed; chunked so clients see events live."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        stopping = self.server.stopping  # type: ignore[attr-defined]
        try:
            while True:
                cursor, events = self.farm.events_since(
                    cursor, wait_s=STREAM_TICK_S)
                terminal_seen = False
                for event in events:
                    if job_id is not None \
                            and event["job_id"] != job_id:
                        continue
                    self._write_chunk(
                        json.dumps(event, sort_keys=True) + "\n")
                    if job_id is not None \
                            and event["state"] in TERMINAL_STATES:
                        terminal_seen = True
                if terminal_seen or stopping.is_set():
                    break
            self._write_chunk("")  # final chunk
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _write_chunk(self, text: str) -> None:
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
        self.wfile.write(data + b"\r\n")
        self.wfile.flush()


class FarmServer:
    """A farm plus the HTTP server publishing it."""

    def __init__(self, farm: Farm, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        self.farm = farm
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.farm = farm            # type: ignore[attr-defined]
        self.httpd.stopping = threading.Event()  # type: ignore
        self.httpd.verbose = verbose      # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (real port even when 0 was
        requested)."""
        return self.httpd.server_address[:2]

    def start(self) -> "FarmServer":
        """Start the farm and serve requests on a background thread."""
        self.farm.start()
        thread = threading.Thread(target=self.httpd.serve_forever,
                                  name="farm-http", daemon=True)
        self._thread = thread
        thread.start()
        return self

    def __enter__(self) -> "FarmServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop serving, then shut the farm down (see
        :meth:`Farm.shutdown` for drain semantics)."""
        self.httpd.stopping.set()  # type: ignore[attr-defined]
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.farm.shutdown(drain=drain, timeout_s=timeout_s)


def serve(farm: Farm, host: str = "127.0.0.1", port: int = 0,
          port_file: Optional[str] = None,
          drain_timeout_s: float = 30.0,
          verbose: bool = False, log=print) -> int:
    """Run a farm server until SIGINT/SIGTERM (the ``repro serve``
    loop).

    First signal: stop accepting, drain in-flight jobs (bounded by
    *drain_timeout_s*), flush results.  Second signal: cancel
    everything and exit now.  Returns a process exit code.
    """
    stop = threading.Event()
    force = threading.Event()

    def _on_signal(_signum, _frame) -> None:
        if stop.is_set():
            force.set()
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _on_signal)
    server = FarmServer(farm, host=host, port=port, verbose=verbose)
    try:
        server.start()
        host_bound, port_bound = server.address
        if port_file:
            with open(port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{port_bound}\n")
        if log is not None:
            log(f"repro farm serving on http://{host_bound}:{port_bound} "
                f"({farm.workers} workers)")
        while not stop.wait(timeout=0.2):
            pass
        drain = not force.is_set()
        if log is not None:
            log("repro farm: draining in-flight jobs ..." if drain
                else "repro farm: cancelling everything ...")
        stopper = threading.Thread(
            target=server.stop,
            kwargs={"drain": drain, "timeout_s": drain_timeout_s},
            name="farm-stopper", daemon=True)
        stopper.start()
        while stopper.is_alive():
            stopper.join(timeout=0.2)
            if force.is_set():
                # A second signal arrived mid-drain: stop waiting for
                # in-flight jobs and cancel everything now.
                farm.abort_drain()
        if log is not None:
            log(f"repro farm: stopped ({farm.metrics_summary()})")
        return 0
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
