"""Pure-stdlib blocking client for the job server.

No third-party dependencies, no asyncio: a :class:`ServeClient` is a
plain TCP socket speaking the length-prefixed JSON frame protocol
(:mod:`repro.serve.protocol`), suitable for scripts, notebooks and the
``repro submit`` / ``repro jobs`` CLI.

Request/reply calls share one connection (the protocol is strictly
sequential per connection); :meth:`ServeClient.stream` opens a
*dedicated* connection for its event feed so an abandoned generator
can never desynchronise the main channel.

Server-side typed errors (``busy``, ``bad-request``, ``unknown-job``,
``shutting-down``, ...) are raised as :class:`ServeError` with the
wire ``code`` preserved, so callers can implement backoff with a
simple ``except ServeError as e: if e.code == "busy"``.

A submission the server could finish before replying (a repeat whose
runs are all in its memo, with nothing queued and a member free) is
answered in its ``submitted`` reply: the reply's ``state`` is terminal
and it carries the ``result`` reply's outcome fields.  The client keeps
the outcome of its last such reply (never more than one) and answers
the next :meth:`ServeClient.result` for that job from it, so
submit-then-result costs one round trip; any later call goes to the
server.

Busy-class errors (``busy`` from admission control, ``circuit-open``
from a tripped breaker) are *transient by contract*: construct the
client with ``busy_retries=N`` (or pass it per submit) and submissions
retry up to N times under the repository's deterministic exponential
backoff (:func:`repro.resilience.backoff_delay` -- same message, same
schedule).  ``deadline-exceeded`` is a hard stop: the deadline the
caller itself set has passed, so retrying is never correct and the
client never does.

Example::

    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", 7861) as client:
        ticket = client.submit_sweep(
            ["libquantum", "mcf"], ["none", "stride", "bfetch"],
            instructions=20_000,
        )
        for event in client.stream(ticket["job_id"]):
            print(event["ev"], event.get("done"), event.get("total"))
        reply = client.result(ticket["job_id"])
        results = reply["result"]      # list of RunResult dicts
"""

import json
import socket
import time
from collections import deque

from repro.serve import DEFAULT_PORT, protocol
from repro.serve.jobs import TERMINAL_STATES
from repro.serve.protocol import BUSY_CLASS_CODES, FrameDecoder, ProtocolError

#: the fields of a ``result`` reply a terminal ``submitted`` reply carries
_OUTCOME_FIELDS = ("job_id", "state", "done", "runs", "result", "batch",
                   "error")


class ServeError(Exception):
    """A typed error reply (or protocol failure) from the server.

    :ivar code: wire error code (see
        :data:`repro.serve.protocol.ERROR_CODES`).
    :ivar data: the full error frame payload.
    """

    def __init__(self, code, message, data=None):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.data = data or {}


class ServeClient(object):
    """Blocking client over one TCP connection (lazily opened).

    :param timeout: socket timeout, seconds, for connect and for every
        non-waiting call; waiting calls (``result(wait=True)``,
        ``stream``) disable it for the blocking read.
    :param busy_retries: default retry budget for busy-class submission
        rejections (``busy`` / ``circuit-open``); ``0`` (the default)
        preserves fail-fast behaviour.  Retries sleep the deterministic
        backoff schedule derived from the submission payload.
    """

    def __init__(self, host="127.0.0.1", port=DEFAULT_PORT, timeout=30.0,
                 busy_retries=0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.busy_retries = busy_retries
        self.reconnects = 0      # transparent reconnect-and-resend count
        self._sock = None
        self._decoder = None
        self._pending = deque()
        self._held = None        # result reply of the last terminal ack

    # ------------------------------------------------------------------
    # plumbing

    def _connect(self):
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _ensure(self):
        if self._sock is None:
            self._sock = self._connect()
            self._decoder = FrameDecoder(max_bytes=protocol.MAX_REPLY_BYTES)
            self._pending = deque()
        return self._sock

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._decoder = None
                self._pending = deque()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _request(self, message, wait=False, _retried=False):
        """Send one frame, return the reply; raise :class:`ServeError`.

        A *dropped* connection (reset, broken pipe, clean EOF, or a
        frame truncated mid-read) is retried transparently exactly
        once: reconnect, resend the same frame.  This is safe because
        every request is idempotent -- submissions coalesce onto the
        live job by digest, reads are pure -- so a retry can never
        double-execute work.  Typed server errors (including
        ``deadline-exceeded``) are never retried here, and a second
        transport failure propagates: one bounded resend, not a loop.

        On any transport/protocol failure the connection is dropped so
        the next call reconnects cleanly.
        """
        try:
            sock = self._ensure()
        except OSError as exc:
            raise ServeError("connection", "server unreachable: %s" % exc)
        try:
            sock.settimeout(None if wait else self.timeout)
            protocol.send_frame(sock, message)
            reply = protocol.recv_frame(sock, self._decoder, self._pending)
        except ProtocolError as exc:
            self.close()
            if exc.code == "truncated" and not _retried:
                self.reconnects += 1
                return self._request(message, wait=wait, _retried=True)
            raise ServeError(exc.code, str(exc))
        except socket.timeout as exc:
            # a timeout says "slow", not "gone": do not resend blindly
            self.close()
            raise ServeError("connection", "server unreachable: %s" % exc)
        except OSError as exc:
            self.close()
            if not _retried:
                self.reconnects += 1
                return self._request(message, wait=wait, _retried=True)
            raise ServeError("connection", "server unreachable: %s" % exc)
        if reply is None:
            self.close()
            if not _retried:
                self.reconnects += 1
                return self._request(message, wait=wait, _retried=True)
            raise ServeError("connection",
                             "server closed the connection")
        if reply.get("type") == "error":
            raise ServeError(reply.get("code", "internal"),
                             reply.get("message", ""), data=reply)
        return reply

    # ------------------------------------------------------------------
    # endpoints

    def ping(self):
        return self._request({"type": "ping"})

    def catalog(self):
        """The server's benchmark/prefetcher catalog payload."""
        return self._request({"type": "catalog"})["catalog"]

    def statz(self):
        """Flat ``{stat_name: value}`` server metrics dump."""
        return self._request({"type": "statz"})["stats"]

    def jobs(self, limit=50):
        """Job summaries (newest first) plus the queued-id order."""
        return self._request({"type": "jobs", "limit": limit})

    def fleet(self):
        """Worker fleet snapshot + circuit breaker states."""
        return self._request({"type": "fleet"})

    def submit(self, benchmark, prefetcher="none", instructions=None,
               variant=0, priority=0, retries=None, on_error=None,
               task_timeout=None, deadline_ms=None, busy_retries=None):
        """Submit one single-run job; returns the submission ticket.

        The ticket carries ``job_id`` and ``coalesced`` (True when this
        submission deduplicated onto an already-live identical job).
        """
        message = {
            "type": "submit", "kind": "single", "benchmark": benchmark,
            "prefetcher": prefetcher, "variant": variant,
            "priority": priority,
        }
        return self._submit(message, instructions, retries, on_error,
                            task_timeout, deadline_ms, busy_retries)

    def submit_sweep(self, benchmarks, prefetchers, instructions=None,
                     variant=0, priority=0, retries=None, on_error=None,
                     task_timeout=None, deadline_ms=None,
                     busy_retries=None):
        """Submit a ``benchmarks x prefetchers`` sweep as one job."""
        message = {
            "type": "submit", "kind": "sweep",
            "benchmarks": list(benchmarks),
            "prefetchers": list(prefetchers),
            "variant": variant, "priority": priority,
        }
        return self._submit(message, instructions, retries, on_error,
                            task_timeout, deadline_ms, busy_retries)

    def _submit(self, message, instructions, retries, on_error,
                task_timeout, deadline_ms=None, busy_retries=None):
        if instructions is not None:
            message["instructions"] = instructions
        if retries is not None:
            message["retries"] = retries
        if on_error is not None:
            message["on_error"] = on_error
        if task_timeout is not None:
            message["task_timeout"] = task_timeout
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        budget = (self.busy_retries if busy_retries is None
                  else busy_retries)
        self._held = None
        ticket = self._submit_with_retries(message, budget)
        if ticket.get("state") in TERMINAL_STATES:
            # the job finished before the reply: hold its result reply
            self._held = {key: ticket[key] for key in _OUTCOME_FIELDS
                          if key in ticket}
            self._held["type"] = "result"
        return ticket

    def _submit_with_retries(self, message, budget):
        """Bounded, deterministic retry loop for busy-class rejections.

        ``deadline-exceeded`` (and every non-busy code) propagates
        immediately -- only load-shedding rejections are transient.
        The backoff schedule is a pure function of the submission
        payload, so identical clients under identical rejection storms
        retry identically (and de-synchronise *across* different
        submissions).
        """
        attempt = 0
        while True:
            try:
                return self._request(message)
            except ServeError as exc:
                if exc.code not in BUSY_CLASS_CODES or attempt >= budget:
                    raise
            from repro.resilience.retry import backoff_delay

            time.sleep(backoff_delay(json.dumps(message, sort_keys=True),
                                     attempt))
            attempt += 1

    def status(self, job_id):
        return self._request({"type": "status", "job_id": job_id})

    def result(self, job_id, wait=True):
        """Fetch a job's outcome; with ``wait`` blocks until terminal.

        When the last submission was answered in its reply, the next
        call for that job is answered from that reply, without a
        request.

        :returns: the result reply -- ``reply["state"]`` is the terminal
            state; for ``done`` jobs ``reply["result"]`` is the list of
            per-run result dicts (request order) and ``reply["batch"]``
            the batch report.
        :raises ServeError: with the job's structured error as ``data``
            when the job failed.
        """
        reply = self._held
        if reply is not None and reply["job_id"] == job_id:
            self._held = None
        else:
            reply = self._request({"type": "result", "job_id": job_id,
                                   "wait": bool(wait)}, wait=wait)
        if reply.get("state") == "failed":
            error = reply.get("error") or {}
            raise ServeError(error.get("code", "simulation-error"),
                             error.get("message", "job failed"),
                             data=reply)
        return reply

    def cancel(self, job_id):
        """Cancel a queued/running job; typed error if already terminal."""
        return self._request({"type": "cancel", "job_id": job_id})

    def stream(self, job_id):
        """Generator of lifecycle events for *job_id* until terminal.

        Opens its own connection; the generator ends after the terminal
        event (``done`` / ``failed`` / ``cancelled``).  Closing the
        generator early just drops that connection -- the server
        unsubscribes on disconnect.
        """
        sock = self._connect()
        decoder = FrameDecoder(max_bytes=protocol.MAX_REPLY_BYTES)
        pending = deque()
        try:
            sock.settimeout(None)
            protocol.send_frame(sock, {"type": "stream", "job_id": job_id})
            start = protocol.recv_frame(sock, decoder, pending)
            if start is None:
                raise ServeError("connection",
                                 "server closed the stream")
            if start.get("type") == "error":
                raise ServeError(start.get("code", "internal"),
                                 start.get("message", ""), data=start)
            while True:
                event = protocol.recv_frame(sock, decoder, pending)
                if event is None:
                    return
                yield event
                if event.get("ev") in ("done", "failed", "cancelled"):
                    return
        except ProtocolError as exc:
            raise ServeError(exc.code, str(exc))
        finally:
            sock.close()

    # ------------------------------------------------------------------
    # conveniences

    def run(self, benchmark, prefetcher="none", instructions=None,
            variant=0, **kwargs):
        """Submit one run and block for its result dict."""
        ticket = self.submit(benchmark, prefetcher, instructions,
                             variant=variant, **kwargs)
        reply = self.result(ticket["job_id"], wait=True)
        return reply["result"][0]

    def wait_until_up(self, attempts=50, delay=0.1):
        """Poll ``ping`` until the server answers (startup scripts)."""
        import time as _time

        last = None
        for _ in range(attempts):
            try:
                return self.ping()
            except ServeError as exc:
                last = exc
                _time.sleep(delay)
        raise last
