"""The ``serve-zipf`` workload: a spawned ``repro serve`` under load.

The server runs on the default in-process tier with a fresh cache
directory and a free local port.  :data:`plan.SERVE_CLIENTS` client
threads drive it in a closed loop: each submits the next single-run job
of its seeded Zipf schedule, waits for the result, records the result's
digest, and repeats until its schedule is done.  The schedules are played
in slices, each on a fresh connection per client, with a probe of the
host's speed between slices (see ``refclock.py``).
"""

import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import plan

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def free_port():
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server(object):
    """One ``repro serve`` process; :attr:`setup_s` runs from the spawn
    to its ``serving on`` readiness line."""

    def __init__(self, env, workdir, trace_out=None):
        self.env = env
        self.workdir = workdir
        self.trace_out = trace_out
        self.proc = None
        self.port = None
        self.setup_s = None
        self.log_path = None

    def start(self, attempts=3):
        for _ in range(attempts):
            if self._try_start():
                return self
        with open(self.log_path) as log:
            tail = log.read()[-2000:]
        raise RuntimeError("server did not start:\n%s" % tail)

    def _try_start(self):
        self.port = free_port()
        cache_dir = os.path.join(self.workdir, "cache-%d" % self.port)
        argv = ["serve", "--port", str(self.port), "--cache-dir", cache_dir]
        if self.trace_out:
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "traced_serve.py"),
                   "--trace-out", self.trace_out] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        self.log_path = os.path.join(self.workdir,
                                     "server-%d.log" % self.port)
        with open(self.log_path, "w") as log:
            spawned = time.perf_counter()
            self.proc = subprocess.Popen(cmd, env=self.env,
                                         stdout=subprocess.PIPE,
                                         stderr=log, text=True)
        deadline = spawned + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if line.startswith("serving on"):
                self.setup_s = time.perf_counter() - spawned
                return True
            if not line:  # exited before binding (e.g. port taken)
                break
        self.stop()
        return False

    def peak_rss_mb(self):
        """VmHWM of the server process, read from procfs."""
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for pid %d" % self.proc.pid)

    def stop(self):
        """SIGTERM (the server drains), then kill a straggler; always
        reaps the process."""
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


class Record(object):
    """One submission: its cell, the submit round trip (``ack_s``), the
    wait for the result (``wait_s``), and the result's digest and IPC --
    or the error code that failed it."""

    __slots__ = ("cell", "ack_s", "wait_s", "coalesced", "digest", "ipc",
                 "error", "scale")

    def __init__(self, cell, ack_s=None, wait_s=None, coalesced=False,
                 digest=None, ipc=None, error=None):
        self.cell = cell
        self.ack_s = ack_s
        self.wait_s = wait_s
        self.coalesced = coalesced
        self.digest = digest
        self.ipc = ipc
        self.error = error
        # reported over raw time, set by :func:`drive`
        self.scale = 1.0


def _client_loop(port, schedule, records):
    from repro.serve import ServeClient, ServeError

    clock = time.perf_counter
    with ServeClient("127.0.0.1", port, timeout=60) as client:
        for cell in schedule:
            start = clock()
            try:
                ticket = client.submit(cell.benchmark, cell.prefetcher,
                                       cell.instructions,
                                       variant=cell.variant)
                acked = clock()
                reply = client.result(ticket["job_id"], wait=True)
            except ServeError as exc:
                records.append(Record(cell, error=exc.code))
                continue
            except Exception as exc:  # a broken client ends its loop
                records.append(Record(cell, error=type(exc).__name__))
                return
            done = clock()
            data = reply["result"][0]
            records.append(Record(
                cell, ack_s=acked - start, wait_s=done - acked,
                coalesced=bool(ticket.get("coalesced")),
                digest=plan.digest(data),
                ipc=data["ipc"],
            ))


def drive(server, schedules, timeout, lap, slices=1):
    """Play every client's schedule to the end, one thread per client;
    returns ``(records, wall_s)``.

    The schedules run in *slices* consecutive parts: every client ends
    its part before any starts the next, and then ``lap()`` is called.  It
    returns the factor by which that part's times are rescaled (see
    ``refclock.py``); ``wall_s`` is the rescaled sum of the parts.  A
    server that has not finished within *timeout* seconds is stopped,
    which fails the rest."""
    records = []
    wall = 0.0
    deadline = time.perf_counter() + timeout
    for part in range(slices):
        outs = [[] for _ in schedules]
        threads = []
        for schedule, out in zip(schedules, outs):
            first = len(schedule) * part // slices
            last = len(schedule) * (part + 1) // slices
            threads.append(threading.Thread(
                target=_client_loop,
                args=(server.port, schedule[first:last], out)))
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.perf_counter()))
        elapsed = time.perf_counter() - start
        if any(thread.is_alive() for thread in threads):
            server.stop()
            for thread in threads:
                thread.join()
        scale = lap()
        wall += elapsed * scale
        for out in outs:
            for record in out:
                record.scale = scale
            records += out
    return records, wall


def statz(server):
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", server.port, timeout=60) as client:
        return client.statz()
