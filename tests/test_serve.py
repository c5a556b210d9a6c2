"""End-to-end job-server tests: the ISSUE acceptance criteria.

* concurrent clients submitting overlapping sweeps get results
  byte-identical to a serial :class:`ExperimentRunner`, and duplicate
  submissions provably coalesce (one job id, compute count below the
  request count);
* an injected worker crash surfaces as a structured job failure while
  the server keeps serving other clients;
* admission control (busy backpressure), cancellation of queued and
  running jobs, event streaming, drain-time stats/trace flush, and the
  cross-job result cache;
* a job whose runs are all in the memo runs on the event loop, not the
  thread pool, and answers exactly like a pooled job;
* such a job, submitted with nothing queued and a member idle, is run
  before its submission is acknowledged: the ``submitted`` reply holds
  the outcome, and the client answers ``result`` from it.

All tests run a real server on a background thread (its own asyncio
loop) and talk to it through the blocking stdlib client -- the same
path scripts and the CLI use.
"""

import asyncio
import json
import sys
import threading
import time
import types

import pytest

import repro.obs.trace as trace_module
from repro.serve import (
    AdmissionQueue,
    JobTable,
    QueueFull,
    ServeClient,
    ServeError,
    protocol,
)
from repro.serve.protocol import ProtocolError
from repro.serve.server import JobServer, ServerThread
from repro.sim import ExperimentRunner, RunRequest

BUDGET = 2000
#: budget for jobs that must still be running when we poke at them
#: (~1s of wall clock: wide enough that a handful of client round
#: trips never race the blocker's completion, even under GIL pressure)
SLOW_BUDGET = 250_000


def _client(thread, timeout=60):
    host, port = thread.address
    return ServeClient(host, port, timeout=timeout)


def _pool_calls(thread):
    """A list that collects every job the server's thread members send
    to their (shared) pool from now on."""
    pool = thread.server.supervisor.members[0]._pool
    calls = []
    submit = pool.submit

    def counting(fn, *args, **kwargs):
        calls.append(fn)
        return submit(fn, *args, **kwargs)

    pool.submit = counting
    return calls


def _wait_running(client, job_id, timeout=60.0):
    """Poll status until the job is running (deterministic, unlike
    waiting on stream events -- a late subscription can miss the
    ``started`` event and only wake on completion)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        state = client.status(job_id)["state"]
        if state == "running":
            return
        assert state == "queued", "job went terminal early: %s" % state
        time.sleep(0.005)
    raise AssertionError("job %s never started" % job_id)


def _timeless_events(trace_path):
    """Each job's trace events, without their job id and timing fields."""
    events = {}
    for line in trace_path.read_text().splitlines():
        event = json.loads(line)
        events.setdefault(event.pop("job"), []).append(
            {key: value for key, value in event.items()
             if key not in ("cycle", "latency")})
    return events


# ----------------------------------------------------------------------
# acceptance: identity + coalescing under concurrent clients


class TestConcurrentClients(object):
    def test_sweeps_match_serial_runner_and_coalesce(self, tmp_path):
        benchmarks = ["libquantum", "mcf"]
        prefetchers = ["none", "stride"]
        serial = ExperimentRunner(cache_dir=str(tmp_path / "serial-cache"))
        expected_results, _report = serial.run_batch(
            [RunRequest(b, p, BUDGET)
             for b in benchmarks for p in prefetchers]
        )
        expected = [result.as_dict() for result in expected_results]

        with ServerThread(cache_dir=str(tmp_path / "server-cache"),
                          max_concurrent=1) as thread:
            # occupy the single worker slot so the duplicate sweeps
            # below are all admitted while the first is still live
            with _client(thread) as blocker_client:
                blocker = blocker_client.submit(
                    "astar", "none", instructions=SLOW_BUDGET
                )
                _wait_running(blocker_client, blocker["job_id"])

                tickets = {}
                payloads = {}
                errors = []

                def worker(slot):
                    try:
                        with _client(thread) as client:
                            ticket = client.submit_sweep(
                                benchmarks, prefetchers,
                                instructions=BUDGET,
                            )
                            tickets[slot] = ticket
                            reply = client.result(ticket["job_id"],
                                                  wait=True)
                            payloads[slot] = reply["result"]
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                workers = [threading.Thread(target=worker, args=(slot,))
                           for slot in range(4)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=180)
                assert not errors

                # every client saw results byte-identical to the serial
                # reference engine
                for slot in range(4):
                    assert payloads[slot] == expected

                # provable coalescing: one job id across all four
                # submissions, three of which were deduplicated
                ids = {tickets[slot]["job_id"] for slot in range(4)}
                assert len(ids) == 1
                coalesced = [tickets[slot]["coalesced"]
                             for slot in range(4)]
                assert sorted(coalesced) == [False, True, True, True]

                blocker_client.result(blocker["job_id"], wait=True)
                stats = blocker_client.statz()
        # 4 sweeps x 4 runs + 1 blocker run requested; only 4 + 1 computed
        assert stats["serve.runs.requested"] == 17
        assert stats["serve.runs.computed"] == 5
        assert stats["serve.jobs.coalesced"] == 3
        assert stats["serve.runs.computed"] < stats["serve.runs.requested"]


    def test_memo_hits_on_the_loop_race_pool_writes(self, tmp_path):
        # more clients than cores, and pool threads fill the memo while
        # memo-hit jobs read it on the loop: every answer must still be
        # the serial runner's, each cell computed once, every job done
        cells = [("libquantum", "none"), ("mcf", "stride"),
                 ("gamess", "none")]
        serial, _report = ExperimentRunner().run_batch(
            [RunRequest(bench, pf, BUDGET) for bench, pf in cells], jobs=1)
        expected = {cell: result.as_dict()
                    for cell, result in zip(cells, serial)}
        answers = []
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache"),
                              max_concurrent=3,
                              heartbeat_interval=0) as thread:

                def client_loop(offset):
                    try:
                        with _client(thread) as client:
                            for n in range(12):
                                cell = cells[(offset + n) % len(cells)]
                                ticket = client.submit(
                                    cell[0], cell[1], instructions=BUDGET)
                                reply = client.result(ticket["job_id"],
                                                      wait=True)
                                answers.append((cell, reply["result"][0]))
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                clients = [threading.Thread(target=client_loop, args=(k,))
                           for k in range(4)]
                for client_thread in clients:
                    client_thread.start()
                for client_thread in clients:
                    client_thread.join(timeout=120)
                assert not any(t.is_alive() for t in clients)
                with _client(thread) as client:
                    stats = client.statz()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert len(answers) == 48
        for cell, payload in answers:
            assert payload == expected[cell]
        assert stats["serve.runs.computed"] == len(cells)
        assert stats["serve.jobs.on_loop"] >= 1
        assert stats["serve.jobs.completed"] == stats["serve.jobs.accepted"]


# ----------------------------------------------------------------------
# acceptance: injected crash -> structured failure, server stays up


class TestCrashInjection(object):
    def test_crash_surfaces_structured_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=7")
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1) as thread:
            with _client(thread) as client:
                # retries=0: the first-attempt crash is fatal and must
                # surface as a structured job failure
                ticket = client.submit("libquantum", "stride",
                                       instructions=BUDGET, retries=0)
                with pytest.raises(ServeError) as info:
                    client.result(ticket["job_id"], wait=True)
                assert info.value.code == "simulation-error"
                failure = info.value.data
                assert failure["state"] == "failed"
                assert failure["error"]["code"] == "simulation-error"
                assert failure["error"]["attempts"] >= 1

                # ... while the server keeps serving: a retried job on
                # the same faulty substrate converges (crash fires only
                # on the first attempt)
                assert client.ping()["type"] == "pong"
                ticket2 = client.submit("mcf", "none",
                                        instructions=BUDGET, retries=2)
                reply = client.result(ticket2["job_id"], wait=True)
                assert reply["state"] == "done"
                assert reply["result"][0]["instructions"] == BUDGET

                stats = client.statz()
        assert stats["serve.jobs.failed"] == 1
        assert stats["serve.jobs.completed"] == 1
        assert stats["serve.runs.retries"] >= 1

    def test_failure_payload_is_the_same_on_both_member_kinds(
            self, tmp_path, monkeypatch):
        # one job body builds the error dict, so a thread member and a
        # worker subprocess report a failing run in identical bytes --
        # and no field leaks a memory address
        monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=7")
        errors = []
        for workers in (0, 1):
            with ServerThread(cache_dir=str(tmp_path / ("c%d" % workers)),
                              max_concurrent=1, workers=workers,
                              heartbeat_interval=0) as thread:
                with _client(thread) as client:
                    ticket = client.submit("libquantum", "stride",
                                           instructions=BUDGET, retries=0)
                    with pytest.raises(ServeError) as info:
                        client.result(ticket["job_id"], wait=True)
            errors.append(json.dumps(info.value.data["error"],
                                     sort_keys=True))
        assert errors[0] == errors[1]
        assert "0x" not in errors[0]
        error = json.loads(errors[0])
        assert error["code"] == "simulation-error"
        assert error["request"] == ["libquantum", "stride", BUDGET, 0]


# ----------------------------------------------------------------------
# admission control and cancellation


class TestAdmissionAndCancel(object):
    @pytest.mark.parametrize("warm, ending", [
        (False, "cancel"), (True, "cancel"), (True, "deadline"),
    ], ids=["miss-cancel", "memo-hit-cancel", "memo-hit-deadline"])
    def test_backpressure_and_queued_cancel(self, tmp_path, warm, ending):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1, high_water=1) as thread:
            with _client(thread) as client:
                if warm:
                    # every run of the queued job is then in the memo:
                    # it would run on the loop, had it reached a member
                    client.run("mcf", "none", instructions=BUDGET)
                blocker = client.submit("astar", "none",
                                        instructions=SLOW_BUDGET)
                _wait_running(client, blocker["job_id"])

                deadline = {"deadline_ms": 50} if ending == "deadline" \
                    else {}
                queued = client.submit("mcf", "none", instructions=BUDGET,
                                       **deadline)
                assert client.status(queued["job_id"])["state"] == "queued"

                # the queue is at its high-water mark: typed busy error
                with pytest.raises(ServeError) as info:
                    client.submit("libquantum", "none",
                                  instructions=BUDGET)
                assert info.value.code == "busy"

                if ending == "cancel":
                    # cancelling the queued job frees admission capacity
                    reply = client.cancel(queued["job_id"])
                    assert reply["type"] == "cancelled"
                    assert (client.status(queued["job_id"])["state"]
                            == "cancelled")
                    outcome = client.result(queued["job_id"], wait=True)
                    assert outcome["state"] == "cancelled"
                else:
                    # its deadline lapses behind the blocker: shed as
                    # it leaves the queue
                    with pytest.raises(ServeError) as info:
                        client.result(queued["job_id"], wait=True)
                    assert info.value.code == "deadline-exceeded"

                admitted = client.submit("libquantum", "none",
                                         instructions=BUDGET)
                assert client.result(admitted["job_id"],
                                     wait=True)["state"] == "done"
                assert client.result(blocker["job_id"],
                                     wait=True)["state"] == "done"
                stats = client.statz()
        assert stats["serve.jobs.rejected_busy"] == 1
        assert stats["serve.jobs.cancelled"] == (ending == "cancel")
        assert stats["serve.fleet.sheds"] == (ending == "deadline")
        # the queued job never reached a member
        assert stats["serve.jobs.on_loop"] == 0

    def test_cancel_running_job_cooperatively(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=1) as thread:
            with _client(thread) as client:
                ticket = client.submit_sweep(
                    ["astar", "bzip2", "soplex", "mcf"],
                    ["none", "stride"],
                    instructions=20_000,
                )
                job_id = ticket["job_id"]
                # wait until at least one run has completed (so the
                # cancel provably leaves checkpointed work behind) but
                # well before all eight are done
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    snap = client.status(job_id)
                    if snap["done"] >= 1:
                        break
                    assert snap["state"] in ("queued", "running")
                    time.sleep(0.005)
                assert snap["done"] >= 1
                reply = client.cancel(job_id)
                assert reply["type"] == "cancelling"
                outcome = client.result(job_id, wait=True)
                assert outcome["state"] == "cancelled"
                # cancelled work is checkpointed in the result cache:
                # resubmitting resumes (some hits) instead of restarting
                again = client.submit_sweep(
                    ["astar", "bzip2", "soplex", "mcf"],
                    ["none", "stride"],
                    instructions=20_000,
                )
                done = client.result(again["job_id"], wait=True)
                assert done["state"] == "done"
                assert len(done["result"]) == 8
                assert done["batch"]["hits"] >= 1


# ----------------------------------------------------------------------
# streaming, cache reuse, drain


class TestLifecycle(object):
    def test_stream_sequence_and_terminal_replay(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache")) as thread:
            with _client(thread) as client:
                ticket = client.submit_sweep(
                    ["libquantum"], ["none", "stride"],
                    instructions=BUDGET,
                )
                job_id = ticket["job_id"]
                events = list(client.stream(job_id))
                assert events, "stream yielded no events"
                assert events[-1]["ev"] == "done"
                seqs = [event["seq"] for event in events]
                assert seqs == sorted(seqs)
                assert len(set(seqs)) == len(seqs)
                for event in events:
                    assert event["job_id"] == job_id
                    if event["ev"] == "progress":
                        assert 0 <= event["done"] <= event["total"]
                # streaming a terminal job replays its terminal event
                replay = list(client.stream(job_id))
                assert [event["ev"] for event in replay] == ["done"]

    def test_resubmission_after_completion_hits_cache(self, tmp_path):
        with ServerThread(cache_dir=str(tmp_path / "cache")) as thread:
            calls = _pool_calls(thread)
            with _client(thread) as client:
                first = client.submit("libquantum", "stride",
                                      instructions=BUDGET)
                reply1 = client.result(first["job_id"], wait=True)
                # a miss runs on the pool
                assert len(calls) == 1
                assert client.statz()["serve.jobs.on_loop"] == 0
                second = client.submit("libquantum", "stride",
                                       instructions=BUDGET)
                # not coalesced (the first job is terminal): a fresh job
                # served from the shared result cache
                assert second["coalesced"] is False
                assert second["job_id"] != first["job_id"]
                reply2 = client.result(second["job_id"], wait=True)
                assert reply2["result"] == reply1["result"]
                assert reply2["batch"]["hits"] == 1
                assert reply2["batch"]["misses"] == 0
                # its one run is in the memo: it ran on the loop
                assert len(calls) == 1
                stats = client.statz()
        assert stats["serve.jobs.on_loop"] == 1
        assert stats["serve.runs.cache_hits"] == 1
        assert stats["serve.runs.computed"] == 1
        assert 0 < stats["serve.cache.hit_ratio"] < 1
        # one job lands in each split latency window, both in "all"
        for series, count in (("computed", 1), ("cached", 1), ("all", 2)):
            prefix = "serve.latency.%s." % series
            assert stats[prefix + "count"] == count
            assert stats[prefix + "p50"] <= stats[prefix + "p95"]

    def test_memo_hit_on_the_loop_matches_a_pooled_hit(self, tmp_path):
        # a serial runner warms the disk cache, so the server's first
        # job is a disk hit (run on the pool) and its resubmission a
        # memo hit (run on the loop): both must answer alike
        cache = str(tmp_path / "cache")
        serial, _report = ExperimentRunner(cache_dir=cache).run_batch(
            [RunRequest("libquantum", "stride", BUDGET)], jobs=1)
        trace_path = tmp_path / "serve-trace.jsonl"
        thread = ServerThread(cache_dir=cache, trace_path=str(trace_path),
                              heartbeat_interval=0)
        thread.start()
        replies = []
        try:
            calls = _pool_calls(thread)
            with _client(thread) as client:
                for _ in range(2):
                    ticket = client.submit("libquantum", "stride",
                                           instructions=BUDGET)
                    replies.append(client.result(ticket["job_id"],
                                                 wait=True))
                    # the disk hit makes the one pool call, the memo hit
                    # none
                    assert len(calls) == 1
                stats = client.statz()
        finally:
            thread.stop()
        assert stats["serve.jobs.on_loop"] == 1
        pooled, on_loop = replies
        assert on_loop["result"] == [result.as_dict() for result in serial]
        assert on_loop["result"] == pooled["result"]

        def timeless(report):
            return {key: value for key, value in report.items()
                    if key != "profile"}

        assert on_loop["batch"]["hits"] == 1
        assert timeless(on_loop["batch"]) == timeless(pooled["batch"])

        events = _timeless_events(trace_path)
        pooled_events = events[pooled["job_id"]]
        assert [event["ev"] for event in pooled_events] \
            == ["queued", "started", "progress", "done"]
        assert events[on_loop["job_id"]] == pooled_events

    def test_traced_job_writes_only_its_own_events(self, tmp_path,
                                                    monkeypatch):
        # the trace file grows by each finished job's events: what one
        # job writes does not grow with the jobs before it, each job's
        # events are on disk once its result is, and the drained file
        # is the whole trace
        written = []

        def dumps(obj, **kwargs):
            text = json.dumps(obj, **kwargs)
            written.append(len(text) + 1)
            return text

        monkeypatch.setattr(trace_module, "json",
                            types.SimpleNamespace(dumps=dumps))
        trace_path = tmp_path / "serve-trace.jsonl"
        thread = ServerThread(cache_dir=str(tmp_path / "cache"),
                              trace_path=str(trace_path),
                              heartbeat_interval=0)
        thread.start()
        per_job = []
        try:
            with _client(thread) as client:
                for _ in range(12):
                    before = sum(written)
                    ticket = client.submit("libquantum", "none",
                                           instructions=BUDGET)
                    client.result(ticket["job_id"], wait=True)
                    per_job.append(sum(written) - before)
                    last = json.loads(
                        trace_path.read_text().splitlines()[-1])
                    assert (last["ev"], last["job"]) \
                        == ("done", ticket["job_id"])
        finally:
            thread.stop()
        # the first job is a miss (one more progress event); the eleven
        # memo hits each write their own four events
        cached = per_job[1:]
        assert max(cached) < 2 * min(cached)
        assert trace_path.read_text() == thread.server.tracer.to_jsonl()

    def test_drain_flushes_stats_and_trace(self, tmp_path):
        stats_path = tmp_path / "serve-stats.json"
        trace_path = tmp_path / "serve-trace.jsonl"
        thread = ServerThread(cache_dir=str(tmp_path / "cache"),
                              stats_path=str(stats_path),
                              trace_path=str(trace_path))
        thread.start()
        try:
            with _client(thread) as client:
                ticket = client.submit("libquantum", "none",
                                       instructions=BUDGET)
                client.result(ticket["job_id"], wait=True)
        finally:
            thread.stop()
        stats = json.loads(stats_path.read_text())
        assert stats["serve.jobs.completed"] == 1
        assert stats["serve.runs.computed"] == 1
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        assert events
        assert all(event["cat"] == "serve" for event in events)
        evs = {event["ev"] for event in events}
        assert "done" in evs


# ----------------------------------------------------------------------
# a memo hit answered in its submission's reply


class TestAnsweredAtSubmit(object):
    @pytest.mark.parametrize("max_concurrent", [1, 2])
    def test_memo_hit_ack_is_its_result_reply(self, tmp_path,
                                              max_concurrent):
        # with one member the parked dispatcher holds the only slot, yet
        # the member is idle: the hit is still answered in its ack
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_concurrent=max_concurrent,
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                miss = client.submit("mcf", "none", instructions=BUDGET)
                assert miss["state"] == "queued" and "done" not in miss
                client.result(miss["job_id"])
                ticket = client.submit("mcf", "none", instructions=BUDGET)
                before = client.statz()
                held = client.result(ticket["job_id"])
                after = client.statz()
                fetched = client.result(ticket["job_id"])
                final = client.statz()
        assert ticket["state"] == "done" and ticket["done"] == 1
        assert ticket["batch"]["hits"] == 1
        for key in ("state", "done", "runs", "result", "batch"):
            assert ticket[key] == fetched[key]
        # the held answer sent no frame and is the server's result reply;
        # a second call for the job goes to the server
        assert held == fetched
        assert (after["serve.requests.total"]
                == before["serve.requests.total"] + 1)
        assert (final["serve.requests.total"]
                == after["serve.requests.total"] + 2)
        assert before["serve.jobs.answered_at_submit"] == 1
        assert before["serve.jobs.on_loop"] == 1
        assert before["serve.jobs.in_flight"] == 0

    def test_answered_hit_traces_like_a_dispatched_hit(self, tmp_path):
        # a memo hit submitted behind a running job gets a queued ack and
        # runs when the dispatcher reaches it; one submitted with the
        # member idle is answered in its ack -- with the same events
        trace_path = tmp_path / "serve-trace.jsonl"
        thread = ServerThread(cache_dir=str(tmp_path / "cache"),
                              max_concurrent=1, trace_path=str(trace_path),
                              heartbeat_interval=0)
        thread.start()
        try:
            with _client(thread) as client:
                client.run("mcf", "none", instructions=BUDGET)
                answered = client.submit("mcf", "none",
                                         instructions=BUDGET)
                blocker = client.submit("astar", "none",
                                        instructions=SLOW_BUDGET)
                _wait_running(client, blocker["job_id"])
                queued = client.submit("mcf", "none", instructions=BUDGET)
                assert queued["state"] == "queued"
                assert "done" not in queued and "result" not in queued
                dispatched = client.result(queued["job_id"])
                client.result(blocker["job_id"])
                stats = client.statz()
        finally:
            thread.stop()
        assert answered["state"] == "done"
        assert dispatched["result"] == answered["result"]
        assert stats["serve.jobs.answered_at_submit"] == 1
        assert stats["serve.jobs.on_loop"] == 2
        events = _timeless_events(trace_path)
        assert [event["ev"] for event in events[answered["job_id"]]] \
            == ["queued", "started", "progress", "done"]
        assert events[answered["job_id"]] == events[queued["job_id"]]

    def test_failure_on_the_submit_path_is_answered(self, tmp_path):
        # a supervisor that raises fails the job in the handler: the ack
        # carries the typed error, the job is finished, and the next
        # identical submission is a new job
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          heartbeat_interval=0) as thread:
            with _client(thread) as client:
                client.run("mcf", "none", instructions=BUDGET)

                async def run_job(job, on_progress=None):
                    raise RuntimeError("supervisor broke")

                thread.server.supervisor.run_job = run_job
                ticket = client.submit("mcf", "none", instructions=BUDGET)
                with pytest.raises(ServeError) as held:
                    client.result(ticket["job_id"])
                with pytest.raises(ServeError) as fetched:
                    client.result(ticket["job_id"])
                again = client.submit("mcf", "none", instructions=BUDGET)
                stats = client.statz()
        assert ticket["state"] == "failed"
        assert ticket["error"] == {"code": "internal",
                                   "error_type": "RuntimeError",
                                   "message": "supervisor broke"}
        assert held.value.code == fetched.value.code == "internal"
        assert held.value.data == fetched.value.data
        assert again["job_id"] != ticket["job_id"]
        assert again["coalesced"] is False and again["state"] == "failed"
        assert stats["serve.jobs.answered_at_submit"] == 2
        assert stats["serve.jobs.in_flight"] == 0


class TestClientHeldOutcome(object):
    """The client's one held outcome, against scripted replies."""

    def _client(self, replies):
        client = ServeClient("127.0.0.1", 1)
        sent = []

        def fake_request(message, wait=False):
            sent.append(message)
            return replies.pop(0)

        client._request = fake_request
        return client, sent

    @staticmethod
    def _ack(job_id, state, **outcome):
        reply = {"type": "submitted", "job_id": job_id, "coalesced": False,
                 "state": state, "runs": 1, "queue_depth": 0}
        reply.update(outcome)
        return reply

    def test_a_later_submit_replaces_the_held_outcome(self):
        first = self._ack("j1", "done", done=1, result=[{"ipc": 1.0}],
                          batch={"hits": 1})
        second = self._ack("j2", "done", done=1, result=[{"ipc": 2.0}],
                           batch={"hits": 1})
        fetched = [{"type": "result", "job_id": job_id, "state": "done"}
                   for job_id in ("j1", "j2")]
        client, sent = self._client([first, second] + fetched)
        client.submit("mcf")
        client.submit("libquantum")
        assert client.result("j1") == fetched[0]
        assert client.result("j2") == {
            "type": "result", "job_id": "j2", "state": "done", "runs": 1,
            "done": 1, "result": [{"ipc": 2.0}], "batch": {"hits": 1}}
        assert client.result("j2") == fetched[1]
        assert [message.get("job_id") for message in sent] \
            == [None, None, "j1", "j2"]


# ----------------------------------------------------------------------
# constructor / queue / table units (no sockets)


@pytest.mark.parametrize("name, value", [
    ("workers", -1), ("workers", "2"), ("workers", 1.5), ("workers", True),
    ("heartbeat_interval", -1), ("heartbeat_interval", "5"),
    ("heartbeat_interval", True), ("heartbeat_interval", float("nan")),
])
def test_server_rejects_bad_workers_and_heartbeat(name, value):
    with pytest.raises(ValueError, match=name):
        JobServer(**{name: value})


class TestAdmissionQueueUnit(object):
    def _jobs(self, table, count, priority=0):
        return [
            table.new_job("key-%d-%d" % (priority, i), "single",
                          {"policy": {}}, [None], priority=priority)
            for i in range(count)
        ]

    def test_priority_then_fifo_order(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=8)
            low = self._jobs(table, 2, priority=0)
            high = self._jobs(table, 1, priority=5)
            for job in low + high:
                queue.push(job)
            order = [await queue.pop() for _ in range(3)]
            return [job.id for job in order], \
                [job.id for job in high + low]

        got, want = asyncio.run(body())
        assert got == want

    def test_high_water_rejects(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=2)
            jobs = self._jobs(table, 3)
            queue.push(jobs[0])
            queue.push(jobs[1])
            with pytest.raises(QueueFull) as info:
                queue.push(jobs[2])
            assert info.value.depth == 2
            # popping frees capacity
            await queue.pop()
            queue.push(jobs[2])
            return len(queue)

        assert asyncio.run(body()) == 2

    def test_lazy_cancel_skipped_at_pop(self):
        async def body():
            table = JobTable()
            queue = AdmissionQueue(high_water=8)
            jobs = self._jobs(table, 3)
            for job in jobs:
                queue.push(job)
            jobs[0].cancel_requested = True
            queue.discard(jobs[0])
            assert len(queue) == 2
            popped = await queue.pop()
            return popped.id, jobs[1].id

        got, want = asyncio.run(body())
        assert got == want

    def test_close_wakes_pop_with_none(self):
        async def body():
            queue = AdmissionQueue(high_water=2)
            waiter = asyncio.create_task(queue.pop())
            await asyncio.sleep(0)
            queue.close()
            return await asyncio.wait_for(waiter, timeout=5)

        assert asyncio.run(body()) is None


class TestReadFrameUnit(object):
    """``protocol.read_frame`` over a fed ``asyncio.StreamReader``."""

    FRAME = protocol.encode_frame({"type": "ping", "n": 1})

    @staticmethod
    def _read(data, eof=True):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            if eof:
                reader.feed_eof()
            return await asyncio.wait_for(protocol.read_frame(reader), 10)

        return asyncio.run(body())

    def test_whole_frame_then_clean_eof(self):
        assert self._read(self.FRAME) == {"type": "ping", "n": 1}
        assert self._read(b"") is None

    @pytest.mark.parametrize("cut", [1, protocol.HEADER_BYTES + 3],
                             ids=["header", "body"])
    def test_partial_frame_is_truncated(self, cut):
        with pytest.raises(ProtocolError) as info:
            self._read(self.FRAME[:cut])
        assert info.value.code == "truncated"

    def test_too_large_is_raised_before_the_body_arrives(self):
        header = (protocol.MAX_FRAME_BYTES + 1).to_bytes(
            protocol.HEADER_BYTES, "big")
        # no body and no EOF follow: reading the body would block
        with pytest.raises(ProtocolError) as info:
            self._read(header, eof=False)
        assert info.value.code == "too-large"

    def test_body_above_the_stream_limit_over_a_socket(self):
        # a body past the stream's 64 KiB buffer limit pauses the
        # transport; one readexactly resumes it until the body is in
        message = {"type": "ping", "pad": "x" * 200_000}

        async def body():
            received = asyncio.get_running_loop().create_future()

            async def handle(reader, writer):
                received.set_result(await protocol.read_frame(reader))
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            _reader, writer = await asyncio.open_connection("127.0.0.1",
                                                            port)
            await protocol.write_frame(writer, message)
            result = await asyncio.wait_for(received, 10)
            writer.close()
            server.close()
            await server.wait_closed()
            return result

        assert asyncio.run(body()) == message


class TestJobTableUnit(object):
    def test_coalescing_index_and_retention(self):
        table = JobTable(retain=2)
        jobs = [
            table.new_job("k%d" % i, "single", {}, [None])
            for i in range(3)
        ]
        assert table.find_active("k0") is jobs[0]
        for job in jobs:
            job.mark_terminal("done")
            table.finish(job)
        # terminal jobs leave the coalescing index...
        assert table.find_active("k0") is None
        # ...and retention keeps only the newest two
        assert table.get(jobs[0].id) is None
        assert table.get(jobs[1].id) is jobs[1]
        assert table.get(jobs[2].id) is jobs[2]

    def test_forget_rolls_back_admission(self):
        table = JobTable()
        job = table.new_job("k", "single", {}, [None])
        table.forget(job)
        assert table.get(job.id) is None
        assert table.find_active("k") is None
