"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        one benchmark under one prefetcher, full stats dump
``compare``    one benchmark under several prefetchers (speedup table)
``mix``        a multiprogrammed mix on the shared-LLC CMP
``frontend``   decoupled-front-end head-to-head: B-Fetch-I vs FDIP vs
               combined over the code-footprint-heavy server profiles
``table1``     the Table I storage-overhead accounting
``list``       available benchmarks and prefetchers (``--json`` for the
               machine-readable catalog the job server also exposes)
``serve``      long-lived job server (submit/status/result/cancel/stream
               over length-prefixed JSON frames; see docs/serving.md);
               ``--workers N`` runs a supervised subprocess fleet with
               heartbeat liveness + worker-loss requeue (docs/fleet.md)
``submit``     submit a run or sweep to a running server and (by
               default) wait for results, streaming progress;
               ``--deadline-ms`` sheds late jobs, ``--busy-retries``
               retries busy-class rejections with deterministic backoff
``jobs``       list a server's jobs; ``--stats`` dumps its ``serve.*``
               metrics registry; ``--workers`` shows the fleet +
               breaker states
``cache``      result cache maintenance (``--stats`` per-kind
               totals, ``--gc --older-than AGE`` safe eviction)
``stats``      gem5-style hierarchical stats dump for one fresh run
``trace``      structured JSONL event trace for one fresh run
``check``      run under the runtime invariant sanitizer; on a violation
               auto-bisect the first bad cycle from the last checkpoint

Crash safety: ``run`` takes ``--checkpoint-every N`` /
``--checkpoint-dir DIR`` / ``--resume`` -- the simulation state is
persisted every N cycles (atomic, integrity-enveloped) and an
interrupted run (SIGINT/SIGTERM/``kill -9``) resumes from the last
checkpoint with *byte-identical* results (see
:mod:`repro.checkpoint` and docs/checkpointing.md).  All numeric
arguments are validated up front: non-positive instruction budgets,
intervals or worker counts are argparse errors, as is a negative
``--retries``, ``serve --workers`` or ``--heartbeat`` (0 turns any of
them off), and unknown
benchmark/prefetcher names are rejected by ``choices=`` before any
simulation state is built.

Observability: ``stats`` and ``trace`` always simulate fresh (never the
result cache) because they read live component state -- the
:class:`~repro.obs.StatsRegistry` built at system assembly and the
:class:`~repro.obs.Tracer` event buffer.  Set ``REPRO_TRACE`` to attach
a tracer to any other command's runs (see :mod:`repro.obs.trace`).

Parallelism: ``--jobs N`` (or the ``REPRO_JOBS`` environment variable)
fans independent runs out over a process pool; results are byte-identical
to serial execution.

Robustness: ``--retries N``, ``--task-timeout S`` and
``--on-error {raise,skip,serial}`` configure the
:class:`~repro.resilience.FailurePolicy` -- failed or hung jobs are
retried with deterministic backoff, a broken worker pool is rebuilt, and
each batch's :class:`~repro.resilience.BatchReport` is printed to stderr
whenever anything beyond plain cache hits/misses happened.
"""

import argparse
import math
import os
import sys

from repro.frontend.config import FRONTEND_MODES, IPREFETCHER_NAMES
from repro.resilience.policy import ON_ERROR_MODES, FailurePolicy
from repro.serve import DEFAULT_PORT
from repro.sim.config import PREFETCHER_NAMES, SystemConfig
from repro.workloads.spec import BENCHMARKS, build_workload


def _number_type(convert, kind, allow_zero=False):
    """Argparse type: a positive *kind* parsed by *convert* (non-negative
    with *allow_zero*), rejected up front; a NaN float is rejected too."""
    expected = "expected a %s %s" % (
        "non-negative" if allow_zero else "positive", kind)

    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not (value >= 0 if allow_zero else value > 0):
            raise argparse.ArgumentTypeError("%s, got %r" % (expected, text))
        return value

    return parse


_positive_int = _number_type(int, "integer")
_positive_float = _number_type(float, "number")
_nonnegative_int = _number_type(int, "integer", allow_zero=True)
_nonnegative_float = _number_type(float, "number", allow_zero=True)


def _add_common(parser):
    parser.add_argument("-n", "--instructions", type=_positive_int,
                        default=100_000,
                        help="dynamic instructions to simulate")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for memoised results")
    parser.add_argument("-j", "--jobs", type=_positive_int, default=None,
                        help="worker processes for independent runs "
                             "(default: REPRO_JOBS or cpu count)")
    _add_resilience(parser)


def _add_resilience(parser):
    parser.add_argument("--retries", type=_nonnegative_int, default=None,
                        help="retry budget per failed/hung job "
                             "(default: 2)")
    parser.add_argument("--task-timeout", type=_positive_float, default=None,
                        help="per-task timeout in seconds before a job is "
                             "declared hung and retried (default: none)")
    parser.add_argument("--on-error", choices=ON_ERROR_MODES, default=None,
                        help="what to do with a job that exhausts its "
                             "retries: raise a structured error, skip it, "
                             "or run it serially in-process "
                             "(default: raise)")


def _make_policy(args):
    """The flags a command was given, over the policy's defaults."""
    chosen = {name: getattr(args, name, None)
              for name in ("retries", "task_timeout", "on_error")}
    return FailurePolicy(**{name: value for name, value in chosen.items()
                            if value is not None})


def _make_runner(args):
    from repro.sim.runner import ExperimentRunner

    return ExperimentRunner(cache_dir=args.cache_dir,
                            jobs=getattr(args, "jobs", None),
                            policy=_make_policy(args))


def _report_batch(runner):
    """Surface the last BatchReport on stderr when it was eventful."""
    report = runner.last_report
    if report is not None and report.eventful:
        print("[resilience] " + report.summary(), file=sys.stderr)
        for failure in report.failures:
            print("[resilience] " + failure.describe(), file=sys.stderr)


def cmd_run(args):
    if args.checkpoint_every or args.checkpoint_dir or args.resume:
        # funnel the flags into the environment knobs the runner (and its
        # pool workers) read; resume is automatic whenever a checkpoint
        # for the same run exists in the directory
        os.environ["REPRO_CKPT_DIR"] = (args.checkpoint_dir
                                        or ".repro-checkpoints")
        if args.checkpoint_every:
            os.environ["REPRO_CKPT_EVERY"] = str(args.checkpoint_every)
    runner = _make_runner(args)
    config = None
    if args.frontend != "off" or args.iprefetcher != "none":
        config = SystemConfig(prefetcher=args.prefetcher,
                              frontend=args.frontend,
                              iprefetcher=args.iprefetcher)
    result = runner.run_single(args.benchmark, args.prefetcher,
                               args.instructions, config)
    for key, value in sorted(result.as_dict().items()):
        print("%-22s %s" % (key, value))
    return 0


def cmd_frontend(args):
    """The B-Fetch-I vs FDIP vs combined head-to-head table."""
    runner = _make_runner(args)
    for benchmark in args.benchmarks:
        base = runner.run_single(benchmark, args.prefetcher,
                                 args.instructions)
        print("%s (frontend=off baseline: ipc %.3f)"
              % (benchmark, base.ipc))
        print("  %-11s %7s %8s %9s %7s %7s %7s %8s"
              % ("IPREFETCH", "IPC", "SPEEDUP", "L1I-MISS", "FTQ-OCC",
                 "SHADOW", "COVER", "SH-HITS"))
        for iprefetcher in IPREFETCHER_NAMES:
            config = SystemConfig(prefetcher=args.prefetcher,
                                  frontend="ftq",
                                  iprefetcher=iprefetcher)
            result = runner.run_single(benchmark, args.prefetcher,
                                       args.instructions, config)
            l1i = result.data["l1i"]
            fe = result.data["frontend"]
            miss_rate = l1i["misses"] / max(l1i["accesses"], 1)
            occupancy = (fe["ftq_occupancy_sum"]
                         / max(fe["ftq_occupancy_samples"], 1))
            shadow_rate = (fe["shadow_hits"]
                           / max(fe["shadow_fills"], 1))
            coverage = (l1i["prefetch_useful"]
                        / max(l1i["prefetch_useful"] + l1i["misses"], 1))
            print("  %-11s %7.3f %7.2fx %8.1f%% %7.1f %6.1f%% %6.1f%% %8d"
                  % (iprefetcher, result.ipc, result.ipc / base.ipc,
                     miss_rate * 100, occupancy, shadow_rate * 100,
                     coverage * 100, fe["shadow_hits"]))
    _report_batch(runner)
    return 0


def cmd_compare(args):
    from repro.analysis.reporting import render_table
    from repro.sim.runner import RunRequest

    runner = _make_runner(args)
    batch = runner.run_many(
        [RunRequest(args.benchmark, "none", args.instructions)]
        + [RunRequest(args.benchmark, prefetcher, args.instructions)
           for prefetcher in args.prefetchers]
    )
    _report_batch(runner)
    base, results = batch[0], batch[1:]
    if base is None:
        print("error: baseline run failed (skipped under --on-error=skip)",
              file=sys.stderr)
        return 1
    rows = []
    failed = []
    for prefetcher, result in zip(args.prefetchers, results):
        if result is None:  # skipped under --on-error=skip
            failed.append(prefetcher)
            continue
        stats = result.data["prefetch"]
        rows.append((prefetcher, {
            "ipc": result.ipc,
            "speedup": result.ipc / base.ipc,
            # disjoint outcomes: demanded = useful (in time) + late
            "demanded": float(stats["useful"] + stats["late"]),
            "useless": float(stats["useless"]),
        }))
    print(render_table("%s (%d instructions)"
                       % (args.benchmark, args.instructions),
                       rows, ["ipc", "speedup", "demanded", "useless"]))
    for prefetcher in failed:
        print("note: %s run failed and was skipped" % prefetcher,
              file=sys.stderr)
    return 0


def cmd_mix(args):
    from repro.analysis.reporting import render_table
    from repro.sim.metrics import weighted_speedup
    from repro.sim.runner import RunRequest

    runner = _make_runner(args)
    singles_batch = runner.run_many(
        [RunRequest(name, "none", args.instructions)
         for name in args.apps]
    )
    _report_batch(runner)
    if any(result is None for result in singles_batch):
        print("error: a solo-IPC run failed (skipped under "
              "--on-error=skip); cannot compute weighted speedups",
              file=sys.stderr)
        return 1
    singles = [result.ipc for result in singles_batch]
    baseline = None
    rows = []
    for prefetcher in args.prefetchers:
        results = runner.run_mix(args.apps, prefetcher, args.instructions)
        ws = weighted_speedup([r.ipc for r in results], singles,
                              benchmarks=args.apps)
        if baseline is None:
            baseline = ws
        rows.append((prefetcher, {
            "wspeedup": ws,
            "normalized": ws / baseline,
        }))
    print(render_table("mix: %s" % "+".join(args.apps), rows,
                       ["wspeedup", "normalized"]))
    return 0


def cmd_table1(args):
    from repro.analysis.overhead import overhead_table

    rows, bf_total, sms_total = overhead_table()
    for owner, name, entries, size in rows:
        print("%-8s %-28s %8s %8.3f KB"
              % (owner, name, entries if entries else "-", size))
    print("B-Fetch uses %.0f%% less storage than SMS"
          % (100 * (1 - bf_total / sms_total)))
    return 0


def cmd_stats(args):
    import json as _json

    from repro.sim.system import System
    from repro.workloads.spec import build_workload as _build

    system = System(_build(args.benchmark),
                    SystemConfig(prefetcher=args.prefetcher,
                                 frontend=args.frontend,
                                 iprefetcher=args.iprefetcher))
    system.run(args.instructions)
    if args.json:
        print(_json.dumps(system.stats.as_dict(), indent=2, sort_keys=True))
    else:
        print(system.stats.format(args.filter))
    return 0


def cmd_trace(args):
    from repro.obs.trace import TraceConfigError, Tracer, parse_trace_spec
    from repro.sim.system import System
    from repro.workloads.spec import build_workload as _build

    try:
        rates = parse_trace_spec(args.categories)
    except TraceConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    tracer = Tracer(rates, path=args.out)
    system = System(_build(args.benchmark),
                    SystemConfig(prefetcher=args.prefetcher),
                    tracer=tracer)
    system.run(args.instructions)
    counts = tracer.counts()
    total = sum(counts.values())
    for category in sorted(counts):
        print("%-10s %8d events" % (category, counts[category]),
              file=sys.stderr)
    print("%-10s %8d events -> %s" % ("total", total, args.out),
          file=sys.stderr)
    return 0


def cmd_check(args):
    """Run one benchmark under the invariant sanitizer.

    Clean run: prints the check count and headline stats, exits 0.  On a
    violation the divergence sentinel replays from the last checkpoint
    with per-cycle full checks and prints a report naming the first bad
    cycle, exiting 1.  ``--inject-at CYCLE`` deliberately corrupts the
    microarchitectural state mid-run (the same deterministic damage as
    the ``corrupt-state`` fault verb) to demonstrate the pipeline.
    """
    import shutil
    import tempfile

    from repro.checkpoint.manager import Checkpointer
    from repro.sanitize.bisect import sentinel_run
    from repro.sanitize.checks import Sanitizer
    from repro.sim.system import System

    config = SystemConfig(prefetcher=args.prefetcher)
    benchmark = args.benchmark

    def factory():
        return System(build_workload(benchmark), config)

    sanitizer = Sanitizer(args.level, interval=args.interval,
                          snapshot_dir=args.snapshot_dir)
    tmpdir = tempfile.mkdtemp(prefix="repro-check-")
    try:
        every = args.checkpoint_every
        if every is None:
            # checkpoint at half the injection depth (so the bisect has a
            # pre-corruption state to replay from) or the package default
            every = max(1, args.inject_at // 2) if args.inject_at else None
        checkpointer = Checkpointer(
            os.path.join(tmpdir, "check.ckpt.json"),
            **({"every": every} if every is not None else {})
        )
        result, report = sentinel_run(
            factory, args.instructions, checkpointer=checkpointer,
            sanitizer=sanitizer, corrupt_at=args.inject_at,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if report is None:
        print("sanitizer: clean (%d checks at level=%s, interval=%d cycles)"
              % (sanitizer.checks_run, sanitizer.mode, sanitizer.interval))
        print("%-22s %s" % ("ipc", result.ipc))
        print("%-22s %s" % ("cycles", result.data["cycles"]))
        return 0
    print(report.describe(), file=sys.stderr)
    return 1


_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def _duration_seconds(text):
    """Argparse type: a duration like ``30d``, ``12h``, ``45m`` or bare
    seconds; strictly positive and finite.

    Accepted forms: a number with one optional trailing unit from
    ``s``/``m``/``h``/``d``/``w`` (seconds, minutes, hours, days,
    weeks; no unit means seconds).  ``nan``/``inf``, zero, negatives
    and anything malformed (mixed forms like ``1h30m``, stray text,
    empty input) raise :class:`argparse.ArgumentTypeError` naming the
    accepted units.
    """
    units = "/".join(sorted(_DURATION_UNITS, key=_DURATION_UNITS.get))
    malformed = argparse.ArgumentTypeError(
        "expected a positive duration: a number with an optional unit "
        "suffix %s (e.g. '30d', '12h', '45m', '90'), got %r"
        % (units, text)
    )
    raw = text.strip().lower()
    unit = 1
    if raw and raw[-1] in _DURATION_UNITS:
        unit = _DURATION_UNITS[raw[-1]]
        raw = raw[:-1]
    # float() accepts 'nan', 'inf' and '1_0'; none of them is a duration
    if not raw or raw[-1] not in "0123456789." or "_" in raw:
        raise malformed
    try:
        value = float(raw) * unit
    except ValueError:
        raise malformed
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(
            "expected a strictly positive finite duration, got %r "
            "(units: %s)" % (text, units)
        )
    return value


def cmd_cache(args):
    """Inspect or garbage-collect the on-disk result cache."""
    from repro.sim.runner import ExperimentRunner

    runner = ExperimentRunner(cache_dir=args.cache_dir)
    if args.gc:
        if args.older_than is None:
            print("error: --gc requires --older-than", file=sys.stderr)
            return 2
        summary = runner.cache_gc(args.older_than, kind=args.kind)
        print("removed %d entries (%.1f KB)"
              % (summary["removed"], summary["bytes"] / 1024.0))
        return 0
    stats = runner.cache_stats(kind=args.kind)
    if not stats:
        if args.kind:
            print("cache %s has no %r entries"
                  % (args.cache_dir, args.kind))
        else:
            print("cache %s is empty or missing" % args.cache_dir)
        return 0
    total_entries = 0
    total_bytes = 0
    print("%-10s %8s %12s" % ("KIND", "ENTRIES", "BYTES"))
    for kind in sorted(stats):
        entry = stats[kind]
        total_entries += entry["entries"]
        total_bytes += entry["bytes"]
        print("%-10s %8d %12d" % (kind, entry["entries"], entry["bytes"]))
    print("%-10s %8d %12d" % ("total", total_entries, total_bytes))
    return 0


def cmd_list(args):
    from repro.sim.catalog import catalog, render_catalog

    if args.json:
        import json as _json

        print(_json.dumps(catalog(), indent=2, sort_keys=True))
    else:
        print(render_catalog())
    return 0


# ----------------------------------------------------------------------
# serving


def _add_server_address(parser):
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default: 127.0.0.1)")
    parser.add_argument("--port", type=_positive_int, default=DEFAULT_PORT,
                        help="server port (default: %d)" % DEFAULT_PORT)


def cmd_serve(args):
    import asyncio
    import signal

    from repro.serve.server import JobServer

    async def body():
        server = JobServer(
            host=args.host, port=args.port, cache_dir=args.cache_dir,
            high_water=args.high_water, max_concurrent=args.max_concurrent,
            policy=_make_policy(args),
            max_instructions=args.max_instructions,
            heartbeat_interval=args.heartbeat,
            stats_path=args.stats_out, trace_path=args.trace_out,
            drain_grace=args.drain_grace,
            workers=args.workers, beat_interval=args.beat_interval,
        )
        await server.start()
        loop = asyncio.get_running_loop()

        def request_drain():
            loop.create_task(server.drain())

        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, request_drain)
        host, port = server.address
        # readiness line: scripts wait for this before submitting
        print("serving on %s:%d" % (host, port), flush=True)
        await server.wait_closed()
        print("drained; bye", file=sys.stderr)

    asyncio.run(body())
    return 0


def cmd_submit(args):
    from repro.serve.client import ServeClient, ServeError

    kwargs = {
        "instructions": args.instructions, "variant": args.variant,
        "priority": args.priority, "retries": args.retries,
        "on_error": args.on_error, "task_timeout": args.task_timeout,
        "deadline_ms": args.deadline_ms,
    }
    try:
        with ServeClient(args.host, args.port,
                         busy_retries=args.busy_retries) as client:
            if len(args.benchmarks) == 1 and len(args.prefetchers) == 1:
                ticket = client.submit(args.benchmarks[0],
                                       args.prefetchers[0], **kwargs)
            else:
                ticket = client.submit_sweep(args.benchmarks,
                                             args.prefetchers, **kwargs)
            job_id = ticket["job_id"]
            print("job %s%s (%d runs, queue depth %d)"
                  % (job_id,
                     " [coalesced]" if ticket.get("coalesced") else "",
                     ticket.get("runs", 0), ticket.get("queue_depth", 0)),
                  file=sys.stderr)
            if args.no_wait:
                print(job_id)
                return 0
            if args.stream:
                for event in client.stream(job_id):
                    fields = " ".join(
                        "%s=%s" % (key, event[key])
                        for key in ("done", "total", "elapsed", "error")
                        if key in event
                    )
                    print("[%s] %s %s" % (job_id, event.get("ev"), fields),
                          file=sys.stderr)
            reply = client.result(job_id, wait=True)
    except ServeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _print_submit_results(args, reply)
    return 0


def _print_submit_results(args, reply):
    results = reply.get("result") or []
    batch = reply.get("batch") or {}
    requests = [(benchmark, prefetcher)
                for benchmark in args.benchmarks
                for prefetcher in args.prefetchers]
    for (benchmark, prefetcher), result in zip(requests, results):
        if result is None:
            print("%-12s %-8s skipped" % (benchmark, prefetcher))
            continue
        ipc = result["instructions"] / max(1, result["cycles"])
        print("%-12s %-8s ipc=%.4f cycles=%d"
              % (benchmark, prefetcher, ipc, result["cycles"]))
    if batch:
        print("batch: %d cached, %d computed, %d retries, %d skipped"
              % (batch.get("hits", 0), batch.get("misses", 0),
                 batch.get("retries", 0), batch.get("skipped", 0)),
              file=sys.stderr)


def cmd_jobs(args):
    from repro.serve.client import ServeClient, ServeError

    try:
        with ServeClient(args.host, args.port) as client:
            if args.stats:
                stats = client.statz()
                for name in sorted(stats):
                    print("%-40s %s" % (name, stats[name]))
                return 0
            if args.workers:
                return _print_fleet(client.fleet())
            reply = client.jobs(limit=args.limit)
    except ServeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    jobs = reply.get("jobs") or []
    if not jobs:
        print("no jobs")
        return 0
    print("%-8s %-10s %-6s %5s %9s %8s %s"
          % ("JOB", "STATE", "KIND", "RUNS", "DONE", "CLIENTS", "AGE"))
    for snap in jobs:
        print("%-8s %-10s %-6s %5d %5d/%-3d %8d %6.1fs"
              % (snap["job_id"], snap["state"], snap["kind"],
                 snap["runs"], snap["done"], snap["runs"],
                 snap["clients"], snap["age_seconds"]))
    queued = reply.get("queued") or []
    if queued:
        print("queued order: %s" % ", ".join(queued), file=sys.stderr)
    return 0


def _print_fleet(reply):
    """Render the ``fleet`` endpoint: one row per member + breakers."""
    print("mode: %s" % reply.get("mode"), file=sys.stderr)
    print("%-7s %-8s %-9s %-8s %7s %9s %9s"
          % ("WORKER", "PID", "STATE", "JOB", "MISSED", "RESPAWNS",
             "DONE"))
    for row in reply.get("workers") or []:
        print("%-7d %-8s %-9s %-8s %7d %9d %9d"
              % (row["worker"], row.get("pid") or "-", row["state"],
                 row.get("job") or "-", row["beats_missed"],
                 row["respawns"], row["jobs_done"]))
    breakers = reply.get("breakers") or {}
    open_ones = {name: snap for name, snap in breakers.items()
                 if snap.get("state") != "closed"}
    if open_ones:
        for name, snap in sorted(open_ones.items()):
            print("breaker %-12s %s (failure rate %.2f over %d)"
                  % (name, snap["state"], snap["failure_rate"],
                     snap["events"]), file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="B-Fetch (MICRO-2014) reproduction simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark/prefetcher")
    run.add_argument("benchmark", choices=BENCHMARKS)
    run.add_argument("prefetcher", choices=PREFETCHER_NAMES)
    run.add_argument("--checkpoint-every", type=_positive_int, default=None,
                     metavar="CYCLES",
                     help="persist a resumable checkpoint every CYCLES "
                          "simulated cycles (default: REPRO_CKPT_EVERY "
                          "or 50000 when checkpointing is enabled)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="checkpoint directory (default: REPRO_CKPT_DIR "
                          "or .repro-checkpoints)")
    run.add_argument("--frontend", choices=FRONTEND_MODES, default="off",
                     help="decoupled front end mode (ftq = FTQ-driven "
                          "fetch with L1-I timing and shadow-branch "
                          "BTB fills)")
    run.add_argument("--iprefetcher", choices=IPREFETCHER_NAMES,
                     default="none",
                     help="I-side prefetcher (requires --frontend ftq)")
    run.add_argument("--resume", action="store_true",
                     help="resume from the checkpoint left by an "
                          "interrupted run (enables checkpointing; the "
                          "resume itself is automatic whenever a "
                          "checkpoint for this run exists)")
    _add_common(run)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare prefetchers")
    compare.add_argument("benchmark", choices=BENCHMARKS)
    compare.add_argument("--prefetchers", nargs="+",
                         default=["stride", "sms", "bfetch"],
                         choices=PREFETCHER_NAMES)
    _add_common(compare)
    compare.set_defaults(func=cmd_compare)

    mix = sub.add_parser("mix", help="run a multiprogrammed mix")
    mix.add_argument("apps", nargs="+", choices=BENCHMARKS)
    mix.add_argument("--prefetchers", nargs="+",
                     default=["none", "sms", "bfetch"],
                     choices=PREFETCHER_NAMES)
    _add_common(mix)
    mix.set_defaults(func=cmd_mix)

    frontend = sub.add_parser(
        "frontend",
        help="decoupled-front-end head-to-head (B-Fetch-I vs FDIP vs "
             "combined)",
    )
    frontend.add_argument("--benchmarks", nargs="+", choices=BENCHMARKS,
                          default=["nginx", "postgres", "verilator"],
                          help="workloads to compare on (default: the "
                               "code-footprint-heavy server profiles)")
    frontend.add_argument("--prefetcher", choices=PREFETCHER_NAMES,
                          default="none",
                          help="D-side prefetcher to run alongside")
    frontend.set_defaults(func=cmd_frontend)
    _add_common(frontend)

    table1 = sub.add_parser("table1", help="storage overhead accounting")
    table1.set_defaults(func=cmd_table1)

    stats = sub.add_parser(
        "stats",
        help="run fresh and print the hierarchical stats registry",
    )
    stats.add_argument("benchmark", choices=BENCHMARKS)
    stats.add_argument("prefetcher", choices=PREFETCHER_NAMES)
    stats.add_argument("-n", "--instructions", type=_positive_int,
                       default=100_000,
                       help="dynamic instructions to simulate")
    stats.add_argument("--filter", default=None, metavar="SUBSTRING",
                       help="only print stats whose dotted name contains "
                            "SUBSTRING (e.g. 'pf.' or 'mem.l1d')")
    stats.add_argument("--json", action="store_true",
                       help="emit the nested registry dump as JSON")
    stats.add_argument("--frontend", choices=FRONTEND_MODES, default="off",
                       help="decoupled front end mode")
    stats.add_argument("--iprefetcher", choices=IPREFETCHER_NAMES,
                       default="none",
                       help="I-side prefetcher (requires --frontend ftq)")
    stats.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="run fresh with the event tracer and write a JSONL trace",
    )
    trace.add_argument("benchmark", choices=BENCHMARKS)
    trace.add_argument("prefetcher", choices=PREFETCHER_NAMES)
    trace.add_argument("-n", "--instructions", type=_positive_int,
                       default=20_000,
                       help="dynamic instructions to simulate")
    trace.add_argument("--categories", default="all",
                       help="trace spec, e.g. 'all', 'bfetch', "
                            "'bfetch,cache:0.01' (category[:sample-rate])")
    trace.add_argument("--out", default="repro-trace.jsonl",
                       help="JSONL output path")
    trace.set_defaults(func=cmd_trace)

    check = sub.add_parser(
        "check",
        help="run under the invariant sanitizer; auto-bisect violations",
    )
    check.add_argument("benchmark", choices=BENCHMARKS)
    check.add_argument("prefetcher", choices=PREFETCHER_NAMES)
    check.add_argument("-n", "--instructions", type=_positive_int,
                       default=100_000,
                       help="dynamic instructions to simulate")
    check.add_argument("--level", choices=("cheap", "full"), default="full",
                       help="audit level (default: full)")
    check.add_argument("--interval", type=_positive_int, default=None,
                       metavar="CYCLES",
                       help="cycles between checks (default: 1024 for "
                            "full, 8192 for cheap)")
    check.add_argument("--checkpoint-every", type=_positive_int,
                       default=None, metavar="CYCLES",
                       help="checkpoint interval feeding the auto-bisect "
                            "replay (default: half of --inject-at, else "
                            "50000)")
    check.add_argument("--inject-at", type=_positive_int, default=None,
                       metavar="CYCLE",
                       help="deliberately corrupt microarchitectural "
                            "state at CYCLE to demonstrate detection "
                            "and first-bad-cycle bisection")
    check.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="dump the offending state here on a "
                            "violation (atomic, integrity-enveloped)")
    check.set_defaults(func=cmd_check)

    cache = sub.add_parser(
        "cache",
        help="inspect (--stats) or garbage-collect (--gc) the result "
             "cache",
    )
    cache.add_argument("cache_dir", help="cache directory to operate on")
    cache.add_argument("--stats", action="store_true",
                       help="print per-kind entry counts and byte totals "
                            "(the default action)")
    cache.add_argument("--gc", action="store_true",
                       help="evict entries older than --older-than; safe "
                            "against concurrent writers")
    cache.add_argument("--older-than", type=_duration_seconds, default=None,
                       metavar="AGE",
                       help="age threshold for --gc: '30d', '12h', '45m' "
                            "or bare seconds")
    cache.add_argument("--kind", default=None, metavar="KIND",
                       help="restrict --stats/--gc to one entry kind "
                            "('single' or 'mix'); 'ftrace' blobs left "
                            "by older trees go with --gc --kind ftrace "
                            "--older-than 1s")
    cache.set_defaults(func=cmd_cache)

    lister = sub.add_parser("list", help="list benchmarks and prefetchers")
    lister.add_argument("--json", action="store_true",
                        help="emit the machine-readable catalog "
                             "(schema repro-catalog-v1) as JSON")
    lister.set_defaults(func=cmd_list)

    serve = sub.add_parser(
        "serve",
        help="run the job server (submit/status/result/cancel/stream)",
    )
    _add_server_address(serve)
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory shared by every job")
    serve.add_argument("--high-water", type=_positive_int, default=64,
                       help="admission-queue bound; submissions past it "
                            "get a typed 'busy' error (default: 64)")
    serve.add_argument("--max-concurrent", type=_positive_int, default=2,
                       help="jobs executing simultaneously (default: 2; "
                            "ignored with --workers)")
    serve.add_argument("--workers", type=_nonnegative_int, default=0,
                       metavar="N",
                       help="run N supervised worker subprocesses with "
                            "heartbeat liveness + loss requeue (default: "
                            "0 = in-process tier)")
    serve.add_argument("--beat-interval", type=_positive_float,
                       default=1.0, metavar="SECONDS",
                       help="fleet worker heartbeat period (default: 1)")
    serve.add_argument("--max-instructions", type=_positive_int,
                       default=10_000_000,
                       help="per-run instruction budget cap")
    serve.add_argument("--heartbeat", type=_nonnegative_float, default=5.0,
                       help="seconds between heartbeat events for running "
                            "jobs; 0 disables (default: 5)")
    serve.add_argument("--drain-grace", type=_positive_float, default=30.0,
                       help="seconds a drain waits before cancelling "
                            "still-running jobs (default: 30)")
    serve.add_argument("--stats-out", default=None, metavar="PATH",
                       help="write the serve.* stats registry here as "
                            "JSON on drain")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="write a JSONL job-lifecycle trace here "
                            "('serve' category)")
    _add_resilience(serve)
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a run or sweep to a running job server",
    )
    submit.add_argument("benchmarks", nargs="+", choices=BENCHMARKS,
                        metavar="benchmark",
                        help="benchmark(s); several make a sweep")
    submit.add_argument("--prefetchers", nargs="+", default=["none"],
                        choices=PREFETCHER_NAMES,
                        help="prefetcher(s); several make a sweep "
                             "(default: none)")
    submit.add_argument("-n", "--instructions", type=_positive_int,
                        default=None,
                        help="dynamic instructions per run "
                             "(default: server default)")
    submit.add_argument("--variant", type=int, default=0,
                        help="workload variant seed (default: 0)")
    submit.add_argument("--priority", type=int, default=0,
                        help="queue priority, higher runs first "
                             "(default: 0)")
    submit.add_argument("--deadline-ms", type=_positive_int, default=None,
                        metavar="MS",
                        help="shed the job with a deadline-exceeded error "
                             "if not finished within MS milliseconds")
    submit.add_argument("--busy-retries", type=int, default=0,
                        metavar="N",
                        help="retry busy-class rejections (busy / "
                             "circuit-open) up to N times with "
                             "deterministic backoff (default: 0)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and exit without waiting")
    submit.add_argument("--stream", action="store_true",
                        help="print lifecycle events while waiting")
    _add_server_address(submit)
    _add_resilience(submit)
    submit.set_defaults(func=cmd_submit)

    jobs = sub.add_parser("jobs", help="list a running server's jobs")
    jobs.add_argument("--limit", type=_positive_int, default=50,
                      help="job summaries to fetch (default: 50)")
    jobs.add_argument("--stats", action="store_true",
                      help="dump the server's serve.* metrics instead")
    jobs.add_argument("--workers", action="store_true",
                      help="show one row per supervisor member (id, "
                           "state, current job, missed beats, respawns) "
                           "and any non-closed circuit breakers instead")
    _add_server_address(jobs)
    jobs.set_defaults(func=cmd_jobs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
