"""Micro-harness timing the simulator's hot paths.

Measures simulated-instructions-per-second for three components:

* ``functional`` -- the architectural interpreter alone
  (:class:`~repro.cpu.functional.Machine`);
* ``ooo`` -- the cycle-stepped timing core with the full memory
  hierarchy, no prefetcher;
* ``full_system`` -- the same plus the B-Fetch engine (lookahead walks,
  MHT/BrTC training, per-load filter), i.e. the Fig. 8 configuration.

plus an optional end-to-end *sweep* comparison that times a cold-cache
Fig. 8-style batch serially and through the parallel
:meth:`~repro.sim.ExperimentRunner.run_many` engine, and an optional
*serve* round-trip bench that boots the job server on a background
thread and measures jobs/s and p50/p95 latency for uncached (computed)
vs cached submissions.

Results are written as machine-readable ``BENCH_*.json`` files (schema
``repro-perf-v1``) under ``benchmarks/perf/`` so the repo accumulates a
perf trajectory over time; run via ``python -m repro bench-perf``.
"""

import datetime
import json
import os
import platform
import tempfile
import time

from repro.cpu.functional import Machine
from repro.obs import Profiler
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner, RunRequest
from repro.sim.system import System
from repro.workloads.spec import build_workload

SCHEMA = "repro-perf-v1"
COMPONENTS = ("functional", "ooo", "full_system")


def host_info():
    """Provenance block stamped into every BENCH point: interpreter,
    platform, CPU count and the repo's git revision (when available) --
    enough to know which machine and source produced a number."""
    info = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": None,
    }
    try:
        import subprocess
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
    except Exception:
        pass
    return info

# Fig. 8 prefetcher columns (stride / SMS / B-Fetch vs the baseline)
SWEEP_PREFETCHERS = ("none", "stride", "sms", "bfetch")


def bench_component(component, benchmark="libquantum", instructions=30_000):
    """Time one component; returns ``{instructions, seconds, instr_per_sec,
    phases}``.

    ``seconds``/``instr_per_sec`` cover the simulation loop only, keeping
    the payload comparable with older ``repro-perf-v1`` files; the
    ``phases`` block (a :class:`~repro.obs.Profiler` dump) additionally
    splits construction (workload build + system assembly) from the run
    so construction-cost regressions are visible too.
    """
    profiler = Profiler()
    with profiler.section("build"):
        workload = build_workload(benchmark)
        if component == "functional":
            target = Machine(workload.program, dict(workload.memory))
        elif component == "ooo":
            target = System(workload, SystemConfig(prefetcher="none"))
        elif component == "full_system":
            target = System(workload, SystemConfig(prefetcher="bfetch"))
        else:
            raise ValueError(
                "unknown component %r (choose from %s)"
                % (component, ", ".join(COMPONENTS))
            )
    with profiler.section("run", items=instructions):
        target.run(instructions)
    seconds = profiler.phases["run"].seconds
    return {
        "instructions": instructions,
        "seconds": seconds,
        "instr_per_sec": instructions / seconds if seconds else 0.0,
        "phases": profiler.as_dict(),
    }


def bench_sweep(benchmarks, prefetchers=SWEEP_PREFETCHERS,
                instructions=10_000, jobs=4, policy=None):
    """Cold-cache sweep wall-clock: serial vs parallel ``run_many``.

    Both passes use fresh temporary cache directories, so each measures a
    complete cold evaluation of ``len(benchmarks) x len(prefetchers)``
    runs.  Returns serial/parallel wall times, the speedup, a
    byte-identity flag comparing the two result sets, and the parallel
    pass's :class:`~repro.resilience.BatchReport` counters (so perf
    trajectories taken on flaky hosts record how much retrying they
    needed).

    :param policy: optional :class:`~repro.resilience.FailurePolicy`
        applied to both passes.
    """
    requests = [
        RunRequest(bench, prefetcher, instructions)
        for bench in benchmarks
        for prefetcher in prefetchers
    ]
    with tempfile.TemporaryDirectory() as serial_dir:
        serial_runner = ExperimentRunner(cache_dir=serial_dir, policy=policy)
        start = time.perf_counter()
        serial_results = serial_runner.run_many(requests, jobs=1)
        serial_seconds = time.perf_counter() - start
    with tempfile.TemporaryDirectory() as parallel_dir:
        parallel_runner = ExperimentRunner(cache_dir=parallel_dir,
                                           policy=policy)
        start = time.perf_counter()
        parallel_results = parallel_runner.run_many(requests, jobs=jobs)
        parallel_seconds = time.perf_counter() - start
    identical = [r.as_dict() for r in serial_results] == [
        r.as_dict() for r in parallel_results
    ]
    report = parallel_runner.last_report
    return {
        "runs": len(requests),
        "batch_report": report.as_dict() if report is not None else None,
        "benchmarks": list(benchmarks),
        "prefetchers": list(prefetchers),
        "instructions_per_run": instructions,
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "parallel_speedup": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "results_identical": identical,
    }


def bench_serve(benchmarks=("libquantum", "mcf"),
                prefetchers=("none", "bfetch"),
                instructions=4_000, clients=4, max_concurrent=2):
    """Job-server round-trip throughput: uncached vs cached phases.

    Boots a :class:`~repro.serve.ServerThread` on an ephemeral port with a
    fresh temporary cache, then drives it twice with *clients* concurrent
    :class:`~repro.serve.ServeClient` threads, each submitting its
    round-robin share of the ``len(benchmarks) x len(prefetchers)``
    single-run jobs and blocking on the result:

    * **uncached** -- the cold pass; every job simulates, so its latency
      is dominated by compute and the jobs/s number measures the server's
      end-to-end scheduling + execution path;
    * **cached** -- the identical submissions again; every job is served
      from the result cache in one probe pass, so its latency is pure
      service overhead (framing, admission, cache probe, reply).

    The gap between the two populations is the point of the split
    ``serve.latency.{cached,computed}`` windows (DESIGN.md §8); this
    bench records both, plus jobs/s per phase, straight from the server's
    ``statz`` registry so the numbers shown here are the numbers the
    server itself reports in production.
    """
    import threading

    from repro.serve import ServeClient, ServerThread

    pairs = [
        (bench, prefetcher)
        for bench in benchmarks
        for prefetcher in prefetchers
    ]

    def drive(address):
        """One phase: *clients* threads submit their share; returns secs."""
        errors = []

        def worker(idx):
            try:
                with ServeClient(address[0], address[1],
                                 timeout=300.0) as conn:
                    for j, (bench, prefetcher) in enumerate(pairs):
                        if j % clients != idx:
                            continue
                        conn.run(bench, prefetcher,
                                 instructions=instructions)
            except Exception as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(idx,))
            for idx in range(clients)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return time.perf_counter() - start

    def latency_block(stats, series):
        prefix = "serve.latency.%s." % series
        return {
            key[len(prefix):]: value
            for key, value in stats.items()
            if key.startswith(prefix)
        }

    with tempfile.TemporaryDirectory() as cache_dir:
        with ServerThread(cache_dir=cache_dir,
                          max_concurrent=max_concurrent) as server:
            uncached_seconds = drive(server.address)
            cached_seconds = drive(server.address)
            with ServeClient(server.address[0],
                             server.address[1]) as conn:
                stats = conn.statz()
    jobs = len(pairs)
    return {
        "jobs_per_phase": jobs,
        "benchmarks": list(benchmarks),
        "prefetchers": list(prefetchers),
        "instructions_per_run": instructions,
        "clients": clients,
        "max_concurrent": max_concurrent,
        "uncached_seconds": uncached_seconds,
        "cached_seconds": cached_seconds,
        "uncached_jobs_per_sec": (
            jobs / uncached_seconds if uncached_seconds else 0.0
        ),
        "cached_jobs_per_sec": (
            jobs / cached_seconds if cached_seconds else 0.0
        ),
        "latency": {
            "computed": latency_block(stats, "computed"),
            "cached": latency_block(stats, "cached"),
        },
        "runs_computed": stats.get("serve.runs.computed"),
        "cache_hits": stats.get("serve.runs.cache_hits"),
    }


def bench_fleet(benchmarks=("libquantum", "mcf"),
                prefetchers=("none", "bfetch"),
                instructions=4_000, variants=3,
                worker_counts=(1, 2, 4),
                chaos="worker-kill:0.3:seed=11"):
    """Fleet-tier throughput scaling, with and without worker chaos.

    For each worker count, boots a fresh fleet server (subprocess
    workers, cold cache) and drives the same ``len(benchmarks) x
    len(prefetchers) x variants`` single-run batch through one client,
    twice: a clean pass and a pass under *chaos* (``worker-kill``
    exported to the worker subprocesses).  Each phase records jobs/s
    plus the server's own ``serve.latency.computed`` p50/p99 and the
    ``serve.fleet.*`` recovery counters, so the numbers quantify two
    things at once:

    * **scaling** -- how jobs/s moves from 1 to 2 to 4 workers (process
      isolation buys real parallelism; the in-process tier shares the
      GIL);
    * **chaos tax** -- what sustained worker loss costs end to end when
      every kill is absorbed by requeue + cache-checkpoint resume
      (every job still completes; the phase asserts it).
    """
    from repro.serve import ServeClient, ServerThread

    grid = [
        (bench, prefetcher, variant)
        for bench in benchmarks
        for prefetcher in prefetchers
        for variant in range(variants)
    ]

    def phase(workers, faults):
        previous = os.environ.pop("REPRO_FAULTS", None)
        if faults:
            os.environ["REPRO_FAULTS"] = faults
        try:
            with tempfile.TemporaryDirectory() as cache_dir:
                with ServerThread(cache_dir=cache_dir, workers=workers,
                                  beat_interval=0.25,
                                  heartbeat_interval=0,
                                  high_water=len(grid) + 8) as server:
                    host, port = server.address
                    start = time.perf_counter()
                    with ServeClient(host, port, timeout=300.0) as conn:
                        tickets = [
                            conn.submit(bench, prefetcher,
                                        instructions=instructions,
                                        variant=variant)
                            for bench, prefetcher, variant in grid
                        ]
                        for ticket in tickets:
                            reply = conn.result(ticket["job_id"],
                                                wait=True)
                            assert reply["state"] == "done", reply
                        seconds = time.perf_counter() - start
                        stats = conn.statz()
        finally:
            if previous is None:
                os.environ.pop("REPRO_FAULTS", None)
            else:
                os.environ["REPRO_FAULTS"] = previous
        latency = {
            key[len("serve.latency.computed."):]: value
            for key, value in stats.items()
            if key.startswith("serve.latency.computed.")
        }
        return {
            "workers": workers,
            "chaos": bool(faults),
            "jobs": len(grid),
            "seconds": seconds,
            "jobs_per_sec": len(grid) / seconds if seconds else 0.0,
            "latency_p50": latency.get("p50"),
            "latency_p99": latency.get("p99"),
            "respawns": stats.get("serve.fleet.respawns"),
            "requeues": stats.get("serve.fleet.requeues"),
        }

    phases = []
    for workers in worker_counts:
        phases.append(phase(workers, None))
        phases.append(phase(workers, chaos))
    return {
        "benchmarks": list(benchmarks),
        "prefetchers": list(prefetchers),
        "instructions_per_run": instructions,
        "variants": variants,
        "chaos_spec": chaos,
        "phases": phases,
    }


def bench_load(requests=10_000, clients=32, instructions=2_000,
               benchmarks=("libquantum", "mcf"),
               prefetchers=("none", "stride", "bfetch"),
               variants=16, zipf_s=1.1, seed=7,
               chaos="host-kill:0.25:seed=11,cache-peer-corrupt:0.2:"
                     "seed=12"):
    """Cluster tier under a zipf-skewed synthetic client load.

    Builds a universe of ``len(benchmarks) x len(prefetchers) x
    variants`` distinct jobs and draws *requests* submissions from it
    under a Zipf(s) popularity law (rank-weighted ``1/rank**s``), the
    standard skew model for request traffic: a few hot cells dominate,
    a long tail stays cold.  The skew is what makes the cache tiers
    measurable -- hot cells coalesce on the server and hit the result
    cache; tail cells exercise compute and, across nodes, the
    cache-peer read-through path.

    Three phases, each on a fresh coordinator (cold cache) driven by
    *clients* concurrent client threads:

    * **1 node, clean** -- baseline throughput;
    * **2 nodes, clean** -- scaling plus cache-peer traffic;
    * **2 nodes, chaos** -- same under ``host-kill`` (nodes die at
      shard boundaries; a keeper thread respawns them, exercising
      requeue + reconnect replay) and ``cache-peer-corrupt`` (served
      replicas are corrupted on the wire and must be rejected by
      envelope verification, never trusted).

    Each phase records submissions/s, completed jobs/s, the server's
    own p50/p99 latency, coalesce rate, cache-peer hit rate, steals,
    requeues and degraded transitions.  Every submission must end
    ``done`` -- lost work fails the bench.
    """
    import random
    import threading

    from repro.serve import ServeClient, ServerThread
    from repro.serve.cluster.node import spawn_node

    universe = [
        (bench, prefetcher, variant)
        for bench in benchmarks
        for prefetcher in prefetchers
        for variant in range(variants)
    ]
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** zipf_s for rank in range(len(universe))]
    schedule = rng.choices(universe, weights=weights, k=requests)

    def phase(node_count, faults):
        previous = os.environ.pop("REPRO_FAULTS", None)
        if faults:
            os.environ["REPRO_FAULTS"] = faults
        nodes = []
        keeper_stop = threading.Event()
        respawns = [0]
        try:
            with tempfile.TemporaryDirectory() as cache_dir:
                with ServerThread(cache_dir=cache_dir, cluster=True,
                                  workers=1, beat_interval=0.25,
                                  heartbeat_interval=0,
                                  high_water=max(256, clients * 4),
                                  drain_grace=5.0) as server:
                    host, port = server.address
                    nodes.extend(
                        spawn_node((host, port), node_id="load-n%d" % i)
                        for i in range(node_count)
                    )

                    def keeper():
                        # a host supervisor: respawn dead node agents so
                        # chaos kills become churn, not permanent loss
                        while not keeper_stop.wait(0.5):
                            for i, proc in enumerate(nodes):
                                if proc.poll() is not None:
                                    respawns[0] += 1
                                    nodes[i] = spawn_node(
                                        (host, port),
                                        node_id="load-n%d" % i,
                                    )

                    threading.Thread(target=keeper, daemon=True).start()
                    with ServeClient(host, port, timeout=600.0) as probe:
                        for _ in range(200):
                            if len(probe.fleet().get("nodes") or []) \
                                    >= node_count:
                                break
                            time.sleep(0.1)
                        errors = []

                        def worker(idx):
                            try:
                                with ServeClient(host, port,
                                                 timeout=600.0,
                                                 busy_retries=8) as conn:
                                    for j, cell in enumerate(schedule):
                                        if j % clients != idx:
                                            continue
                                        bench, prefetcher, variant = cell
                                        ticket = conn.submit(
                                            bench, prefetcher,
                                            instructions=instructions,
                                            variant=variant,
                                        )
                                        reply = conn.result(
                                            ticket["job_id"], wait=True)
                                        assert reply["state"] == "done", \
                                            reply
                            except Exception as exc:
                                errors.append(exc)

                        threads = [
                            threading.Thread(target=worker, args=(idx,))
                            for idx in range(clients)
                        ]
                        start = time.perf_counter()
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join()
                        seconds = time.perf_counter() - start
                        if errors:
                            raise errors[0]
                        stats = probe.statz()
                        fleet = probe.fleet()
                    keeper_stop.set()
        finally:
            keeper_stop.set()
            for proc in nodes:
                if proc.poll() is None:
                    proc.terminate()
            for proc in nodes:
                try:
                    proc.wait(timeout=10)
                except Exception:  # noqa: BLE001
                    proc.kill()
            if previous is None:
                os.environ.pop("REPRO_FAULTS", None)
            else:
                os.environ["REPRO_FAULTS"] = previous
        latency = {
            key[len("serve.latency.all."):]: value
            for key, value in stats.items()
            if key.startswith("serve.latency.all.")
        }
        peer = fleet.get("peer_totals") or {}
        peer_lookups = peer.get("hits", 0) + peer.get("misses", 0)
        submitted = stats.get("serve.jobs.submitted", 0)
        completed = stats.get("serve.jobs.completed", 0)
        return {
            "nodes": node_count,
            "chaos": bool(faults),
            "submissions": submitted,
            "jobs_completed": completed,
            "seconds": seconds,
            "submissions_per_sec": submitted / seconds if seconds else 0.0,
            "jobs_per_sec": completed / seconds if seconds else 0.0,
            "coalesce_rate": (
                stats.get("serve.jobs.coalesced", 0) / submitted
                if submitted else 0.0
            ),
            "latency_p50": latency.get("p50"),
            "latency_p99": latency.get("p99"),
            "cache_hit_ratio": stats.get("serve.cache.hit_ratio"),
            "peer_hits": peer.get("hits", 0),
            "peer_corrupt_rejected": peer.get("corrupt", 0),
            "peer_hit_rate": (
                peer.get("hits", 0) / peer_lookups if peer_lookups
                else None
            ),
            "steals": stats.get("serve.cluster.steals"),
            "requeues": stats.get("serve.cluster.requeues"),
            "replayed": stats.get("serve.cluster.replayed"),
            "nodes_lost": stats.get("serve.cluster.nodes_lost"),
            "degraded_transitions": stats.get(
                "serve.cluster.degraded_transitions"),
            "node_respawns": respawns[0],
        }

    phases = [
        phase(1, None),
        phase(2, None),
        phase(2, chaos),
    ]
    return {
        "requests": requests,
        "clients": clients,
        "instructions_per_run": instructions,
        "universe": len(universe),
        "zipf_s": zipf_s,
        "seed": seed,
        "chaos_spec": chaos,
        "phases": phases,
    }


def run_perf_suite(benchmark="libquantum", instructions=30_000,
                   sweep_benchmarks=None, sweep_instructions=10_000,
                   jobs=4, label=None, policy=None, serve=False,
                   serve_instructions=4_000, load=False,
                   load_requests=10_000, load_clients=32,
                   load_instructions=2_000):
    """Run the component timings (and optional sweep); returns the payload.

    :param sweep_benchmarks: iterable of benchmark names to include in the
        serial-vs-parallel sweep comparison; None/empty skips the sweep.
    :param policy: optional :class:`~repro.resilience.FailurePolicy` for
        the sweep passes (retries/timeouts on flaky hosts).
    :param serve: when true, also run :func:`bench_serve` and
        :func:`bench_fleet`, attaching the job-server round-trip
        numbers under ``serve`` and the fleet scaling/chaos phases
        under ``fleet``.
    :param load: when true, also run :func:`bench_load` and attach the
        cluster-tier zipf load-generator numbers (jobs/s, p50/p99,
        cache-peer hit rate at 1 vs 2 nodes, with and without chaos)
        under the ``load`` key.
    """
    payload = {
        "schema": SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "label": label,
        "host": host_info(),
        "benchmark": benchmark,
        "components": {
            component: bench_component(component, benchmark, instructions)
            for component in COMPONENTS
        },
    }
    if sweep_benchmarks:
        payload["sweep"] = bench_sweep(
            sweep_benchmarks, instructions=sweep_instructions, jobs=jobs,
            policy=policy,
        )
    if serve:
        payload["serve"] = bench_serve(instructions=serve_instructions)
        payload["fleet"] = bench_fleet(instructions=serve_instructions)
    if load:
        payload["load"] = bench_load(
            requests=load_requests, clients=load_clients,
            instructions=load_instructions,
        )
    return payload


def default_output_dir():
    """``benchmarks/perf/`` when run from a repo checkout, else the CWD."""
    candidate = os.path.join(os.getcwd(), "benchmarks", "perf")
    if os.path.isdir(os.path.join(os.getcwd(), "benchmarks")):
        return candidate
    return os.getcwd()


def write_bench_json(payload, out_path=None):
    """Write *payload* to ``BENCH_<utc timestamp>.json``; returns the path."""
    if out_path is None:
        stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%d_%H%M%S"
        )
        out_path = os.path.join(default_output_dir(), "BENCH_%s.json" % stamp)
    directory = os.path.dirname(out_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out_path


def render_summary(payload):
    """Human-readable one-screen summary of a perf payload."""
    lines = ["perf suite: %s @ %d instructions"
             % (payload["benchmark"],
                payload["components"]["functional"]["instructions"])]
    for component in COMPONENTS:
        row = payload["components"][component]
        lines.append(
            "  %-12s %12.0f instr/s  (%.3fs)"
            % (component, row["instr_per_sec"], row["seconds"])
        )
    sweep = payload.get("sweep")
    if sweep:
        lines.append(
            "  sweep: %d runs  serial %.2fs  parallel(%d jobs) %.2fs  "
            "speedup %.2fx  identical=%s"
            % (sweep["runs"], sweep["serial_seconds"], sweep["jobs"],
               sweep["parallel_seconds"], sweep["parallel_speedup"],
               sweep["results_identical"])
        )
    serve = payload.get("serve")
    if serve:
        lines.append(
            "  serve: %d jobs/phase  uncached %.2f jobs/s  "
            "cached %.2f jobs/s"
            % (serve["jobs_per_phase"], serve["uncached_jobs_per_sec"],
               serve["cached_jobs_per_sec"])
        )
        for series in ("computed", "cached"):
            block = serve["latency"].get(series) or {}
            if block:
                lines.append(
                    "    latency.%-8s p50 %.4fs  p95 %.4fs  mean %.4fs"
                    % (series, block.get("p50", 0.0),
                       block.get("p95", 0.0), block.get("mean", 0.0))
                )
    fleet = payload.get("fleet")
    if fleet:
        lines.append(
            "  fleet: %d jobs/phase  chaos=%s"
            % (fleet["phases"][0]["jobs"], fleet["chaos_spec"])
        )
        for row in fleet["phases"]:
            lines.append(
                "    %d worker%s %-7s %6.2f jobs/s  p50 %.4fs  "
                "p99 %.4fs  respawns %s"
                % (row["workers"], "s" if row["workers"] != 1 else " ",
                   "chaos" if row["chaos"] else "clean",
                   row["jobs_per_sec"], row["latency_p50"] or 0.0,
                   row["latency_p99"] or 0.0, row["respawns"])
            )
    load = payload.get("load")
    if load:
        lines.append(
            "  load: %d submissions  %d clients  zipf(s=%.2f) over "
            "%d cells  chaos=%s"
            % (load["requests"], load["clients"], load["zipf_s"],
               load["universe"], load["chaos_spec"])
        )
        for row in load["phases"]:
            rate = row.get("peer_hit_rate")
            lines.append(
                "    %d node%s %-7s %8.2f subs/s  %6.2f jobs/s  "
                "p50 %.4fs  p99 %.4fs  coalesce %.2f  peer-hit %s  "
                "steals %s  requeues %s"
                % (row["nodes"], "s" if row["nodes"] != 1 else " ",
                   "chaos" if row["chaos"] else "clean",
                   row["submissions_per_sec"], row["jobs_per_sec"],
                   row["latency_p50"] or 0.0, row["latency_p99"] or 0.0,
                   row["coalesce_rate"],
                   "%.2f" % rate if rate is not None else "-",
                   row["steals"], row["requeues"])
            )
    return "\n".join(lines)
