"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \\
        --seconds 30 --trace 0

Workloads (see ``plan.py`` and ``README.md``): ``paper-sweep``,
``frontend-server`` and ``serve-zipf``.  ``--trace 0`` measures the
end-to-end metrics on untraced fresh interpreters; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer split.  Every
result is checked against the digests pinned in ``digests.json``.

The report is a human-readable table followed, on the last stdout line,
by one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program exits non-zero without a result when the
simulator sources (``src/repro``) are missing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

CHILD_TIMEOUT_S = 150
# sweep repetitions (serve rounds) per --trace 0 run, at least:
# medians need samples
MIN_REPS = 3
# per-client submissions of a --tiny serve-zipf round
TINY_SCHEDULE = 200
# parts a serve-zipf round is played in, with a probe after each: a part
# lasts about a tenth of a second, short next to the host's slow spells
SERVE_SLICES = 8

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("sim_speedup", "x"),
)

SERVE_LAYER = (
    ("serve.submit_ack_ms_p50", "ms"),
    ("serve.result_wait_ms_p50", "ms"),
    ("serve.result_wait_ms_p99", "ms"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.runs_computed", "count"),
    ("serve.server_latency_cached_p50_ms", "ms"),
    ("serve.server_latency_computed_p50_ms", "ms"),
    ("serve.busy_rejections", "count"),
)


def per_layer_units():
    """``(name, unit)`` for every per-layer metric, in report order."""
    from layers import LAYER_NAMES
    units = []
    for layer in LAYER_NAMES:
        units += [(layer + ".calls", "count"), (layer + ".self_s", "s"),
                  (layer + ".share", "ratio")]
    units += [
        ("trace.overhead_ratio", "x"),
        ("trace.unattributed_share", "ratio"),
        ("core.bfetch.walk_depth0_ratio", "ratio"),
        ("core.bfetch.accuracy", "ratio"),
        ("prefetchers.accuracy", "ratio"),
        ("branch.mispredict_rate", "ratio"),
        ("memory.l1d_mpki", "1/kinstr"),
        ("memory.llc_mpki", "1/kinstr"),
        ("cpu.ooo.rob_full_stalls_pki", "1/kinstr"),
        ("frontend.ftq_occupancy", "entries"),
        ("frontend.l1i_coverage", "ratio"),
    ]
    return units + list(SERVE_LAYER)


def quantile(values, q):
    from repro.serve.metrics import quantile as _quantile
    return _quantile(values, q)


def median_quantile_ms(samples, q):
    """Median over rounds of each round's *q* quantile, in ms."""
    return 1000.0 * statistics.median(quantile(values, q)
                                      for values in samples)


class Tally(object):
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def check(self, label, ok, why="digest mismatch"):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append("%s: %s" % (label, why))


def hermetic_env(tmp):
    """Child environment: no ``REPRO_*`` knob, so every run takes the
    default path (lockstep execution, no replay or batch kernel, the
    in-process serve tier); returns ``(env, removed names)``."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    env = {name: value for name, value in os.environ.items()
           if name not in removed}
    env["PYTHONPATH"] = SRC
    # fixed string hashing: one less layout difference between runs
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env, removed


def repeat(measure, args):
    """Call *measure* until ``--seconds`` are used up, at least
    :data:`MIN_REPS` times (once with ``--tiny``); a call is not started
    when the previous one says it would end past the budget."""
    min_reps = 1 if args.tiny else MIN_REPS
    results = []
    start = last = time.perf_counter()
    duration = 0.0
    while (len(results) < min_reps
           or last - start + duration <= args.seconds):
        results.append(measure())
        now = time.perf_counter()
        duration, last = now - last, now
    return results


def reference_note(reps):
    """How far the host ran from the reference speed, and the raw times."""
    return ("times rescaled to the reference host speed (refclock.py): "
            "median probe / reference %.3f; raw setup_s %.4f, raw wall_s %.4f"
            % tuple(statistics.median(rep[name] for rep in reps) for name in
                    ("host_factor", "setup_raw_s", "wall_raw_s")))


# ----------------------------------------------------------------------
# sweeps


def run_child(args, env, tmp, trace=False):
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    cmd = [sys.executable, os.path.join(HERE, "sweep_child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--cache-dir", cache_dir]
    if trace:
        cmd.append("--trace")
    elif not args.trace:
        cmd.append("--reference-clock")
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned", repr(time.time())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError("sweep child exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_rep(rep, pinned, expected, tally):
    """Digest-check one repetition; returns ``{key: digest}``."""
    seen = {}
    for op in rep["ops"]:
        seen[op["key"]] = op["digest"]
        tally.check(op["key"], op["error"] is None
                    and op["digest"] == pinned.get(op["key"]),
                    op["error"] or "digest mismatch")
    for key in sorted(set(expected) - set(seen)):
        tally.check(key, False, "not run")
    return seen


def run_sweep(args, env, tmp, pinned, tally, notes):
    import plan
    sweep = plan.SweepPlan(args.workload, args.seed, tiny=args.tiny)
    expected = [cell.key for cell in sweep.cells] + [
        plan.mix_key(mix, pf, plan.MIX_INSTRUCTIONS)
        for mix, pf in sweep.mixes]
    notes.append("operations per repetition: %d (%d cells, %d mixes)"
                 % (len(expected), len(sweep.cells), len(sweep.mixes)))
    if args.trace:
        untraced = run_child(args, env, tmp)
        traced = run_child(args, env, tmp, trace=True)
        same = (check_rep(untraced, pinned, expected, tally)
                == check_rep(traced, pinned, expected, tally))
        tally.check("traced run", same, "digests differ from untraced")
        notes.append("traced digests equal untraced: %s" % same)
        from layers import layer_metrics
        values = layer_metrics(traced["trace"],
                               traced["window_s"] / untraced["window_s"])
        values.update({name: 0 for name, _ in SERVE_LAYER})
        return values

    def measure():
        rep = run_child(args, env, tmp)
        check_rep(rep, pinned, expected, tally)
        return rep

    reps = repeat(measure, args)
    # every repetition runs the same operations: each one's latency is
    # its median over the repetitions, which a garbage collection or a
    # slow spell in one repetition cannot move
    per_op = {}
    for rep in reps:
        for op in rep["ops"]:
            if op["latency_s"] is not None:
                per_op.setdefault(op["key"], []).append(op["latency_s"])
    latencies = [statistics.median(values) for values in per_op.values()]
    notes.append("repetitions: %d; operations with a latency: %d, each "
                 "the median of its repetitions" % (len(reps), len(latencies)))
    notes.append(reference_note(reps))
    ipcs = {tuple(op["speedup_key"]): op["ipc"] for op in reps[0]["ops"]
            if op["speedup_key"] is not None and op["ipc"]}
    speedup = plan.geomean_speedup(ipcs, args.workload)
    numerator, baseline = plan.SPEEDUP_PAIR[args.workload]
    notes.append("sim_speedup = geomean IPC(%s)/IPC(%s) over %s"
                 % (numerator, baseline, ", ".join(sorted(set(
                     cell.benchmark for cell in sweep.cells)))))
    if args.workload == "paper-sweep":
        notes.append("sim_speedup_bfetch %.4f (paper Fig. 8 geomean %.3f, "
                     "published reference, not an error figure)"
                     % (speedup, plan.PAPER_FIG8_SPEEDUP))
    else:
        notes.append("sim_speedup_fdip %.4f" % speedup)
    return {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * quantile(latencies, 0.99),
        "jobs_per_s": statistics.median(len(rep["ops"]) / rep["wall_s"]
                                        for rep in reps),
        "sim_speedup": speedup,
    }


# ----------------------------------------------------------------------
# serve-zipf


def serve_round(env, tmp, schedules, pinned, tally, trace_out=None,
                clock=None):
    """One round: a fresh server (timed from spawn to ready) plays every
    client's schedule, is asked for ``statz`` and stopped.  With a
    :class:`~refclock.ReferenceClock`, set-up is rescaled by the probes
    around it, and each slice of the schedules by the probes around it."""
    import serve_load
    from refclock import RawClock
    clock = clock or RawClock()
    server = serve_load.Server(env, tmp, trace_out=trace_out).start()
    try:
        clock.lap()
        setup_scale = clock.last_scale
        raw_before = clock.raw_total_s

        def lap():
            clock.lap()
            return clock.last_scale

        records, wall = serve_load.drive(server, schedules, CHILD_TIMEOUT_S,
                                         lap, slices=SERVE_SLICES)
        wall_raw = clock.raw_total_s - raw_before
        stats = serve_load.statz(server)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    digests = {}
    for record in records:
        key = record.cell.key
        tally.check(key, record.error is None
                    and record.digest == pinned.get(key),
                    record.error or "digest mismatch")
        digests[key] = record.digest
    return {"setup_s": server.setup_s * setup_scale, "wall_s": wall,
            "setup_raw_s": server.setup_s,
            "wall_raw_s": wall_raw,
            "host_factor": clock.host_factor(), "rss_mb": rss,
            "done": [r for r in records if r.error is None],
            "stats": stats, "digests": digests}


def serve_layer(one):
    """Client- and statz-side serve metrics of one round."""
    done, stats = one["done"], one["stats"]
    return {
        "serve.submit_ack_ms_p50": 1000.0 * quantile(
            [r.ack_s for r in done], 0.50),
        "serve.result_wait_ms_p50": 1000.0 * quantile(
            [r.wait_s for r in done], 0.50),
        "serve.result_wait_ms_p99": 1000.0 * quantile(
            [r.wait_s for r in done], 0.99),
        "serve.coalesce_ratio": (sum(r.coalesced for r in done)
                                 / max(1, len(done))),
        "serve.cache_hit_ratio": stats.get("serve.cache.hit_ratio", 0.0),
        "serve.runs_computed": stats.get("serve.runs.computed", 0),
        "serve.server_latency_cached_p50_ms": 1000.0 * stats.get(
            "serve.latency.cached.p50", 0.0),
        "serve.server_latency_computed_p50_ms": 1000.0 * stats.get(
            "serve.latency.computed.p50", 0.0),
        "serve.busy_rejections": stats.get("serve.jobs.rejected_busy", 0),
    }


def run_serve(args, env, tmp, pinned, tally, notes):
    import plan
    universe = plan.serve_universe(tiny=args.tiny)
    length = TINY_SCHEDULE if args.tiny else plan.SCHEDULE_LENGTH
    # the server (a child) and its clients share one CPU, so the probes
    # this process makes between slices time the CPU the server ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def measure():
        from refclock import RawClock, ReferenceClock
        clock = RawClock() if args.trace else ReferenceClock()
        schedules = plan.zipf_schedules(universe, args.seed, len(rounds),
                                        length=length)
        rounds.append(serve_round(env, tmp, schedules, pinned, tally,
                                  clock=clock))

    rounds = []
    if args.trace:
        measure()
    else:
        repeat(measure, args)

    stats = rounds[0]["stats"]
    notes.append(
        "seed %d; universe %d cells; %d clients x %d submissions "
        "(closed loop); per round: %d distinct cells, cache hits %s, "
        "misses %s, coalesced %d"
        % (args.seed, len(universe), plan.SERVE_CLIENTS, length,
           len(rounds[0]["digests"]), stats.get("serve.runs.cache_hits"),
           stats.get("serve.runs.computed"),
           sum(r.coalesced for r in rounds[0]["done"])))
    if args.trace:
        trace_out = os.path.join(tmp, "serve-trace.json")
        traced = serve_round(env, tmp,
                             plan.zipf_schedules(universe, args.seed, 0,
                                                 length=length),
                             pinned, tally, trace_out=trace_out)
        same = traced["digests"] == rounds[0]["digests"]
        tally.check("traced run", same, "digests differ from untraced")
        notes.append("traced digests equal untraced: %s" % same)
        with open(trace_out) as handle:
            summary = json.load(handle)
        from layers import layer_metrics
        values = layer_metrics(summary,
                               traced["wall_s"] / rounds[0]["wall_s"])
        values.update(serve_layer(rounds[0]))
        return values

    totals = [[(r.ack_s + r.wait_s) * r.scale for r in one["done"]]
              for one in rounds]
    notes.append("rounds: %d, each its own draw; latency samples per "
                 "round: %d" % (len(rounds), len(totals[0])))
    notes.append(reference_note(rounds))
    ipcs = {(r.cell.benchmark, r.cell.variant, r.cell.label): r.ipc
            for one in rounds for r in one["done"]}
    notes.append("sim_speedup = geomean IPC(bfetch)/IPC(none) over the "
                 "universe's (benchmark, variant) pairs")
    return {
        "setup_s": statistics.median(one["setup_s"] for one in rounds),
        "wall_s": statistics.median(one["wall_s"] for one in rounds),
        "peak_rss_mb": statistics.median(one["rss_mb"] for one in rounds),
        "latency_p50_ms": median_quantile_ms(totals, 0.50),
        "latency_p99_ms": median_quantile_ms(totals, 0.99),
        "jobs_per_s": statistics.median(len(one["done"]) / one["wall_s"]
                                        for one in rounds),
        "sim_speedup": plan.geomean_speedup(ipcs, "serve-zipf"),
    }


# ----------------------------------------------------------------------


def provenance(removed):
    from repro.perf.harness import host_info
    info = host_info()
    info["nproc"] = os.cpu_count()
    info["loadavg"] = list(os.getloadavg())
    info["removed_env"] = removed
    return info


def report(args, values, tally, notes, info):
    units = END_TO_END if not args.trace else per_layer_units()
    print("== perfbench %s (seed %d, %s) =="
          % (args.workload, args.seed,
             "traced per-layer" if args.trace else "end-to-end"))
    print("provenance: %s" % json.dumps(info, sort_keys=True))
    for note in notes:
        print("note: %s" % note)
    for name, unit in units:
        print("  %-40s %16.6f %s" % (name, values[name], unit))
    print("operations: %d attempted, %d failed" % (tally.attempted,
                                                   tally.failed))
    for example in tally.examples:
        print("  failed: %s" % example)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }
    print(json.dumps(result))


def main(argv=None):
    import plan
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few cells, short "
                             "schedules, one repetition")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no simulator sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    pinned = plan.load_digests()

    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        env, removed = hermetic_env(tmp)
        info = provenance(removed)
        tally = Tally()
        notes = []
        if args.workload in plan.SWEEPS:
            values = run_sweep(args, env, tmp, pinned, tally, notes)
        else:
            values = run_serve(args, env, tmp, pinned, tally, notes)
        report(args, values, tally, notes, info)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # another run still uses it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
