"""One repetition of a sweep workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line::

    python perfbench/sweep_child.py --workload paper-sweep --seed 1 \\
        --spawned <time.time() at spawn> --cache-dir DIR \\
        [--trace | --reference-clock] [--tiny]

Set-up runs from the spawn timestamp to a constructed runner: importing
``repro``, building every workload the plan needs, and constructing the
``ExperimentRunner`` on the (empty) cache directory.  The cells then run
as one serial ``run_many`` batch and the mixes as one ``run_mix`` call
each; per-operation latency is the gap between consecutive batch
progress callbacks, or the ``run_mix`` call itself.  With
``--reference-clock`` every time is rescaled to the reference host speed
(see ``refclock.py``).
"""

import argparse
import json
import resource
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference-clock", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401 -- the import is part of set-up
    imported = time.perf_counter()

    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()

    import plan
    from refclock import RawClock, ReferenceClock
    from repro.sim.runner import ExperimentRunner
    from repro.workloads import build_workload

    sweep = plan.SweepPlan(args.workload, args.seed, tiny=args.tiny)
    for name in sweep.benchmarks:
        build_workload(name)
    runner = ExperimentRunner(cache_dir=args.cache_dir, jobs=1)
    setup_raw_s = time.time() - args.spawned
    clock = ReferenceClock() if args.reference_clock else RawClock()

    ops = []
    # one lap per segment: the cache probe, then one per computed cell
    gaps = []

    def progress(done, total):
        gaps.append(clock.lap())

    try:
        results = runner.run_many([cell.request() for cell in sweep.cells],
                                  progress=progress)
        error = None
    except Exception as exc:  # counted as failed operations
        results = [None] * len(sweep.cells)
        error = "%s: %s" % (type(exc).__name__, exc)
    gaps = gaps[1:]
    for index, (cell, result) in enumerate(zip(sweep.cells, results)):
        ops.append({
            "key": cell.key,
            "digest": plan.digest(result.as_dict()) if result else None,
            "ipc": result.ipc if result else None,
            "speedup_key": [cell.benchmark, cell.variant, cell.label],
            "latency_s": gaps[index] if index < len(gaps) else None,
            "error": error if result is None else None,
        })

    for mix, prefetcher in sweep.mixes:
        key = plan.mix_key(mix, prefetcher, plan.MIX_INSTRUCTIONS)
        clock.lap()
        try:
            results = runner.run_mix(mix, prefetcher, plan.MIX_INSTRUCTIONS)
            digest, error = plan.digest([r.as_dict() for r in results]), None
        except Exception as exc:
            digest, error = None, "%s: %s" % (type(exc).__name__, exc)
        ops.append({"key": key, "digest": digest, "ipc": None,
                    "speedup_key": None, "latency_s": clock.lap(),
                    "error": error})
    clock.lap()
    end = time.perf_counter()

    payload = {
        "setup_s": clock.scale_setup(setup_raw_s),
        "setup_raw_s": setup_raw_s,
        "wall_s": clock.total_s,
        "wall_raw_s": clock.raw_total_s,
        "host_factor": clock.host_factor(),
        # what a traced run covers: everything after the import
        "window_s": end - imported,
        # ru_maxrss is in KiB on Linux
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "trace": tracer.summary() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
