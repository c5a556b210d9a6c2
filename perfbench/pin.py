"""Regenerate ``digests.json``: the result digest of every operation any
workload can run, computed serially in one process without a disk cache::

    PYTHONPATH=src python3 perfbench/pin.py

Run it only on a tree whose simulated results are the reference; the
benchmark counts every result that differs from these digests as a
failed operation.
"""

import json
import sys

import plan


def main():
    from repro.sim.runner import ExperimentRunner

    digests = {}
    runner = ExperimentRunner(cache_dir=None, jobs=1)
    cells = []
    for workload in plan.SWEEPS:
        sweep = plan.SweepPlan(workload, 0)
        cells += sweep.cells
        for mix, prefetcher in sweep.mixes:
            results = runner.run_mix(mix, prefetcher, plan.MIX_INSTRUCTIONS)
            key = plan.mix_key(mix, prefetcher, plan.MIX_INSTRUCTIONS)
            digests[key] = plan.digest([r.as_dict() for r in results])
    cells += plan.serve_universe()
    results = runner.run_many([cell.request() for cell in cells])
    for cell, result in zip(cells, results):
        digests[cell.key] = plan.digest(result.as_dict())
    with open(plan.DIGESTS_PATH, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("pinned %d digests in %s" % (len(digests), plan.DIGESTS_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
