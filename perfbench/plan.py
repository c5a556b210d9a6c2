"""What each benchmark workload runs, and how results are fingerprinted.

Three workloads, each run in fresh interpreters on the default code path:

* ``paper-sweep`` -- the Fig. 8 grid (the 18 SPEC stand-ins, picked by
  profile class, x none/stride/sms/bfetch) through one serial
  ``ExperimentRunner.run_many`` batch, then two Fig. 10 mix-4s x the
  same four prefetchers through ``run_mix``;
* ``frontend-server`` -- nginx/postgres/verilator with the decoupled
  front end, x every I-prefetcher, D-side prefetcher ``none``;
* ``serve-zipf`` -- single-run submissions drawn with Zipf skew from a
  small universe of (benchmark, prefetcher, variant) cells.

Simulated results do not depend on execution order, so the seed only
shuffles the sweeps' cell order; for ``serve-zipf`` it draws every
submission of the schedule.  Every result is reduced to a digest and checked
against the digests pinned in ``digests.json`` (see ``pin.py``).
"""

import hashlib
import json
import os
import random

SWEEPS = ("paper-sweep", "frontend-server")
WORKLOADS = SWEEPS + ("serve-zipf",)

SWEEP_PREFETCHERS = ("none", "stride", "sms", "bfetch")
# two rows of benchmarks/results/fig10_mix4.txt: one irregular
# (pointer-chasing) mix and one streaming mix
MIXES = (
    ("astar", "mcf", "soplex", "sphinx"),
    ("bwaves", "leslie3d", "libquantum", "zeusmp"),
)
GRID_INSTRUCTIONS = 8_000
MIX_INSTRUCTIONS = 8_000

SERVER_BENCHMARKS = ("nginx", "postgres", "verilator")
IPREFETCHERS = ("none", "nextline-i", "fdip", "bfetch-i", "combined")
FRONTEND_INSTRUCTIONS = 40_000

SERVE_BENCHMARKS = ("gamess", "libquantum", "mcf", "soplex")
SERVE_PREFETCHERS = ("none", "stride", "bfetch")
SERVE_VARIANTS = (0, 1)
SERVE_INSTRUCTIONS = 2_000
SERVE_CLIENTS = 2
ZIPF_EXPONENT = 1.2
# submissions per client per round.  Every round replays the same
# schedule on a fresh server, so each computes the same misses: one per
# universe cell, about 2% of the submissions, which puts the p99 inside
# the computed population rather than on its edge
SCHEDULE_LENGTH = 600

# simulated speedup each workload reports as ``sim_speedup``:
# (numerator prefetcher, baseline prefetcher)
SPEEDUP_PAIR = {
    "paper-sweep": ("bfetch", "none"),
    "frontend-server": ("none+fdip", "none+none"),
    "serve-zipf": ("bfetch", "none"),
}
# the paper's Fig. 8 geomean B-Fetch speedup, printed as the published
# reference beside the simulated one (the model is not validated)
PAPER_FIG8_SPEEDUP = 1.232

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


def spec_benchmarks():
    """The 18 SPEC CPU2006 stand-ins: every profile that is not a server
    workload (``repro.workloads.BENCHMARKS`` also holds three)."""
    from repro.workloads.spec import PROFILES
    return tuple(sorted(name for name, profile in PROFILES.items()
                        if profile.klass != "server"))


def digest(data):
    """Order-independent fingerprint of a result payload."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode()).hexdigest()[:16]


def load_digests():
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


class Cell(object):
    """One single-core run: a ``RunRequest`` plus its stable key."""

    def __init__(self, benchmark, prefetcher, instructions,
                 iprefetcher=None, variant=0):
        self.benchmark = benchmark
        self.prefetcher = prefetcher
        self.instructions = instructions
        self.iprefetcher = iprefetcher
        self.variant = variant

    @property
    def label(self):
        """Prefetcher column: ``bfetch``, or ``none+fdip`` with a front end."""
        if self.iprefetcher is None:
            return self.prefetcher
        return "%s+%s" % (self.prefetcher, self.iprefetcher)

    @property
    def key(self):
        key = "single/%s/%s/%d" % (self.benchmark, self.label,
                                   self.instructions)
        if self.variant:
            key += "/v%d" % self.variant
        return key

    def request(self):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import RunRequest
        config = None
        if self.iprefetcher is not None:
            config = SystemConfig(prefetcher=self.prefetcher,
                                  frontend="ftq",
                                  iprefetcher=self.iprefetcher)
        return RunRequest(self.benchmark, self.prefetcher,
                          self.instructions, config, self.variant)


def mix_key(mix, prefetcher, instructions):
    return "mix/%s/%s/%d" % ("+".join(mix), prefetcher, instructions)


class SweepPlan(object):
    """The fixed operation list of one sweep workload.

    :ivar cells: single-core cells, run as one ``run_many`` batch.
    :ivar mixes: ``(mix, prefetcher)`` pairs, one ``run_mix`` call each.
    """

    def __init__(self, workload, seed, tiny=False):
        if workload == "paper-sweep":
            benchmarks = spec_benchmarks()
            mixes = MIXES
            if tiny:
                benchmarks = ("gamess", "mcf")
                mixes = MIXES[:1]
            self.cells = [Cell(bench, prefetcher, GRID_INSTRUCTIONS)
                          for bench in benchmarks
                          for prefetcher in SWEEP_PREFETCHERS]
            self.mixes = [(mix, prefetcher) for mix in mixes
                          for prefetcher in SWEEP_PREFETCHERS]
            self.benchmarks = tuple(sorted(
                set(benchmarks).union(*[set(mix) for mix in mixes])))
        elif workload == "frontend-server":
            benchmarks = SERVER_BENCHMARKS[:1] if tiny else SERVER_BENCHMARKS
            self.cells = [Cell(bench, "none", FRONTEND_INSTRUCTIONS,
                               iprefetcher=iprefetcher)
                          for bench in benchmarks
                          for iprefetcher in IPREFETCHERS]
            self.mixes = []
            self.benchmarks = tuple(benchmarks)
        else:
            raise ValueError("not a sweep workload: %r" % (workload,))
        # results are order-independent, so the seed only decides the
        # execution order
        rng = random.Random("perfbench-%s-%d" % (workload, seed))
        rng.shuffle(self.cells)
        rng.shuffle(self.mixes)


def serve_universe(tiny=False):
    """The (benchmark, prefetcher, variant) cells clients draw from."""
    benchmarks = SERVE_BENCHMARKS[:2] if tiny else SERVE_BENCHMARKS
    return [Cell(bench, prefetcher, SERVE_INSTRUCTIONS, variant=variant)
            for bench in benchmarks
            for prefetcher in SERVE_PREFETCHERS
            for variant in SERVE_VARIANTS]


def zipf_schedules(universe, seed, round_index=0, clients=SERVE_CLIENTS,
                   length=SCHEDULE_LENGTH):
    """One submission sequence per client, drawn with Zipf skew.

    Which cells are popular is fixed (one constant shuffle of the
    universe), so the costly cells sit at the same ranks for every seed;
    the seed and the round index draw every submission, so a run can be
    repeated on a hold-out seed.  Each round draws afresh: where the
    misses fall, and whether two of them overlap, then varies from round
    to round, and the median over a run's rounds does not hang on one
    draw.
    """
    ranked = list(universe)
    random.Random("perfbench-serve-zipf-ranks").shuffle(ranked)
    weights = [1.0 / (rank ** ZIPF_EXPONENT)
               for rank in range(1, len(ranked) + 1)]
    rng = random.Random("perfbench-serve-zipf-%d-%d" % (seed, round_index))
    return [rng.choices(ranked, weights=weights, k=length)
            for _ in range(clients)]


def geomean_speedup(ipcs, workload):
    """Geomean IPC ratio of the workload's speedup pair.

    :param ipcs: ``{(benchmark, variant, label): ipc}``.
    """
    numerator, baseline = SPEEDUP_PAIR[workload]
    product = 1.0
    count = 0
    for (bench, variant, label), ipc in sorted(ipcs.items()):
        if label != numerator:
            continue
        base = ipcs.get((bench, variant, baseline))
        if base:
            product *= ipc / base
            count += 1
    return product ** (1.0 / count) if count else 0.0
