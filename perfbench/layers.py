"""Per-layer host-time attribution for the benchmark's traced runs.

:meth:`Tracer.install` replaces the public methods of each simulator
layer (named after its ``src/repro/`` module) with a timing wrapper, at
class level, before any system is built.  Every call is a span; spans
nest on a per-thread stack, and a layer's *self time* is its spans'
duration minus the part covered by child spans.  Spans are folded into
per-layer ``calls``/``self_s`` totals as they close rather than kept one
by one, so a traced sweep of millions of calls stays small.

An ``on_*`` hook is wrapped only where a class overrides the base-class
no-op.  The core skips a prefetcher's base ``on_commit`` and
``on_branch_decode`` entirely and the front end calls the I-side base
no-ops, so wrapping a base class would both defeat that elision and count
calls that do no work; ``none`` cells therefore show zero prefetcher
calls.  ``drain`` and ``feedback`` run only for queued or prefetched
lines, so they are wrapped on each listed prefetcher class even when
inherited.

The wrappers also read the simulated counters that ``RunResult`` does
not carry (B-Fetch walk depths, ROB-full stalls) off each system when
its run returns, together with the ratios the per-layer report pairs
with host time.
"""

import importlib
import sys
import threading
import time

# (layer, module, class name or None for a module function, methods)
LAYERS = (
    ("cpu.functional", "repro.cpu.functional", "Machine", ("step",)),
    ("cpu.ooo", "repro.cpu.ooo", "OutOfOrderCore",
     ("run", "run_until", "step_cycle")),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy",
     ("load", "store", "ifetch", "ifetch_demand", "prefetch",
      "prefetch_instr", "access_oracle")),
    ("branch", "repro.branch.tournament", "TournamentPredictor",
     ("predict", "update")),
    ("branch", "repro.branch.confidence", "CompositeConfidenceEstimator",
     ("update", "probability")),
    ("branch", "repro.branch.btb", "BranchTargetBuffer",
     ("lookup", "update", "peek")),
    ("core", "repro.core.bfetch", "BFetchPrefetcher",
     ("on_commit", "on_branch_decode", "on_load", "feedback", "drain")),
    ("prefetchers", "repro.prefetchers.stride", "StridePrefetcher",
     ("on_load", "on_store", "on_l1d_eviction", "feedback", "drain")),
    ("prefetchers", "repro.prefetchers.sms", "SMSPrefetcher",
     ("on_load", "on_store", "on_l1d_eviction", "feedback", "drain")),
    ("frontend", "repro.frontend.frontend", "DecoupledFrontEnd",
     ("tick", "demand_fetch", "redirect")),
    ("frontend", "repro.frontend.iprefetch", "IPrefetcher", ("drain",)),
    ("frontend", "repro.frontend.iprefetch", "NextLineIPrefetcher",
     ("on_ifetch",)),
    ("frontend", "repro.frontend.iprefetch", "FDIPPrefetcher", ("on_ftq",)),
    ("frontend", "repro.frontend.iprefetch", "BFetchIPrefetcher",
     ("on_commit", "on_branch_decode")),
    ("frontend", "repro.frontend.iprefetch", "CombinedIPrefetcher",
     ("on_ftq",)),
    ("sim.cmp", "repro.sim.cmp", "CMPSystem", ("run",)),
    ("sim.system", "repro.sim.system", "System", ("__init__", "run")),
    ("sim.runner", "repro.sim.runner", "ExperimentRunner",
     ("run_batch", "run_mix")),
    ("workloads", "repro.workloads.spec", None, ("build_workload",)),
)

LAYER_NAMES = tuple(sorted(set(entry[0] for entry in LAYERS)))

# simulated counters summed over every finished system
COUNTERS = (
    "retired", "cond_branches", "mispredicts", "rob_full_stalls",
    "l1d_misses", "llc_misses", "bfetch_walks", "bfetch_depth0",
    "bfetch_hits", "bfetch_resolved", "pf_hits", "pf_resolved",
    "ftq_occupancy_sum", "ftq_samples", "l1i_prefetch_useful",
    "l1i_misses",
)

_WRAPPED = "__perfbench_layer__"


class _ThreadState(object):
    __slots__ = ("stack", "calls", "self_s")

    def __init__(self):
        self.stack = []
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)


class Tracer(object):
    """Span aggregation plus simulated counters for one process."""

    def __init__(self):
        self._states = {}
        self._lock = threading.Lock()
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.started = None

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap every layer's public methods; call before building any
        system (cores bind prefetcher hooks at construction)."""
        from repro.frontend.iprefetch import IPrefetcher
        from repro.prefetchers.base import Prefetcher
        for layer, module_name, class_name, methods in LAYERS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in methods:
                    self._wrap_function(module, name, layer)
                continue
            cls = getattr(module, class_name)
            for name in methods:
                original = getattr(cls, name)
                if name.startswith("on_") and any(
                        original is base.__dict__.get(name)
                        for base in (Prefetcher, IPrefetcher)):
                    continue
                if getattr(original, _WRAPPED, None) is not None:
                    continue
                after = None
                if (class_name, name) == ("System", "run"):
                    after = self._capture_system
                elif (class_name, name) == ("CMPSystem", "run"):
                    after = self._capture_cmp
                setattr(cls, name, self._wrap(original, layer, after))
        self.started = time.perf_counter()

    def _wrap_function(self, module, name, layer):
        """Module functions are also bound by ``from ... import`` in
        other modules, so every alias of the original is replaced."""
        original = getattr(module, name)
        wrapper = self._wrap(original, layer)
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, name, None) is original):
                setattr(loaded, name, wrapper)

    def _state(self):
        ident = threading.get_ident()
        state = self._states.get(ident)
        if state is None:
            with self._lock:
                state = self._states.setdefault(ident, _ThreadState())
        return state

    def _wrap(self, original, layer, after=None):
        clock = time.perf_counter
        state_of = self._state

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                state.calls[layer] += 1
                state.self_s[layer] += elapsed - frame[0]
                if after is not None:
                    after(args[0])

        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(wrapper, _WRAPPED, layer)
        return wrapper

    # ------------------------------------------------------------------
    # simulated counters

    def _capture_cmp(self, cmp_system):
        # the cores share one LLC: count it once
        for system in cmp_system.systems:
            self._capture_system(system, own_llc=False)
        with self._lock:
            self.counters["llc_misses"] += cmp_system.llc.stats.misses

    def _capture_system(self, system, own_llc=True):
        core = system.core
        hierarchy = system.hierarchy
        prefetcher = system.prefetcher
        with self._lock:
            add = self.counters
            add["retired"] += core.retired
            add["cond_branches"] += core.cond_branches
            add["mispredicts"] += core.mispredicts
            add["rob_full_stalls"] += core.rob_full_stalls
            add["l1d_misses"] += hierarchy.l1d.stats.misses
            if own_llc:
                add["llc_misses"] += hierarchy.llc.stats.misses
            stats = prefetcher.stats
            demanded = stats.useful + stats.late
            if hasattr(prefetcher, "depth_hist"):
                add["bfetch_walks"] += prefetcher.walks
                add["bfetch_depth0"] += prefetcher.depth_hist[0]
                add["bfetch_hits"] += demanded
                add["bfetch_resolved"] += demanded + stats.useless
            elif prefetcher.name != "none":
                add["pf_hits"] += demanded
                add["pf_resolved"] += demanded + stats.useless
            frontend = core.frontend
            if frontend is not None:
                add["ftq_occupancy_sum"] += frontend.occupancy_sum
                add["ftq_samples"] += frontend.occupancy_samples
                l1i = hierarchy.l1i.stats
                add["l1i_prefetch_useful"] += l1i.prefetch_useful
                add["l1i_misses"] += l1i.misses

    # ------------------------------------------------------------------

    def summary(self):
        """JSON-ready totals: per-layer calls/self time, the traced wall
        time since :meth:`install`, and the simulated counters."""
        wall = time.perf_counter() - self.started
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        with self._lock:
            states = list(self._states.values())
        for state in states:
            for layer in LAYER_NAMES:
                calls[layer] += state.calls[layer]
                self_s[layer] += state.self_s[layer]
        return {
            "wall_s": wall,
            "layers": {layer: {"calls": calls[layer],
                               "self_s": self_s[layer]}
                       for layer in LAYER_NAMES},
            "counters": dict(self.counters),
        }


def _ratio(numerator, denominator, scale=1.0):
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(summary, overhead_ratio):
    """Per-layer metric values (no units) from a :meth:`Tracer.summary`
    and the traced-over-untraced wall-time ratio."""
    wall = summary["wall_s"]
    values = {}
    attributed = 0.0
    for layer in LAYER_NAMES:
        entry = summary["layers"][layer]
        values[layer + ".calls"] = entry["calls"]
        values[layer + ".self_s"] = entry["self_s"]
        values[layer + ".share"] = _ratio(entry["self_s"], wall)
        attributed += entry["self_s"]
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(attributed,
                                                               wall))
    c = summary["counters"]
    values.update({
        "core.bfetch.walk_depth0_ratio": _ratio(c["bfetch_depth0"],
                                                c["bfetch_walks"]),
        "core.bfetch.accuracy": _ratio(c["bfetch_hits"],
                                       c["bfetch_resolved"]),
        "prefetchers.accuracy": _ratio(c["pf_hits"], c["pf_resolved"]),
        "branch.mispredict_rate": _ratio(c["mispredicts"],
                                         c["cond_branches"]),
        "memory.l1d_mpki": _ratio(c["l1d_misses"], c["retired"], 1000.0),
        "memory.llc_mpki": _ratio(c["llc_misses"], c["retired"], 1000.0),
        "cpu.ooo.rob_full_stalls_pki": _ratio(c["rob_full_stalls"],
                                              c["retired"], 1000.0),
        "frontend.ftq_occupancy": _ratio(c["ftq_occupancy_sum"],
                                         c["ftq_samples"]),
        "frontend.l1i_coverage": _ratio(
            c["l1i_prefetch_useful"],
            c["l1i_prefetch_useful"] + c["l1i_misses"]),
    })
    return values
