"""Machine-readable catalog of everything the simulator can run.

One shared registry of benchmarks, prefetchers and branch predictors,
consumed by three frontends so they can never drift apart:

* ``python -m repro list`` (text and ``--json`` modes);
* the job server's ``catalog`` endpoint (:mod:`repro.serve.server`),
  which also uses it to *validate* incoming submissions before any
  simulation state is built;
* the pure-stdlib client library (:mod:`repro.serve.client`), whose
  users discover what they may submit by asking the server.

The payload is plain JSON-serialisable data (schema
``repro-catalog-v1``): benchmark entries carry the workload class
(streaming / spatial / irregular / compute / server) and the paper's
prefetch-sensitivity flag, the I-side prefetcher family and front-end
modes are listed alongside the D-side prefetchers, and the top level
records the default instruction budgets and the result-cache version,
so a client can predict whether two submissions will share a cache
entry.
"""

from repro.frontend.config import FRONTEND_MODES, IPREFETCHER_NAMES
from repro.sim.config import PREDICTOR_NAMES, PREFETCHER_NAMES
from repro.sim.runner import (
    CACHE_VERSION,
    DEFAULT_MIX_BUDGET,
    DEFAULT_SINGLE_BUDGET,
)
from repro.workloads.spec import BENCHMARKS, PROFILES

#: schema tag stamped into every catalog payload
CATALOG_SCHEMA = "repro-catalog-v1"


def catalog():
    """The full catalog as a JSON-serialisable dict (fresh copy)."""
    return {
        "schema": CATALOG_SCHEMA,
        "benchmarks": [
            {
                "name": name,
                "klass": PROFILES[name].klass,
                "prefetch_sensitive": PROFILES[name].prefetch_sensitive,
            }
            for name in BENCHMARKS
        ],
        "prefetchers": list(PREFETCHER_NAMES),
        "iprefetchers": list(IPREFETCHER_NAMES),
        "frontend_modes": list(FRONTEND_MODES),
        "branch_predictors": list(PREDICTOR_NAMES),
        "defaults": {
            "single_instructions": DEFAULT_SINGLE_BUDGET,
            "mix_instructions": DEFAULT_MIX_BUDGET,
        },
        "cache_version": CACHE_VERSION,
    }


def render_catalog():
    """The human-readable ``repro list`` text rendering."""
    lines = ["benchmarks:"]
    for entry in catalog()["benchmarks"]:
        lines.append("  %-12s (%s)" % (entry["name"], entry["klass"]))
    lines.append("prefetchers:")
    for name in PREFETCHER_NAMES:
        lines.append("  %s" % name)
    lines.append("iprefetchers (frontend=ftq):")
    for name in IPREFETCHER_NAMES:
        lines.append("  %s" % name)
    return "\n".join(lines)
