"""Shared infrastructure for the reproduction benchmarks.

Each ``test_*`` module regenerates one table or figure of the paper.
Simulation results are memoised under ``benchmarks/.cache`` (delete it to
force recomputation); rendered tables are printed and archived under
``benchmarks/results``.  Set ``REPRO_SCALE`` to trade fidelity for time
(e.g. ``REPRO_SCALE=0.25 pytest benchmarks/``) and ``REPRO_JOBS`` to fan
cold sweeps out over worker processes (results are byte-identical to
serial; see DESIGN.md "Performance & parallelism").

The engine is fault tolerant: every finished run is checkpointed to
``benchmarks/.cache`` the moment it completes, so an interrupted or
crashed sweep resumes where it stopped on the next invocation, and
failed or hung workers are retried per the default
:class:`~repro.resilience.FailurePolicy` (DESIGN.md "Failure model &
recovery").
"""

import os

import pytest

from repro.sim import ExperimentRunner

_HERE = os.path.dirname(os.path.abspath(__file__))
CACHE_DIR = os.path.join(_HERE, ".cache")
RESULTS_DIR = os.path.join(_HERE, "results")

# instruction budgets (pre-REPRO_SCALE)
SINGLE_BUDGET = 200_000
MIX_BUDGET = 50_000
ANALYSIS_BUDGET = 80_000


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def archive():
    """Print a rendered experiment and archive it under results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)

    def _archive(name, text):
        print()
        print(text)
        with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
            handle.write(text + "\n")
        return text

    return _archive
