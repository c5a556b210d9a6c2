"""Result-cache accounting: ``cache_stats`` and ``cache_gc``.

The module name is historical: this test sat in the functional-trace
replay suite, which went with the trace substrate; the file keeps its
name so the test id stays stable.  A mix entry now stands where the
trace blob used to be the second cached kind.
"""

import os

from repro.sim.runner import ExperimentRunner


def test_cache_stats_and_gc(tmp_path):
    cache = str(tmp_path)
    runner = ExperimentRunner(cache_dir=cache)
    runner.run_single("mcf", "stride", 2_000)
    runner.run_mix(["mcf", "libquantum"], "none", 1_000)
    stats = runner.cache_stats()
    assert stats["single"]["entries"] == 1
    assert stats["mix"]["entries"] == 1
    assert stats["mix"]["bytes"] > 0
    # nothing is old enough yet
    assert runner.cache_gc(3600)["removed"] == 0
    # age everything artificially and collect
    for dirpath, _dirs, files in os.walk(cache):
        for name in files:
            path = os.path.join(dirpath, name)
            os.utime(path, (0, 0))
    summary = runner.cache_gc(60)
    assert summary["removed"] == 2
    assert summary["bytes"] > 0
    stats = runner.cache_stats()
    assert all(block["entries"] == 0 for block in stats.values())
