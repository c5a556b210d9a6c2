"""Only :func:`repro.perf.harness.host_info`, which perfbench imports."""
