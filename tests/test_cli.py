"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "libquantum" in out and "bfetch" in out


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "65% less storage" in out


def test_run(capsys):
    assert main(["run", "gamess", "none", "-n", "5000"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out


def test_compare(capsys):
    assert main(["compare", "gamess", "-n", "5000",
                 "--prefetchers", "stride"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_mix(capsys):
    assert main(["mix", "gamess", "gamess", "-n", "4000",
                 "--prefetchers", "none", "bfetch"]) == 0
    out = capsys.readouterr().out
    assert "normalized" in out


def test_mix_caches_its_mixes(tmp_path, capsys, monkeypatch):
    import repro.sim.runner as runner_mod

    argv = ["mix", "gamess", "mcf", "-n", "3000", "-j", "1",
            "--prefetchers", "none", "stride", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out

    def boom(*args, **kwargs):
        raise AssertionError("simulated on a warm cache")

    monkeypatch.setattr(runner_mod, "_execute_single", boom)
    monkeypatch.setattr(runner_mod.CMPSystem, "run", boom)
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert main(["cache", str(tmp_path), "--stats"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert {row.split()[0] for row in rows} == {"mix", "single", "total"}


def test_mix_retries_reach_the_mixes(capsys, monkeypatch):
    """``--retries`` governs the mixes as well as the solo runs: with
    every first attempt crashed, each of the two solo runs and two
    mixes is retried once, and the table equals the fault-free one."""
    argv = ["mix", "gamess", "mcf", "-n", "3000", "-j", "1",
            "--retries", "1", "--prefetchers", "none", "stride"]
    assert main(argv) == 0
    clean = capsys.readouterr().out
    monkeypatch.setenv("REPRO_FAULTS", "crash:1.0:seed=7")
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == clean
    (summary,) = [line for line in captured.err.splitlines()
                  if line.startswith("[resilience] batch:")]
    assert "4 requests" in summary and "4 retries" in summary


@pytest.mark.parametrize("failing,code", [("stride", 0), ("none", 1)])
def test_mix_skipped_under_on_error_skip(capsys, monkeypatch, failing,
                                         code):
    """A mix skipped under ``--on-error skip`` is a ``note:`` line; when
    it is the first-listed prefetcher's, the normalisation base, the
    command fails."""
    import repro.sim.runner as runner_mod

    real = runner_mod._execute_mix

    def flaky(mix, prefetcher, *args, **kwargs):
        if prefetcher == failing:
            raise RuntimeError("injected mix failure")
        return real(mix, prefetcher, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "_execute_mix", flaky)
    assert main(["mix", "gamess", "mcf", "-n", "3000", "-j", "1",
                 "--retries", "0", "--on-error", "skip",
                 "--prefetchers", "none", "stride"]) == code
    captured = capsys.readouterr()
    if code:
        assert "normalisation base" in captured.err
    else:
        assert "note: stride mix run failed" in captured.err
        assert "request: gamess+mcf/stride, 3000 instructions" \
            in captured.err
        assert "normalized" in captured.out
        assert "stride" not in captured.out


def test_rejects_unknown_benchmark():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "doom", "none"])


def test_rejects_unknown_prefetcher():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "gamess", "oracle"])


def test_rejects_nonpositive_instructions():
    parser = build_parser()
    for argv in (["run", "gamess", "none", "-n", "0"],
                 ["run", "gamess", "none", "-n", "-5"],
                 ["run", "gamess", "none", "-n", "lots"],
                 ["check", "gamess", "none", "-n", "0"],
                 ["run", "gamess", "none", "--checkpoint-every", "0"],
                 ["run", "gamess", "none", "-j", "0"],
                 ["serve", "--workers", "-1"],
                 ["serve", "--workers", "two"],
                 ["serve", "--heartbeat", "-1"],
                 ["compare", "gamess", "--retries", "-1"],
                 ["serve", "--retries", "-1"],
                 ["submit", "gamess", "--retries", "-1"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_check_clean(capsys):
    assert main(["check", "gamess", "bfetch", "-n", "5000"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer: clean" in out
    assert "ipc" in out


def test_check_detects_injected_corruption(capsys):
    assert main(["check", "gamess", "bfetch", "-n", "20000",
                 "--inject-at", "1200", "--interval", "500"]) == 1
    err = capsys.readouterr().err
    assert "sanitizer violation" in err
    assert "first bad cycle" in err


def test_run_with_checkpointing(tmp_path, capsys):
    import os

    ckpt_dir = str(tmp_path / "ckpts")
    try:
        # cmd_run funnels the flags into the REPRO_CKPT_* environment
        # (inherited by pool workers); pop them afterwards so no other
        # test inherits checkpointing by accident
        assert main(["run", "gamess", "none", "-n", "5000",
                     "--checkpoint-every", "500",
                     "--checkpoint-dir", ckpt_dir]) == 0
    finally:
        os.environ.pop("REPRO_CKPT_DIR", None)
        os.environ.pop("REPRO_CKPT_EVERY", None)
    out = capsys.readouterr().out
    assert "ipc" in out
    # run completed, so its checkpoint was cleared
    assert not any(name.endswith(".ckpt.json")
                   for name in os.listdir(ckpt_dir))
