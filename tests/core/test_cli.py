"""Tests for the command-line interface."""

import concurrent.futures
import os

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_bad_processor_count():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "FLO52", "12"])


def test_unknown_app_rejected():
    with pytest.raises(SystemExit):
        main(["run", "NOPE", "8"])


def test_run_command(capsys):
    main(["run", "flo52", "8", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "FLO52 on 8 processors" in out
    assert "completion time" in out
    assert "contention overhead" in out
    assert "par_concurr" in out


def test_run_command_single_processor_skips_contention(capsys):
    main(["run", "adm", "1", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "contention overhead" not in out


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "t.jsonl"
    main(["trace", "mdg", "8", "-o", str(out_file), "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "wrote" in out
    assert out_file.exists()
    from repro.hpm import load_trace

    events = load_trace(out_file)
    assert events


def test_sweep_command(capsys):
    main(["sweep", "flo52", "--scale", "0.01"])
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 4" in out


def test_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    """``--jobs 64`` runs at most one worker per CPU, with serial's tables."""
    from repro.parallel import executor

    cpus = os.cpu_count() or 1
    widths = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(executor, "ProcessPoolExecutor", RecordingPool)
    assert build_parser().parse_args(["tables", "--jobs", "64"]).jobs == min(64, cpus)
    assert build_parser().parse_args(["tables", "--jobs", "1"]).jobs == 1
    main(["sweep", "mdg", "--scale", "0.004", "--jobs", "64"])
    pooled = capsys.readouterr().out
    main(["sweep", "mdg", "--scale", "0.004"])
    serial = capsys.readouterr().out
    assert pooled == serial
    assert "Table 1" in serial
    assert all(width <= cpus for width in widths)
    if cpus > 1:
        assert widths


def test_jobs_rejects_non_integer():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["tables", "--jobs", "many"])
