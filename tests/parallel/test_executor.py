"""Coordinator semantics: every mode == serial, warm cache == simulation.

The load-bearing guarantees: inline, pooled, journaled and resumed
sweeps are indistinguishable from the in-process serial one (same
completion times, result fingerprints and tables), a warm cache serves
every cell without simulating or spawning anything, metrics report
what happened, and bad inputs fail loudly.
"""

from __future__ import annotations

import signal
import tempfile

import pytest

from repro.analyze.race import fingerprint_result
from repro.core.experiments import table1
from repro.core.resilience import resilient_sweep
from repro.faults.host import corrupt_cache_entry
from repro.obs.registry import MetricsRegistry
from repro.parallel import (
    CampaignJournal,
    CellSpec,
    ResultCache,
    execute_cells,
    executor,
    load_journal,
    parallel_sweep,
    resume_sweep,
)

SCALE = 0.002
SEED = 1994
CONFIGS = (1, 4)


@pytest.fixture(scope="module")
def serial_outcome():
    return parallel_sweep(["FLO52"], configs=CONFIGS, scale=SCALE, seed=SEED, jobs=1)


@pytest.fixture(scope="module")
def reference():
    """The in-process serial sweep, run outside the coordinator."""
    outcome = resilient_sweep(["FLO52"], configs=CONFIGS, scale=SCALE, seed=SEED)
    assert outcome.ok
    return outcome


def _sweep_in_mode(mode: str, tmp_path, metrics: MetricsRegistry):
    """One pass of the grid through the coordinator in *mode*.

    ``resumed`` resumes the journal a ``journaled`` pass left behind,
    with one completed cell's cache entry truncated: that cell is
    re-simulated, the other is served from the cache.
    """
    journal = tmp_path / "sweep.journal"
    if mode == "resumed":
        if not journal.exists():
            _sweep_in_mode("journaled", tmp_path, MetricsRegistry())
            state = load_journal(journal)
            corrupt_cache_entry(ResultCache(state.cache_dir), state.specs[0].key())
        return resume_sweep(journal, jobs=2, metrics=metrics, handle_signals=False)
    common = dict(configs=CONFIGS, scale=SCALE, seed=SEED, metrics=metrics)
    if mode == "journaled":
        return parallel_sweep(
            ["FLO52"], jobs=2, checkpoint=journal, handle_signals=False, **common
        )
    jobs = 1 if mode == "inline" else 2
    return parallel_sweep(["FLO52"], jobs=jobs, cache_dir=tmp_path / "cache", **common)


@pytest.mark.parametrize("mode", ["inline", "pooled", "journaled", "resumed"])
def test_pool_matches_serial(mode, reference, serial_outcome, tmp_path):
    metrics = MetricsRegistry()
    outcome = _sweep_in_mode(mode, tmp_path, metrics)
    assert outcome.ok
    for n_proc in CONFIGS:
        a = reference.results["FLO52"][n_proc]
        b = outcome.results["FLO52"][n_proc]
        assert b.ct_ns == a.ct_ns
        assert fingerprint_result(b).digest == fingerprint_result(a).digest
        assert b.schedule_hash == serial_outcome.results["FLO52"][n_proc].schedule_hash
    assert table1(outcome.results)[1] == table1(reference.results)[1]

    # Cold pass: every missed cell was simulated and stored.
    simulated = 1 if mode == "resumed" else len(CONFIGS)
    assert metrics.value("parallel.jobs") == (1 if mode == "inline" else 2)
    assert metrics.value("parallel.cells.total") == len(CONFIGS)
    assert metrics.value("parallel.cells.completed") == len(CONFIGS)
    assert metrics.value("parallel.cells.failed") == 0
    assert metrics.value("cache.misses") == simulated
    assert metrics.value("cache.puts") == simulated
    assert metrics.value("parallel.wall_s") > 0
    if mode != "inline":
        assert 0 < metrics.value("parallel.pool.utilization") <= 1
    if mode == "resumed":
        assert outcome.recovery["cells"]["resumed_from_journal"] == len(CONFIGS) - 1
        assert metrics.value("cache.corrupt") == 1

    # Warm pass: every cell served from cache, nothing simulated.
    warm_metrics = MetricsRegistry()
    warm = _sweep_in_mode(mode, tmp_path, warm_metrics)
    assert warm.ok
    assert warm_metrics.value("cache.hits") == len(CONFIGS)
    assert warm_metrics.value("cache.puts") == 0
    assert table1(warm.results)[1] == table1(reference.results)[1]
    for n_proc in CONFIGS:
        assert (
            warm.results["FLO52"][n_proc].schedule_hash
            == serial_outcome.results["FLO52"][n_proc].schedule_hash
        )


def test_all_hit_run_creates_no_pool_dir_or_handler(
    serial_outcome, tmp_path, monkeypatch
):
    """A pooled, journaled call over a warm cache only reads the cache."""
    cache = ResultCache(tmp_path / "cache")
    specs = [
        CellSpec(app="FLO52", n_processors=p, scale=SCALE, seed=SEED) for p in CONFIGS
    ]
    for spec in specs:
        cache.put(spec.key(), serial_outcome.results["FLO52"][spec.n_processors])
    journal = CampaignJournal.create(tmp_path / "warm.journal", specs)

    def no_pool(*args, **kwargs):
        raise AssertionError("an all-hit run constructed a process pool")

    made: list = []
    installed: list = []
    real_mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        made.append(kwargs.get("prefix"))
        return real_mkdtemp(*args, **kwargs)

    handler = signal.getsignal(signal.SIGINT)
    monkeypatch.setattr(executor, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    monkeypatch.setattr(signal, "signal", lambda signum, h: installed.append(signum))
    results, failures = execute_cells(
        specs, jobs=2, cache=cache, retries=0, journal=journal
    )
    monkeypatch.undo()
    assert failures == [] and set(results) == set(specs)
    assert made == [] and list(tmp_path.glob("cedar-hb-*")) == []
    assert installed == [] and signal.getsignal(signal.SIGINT) is handler
    assert len(load_journal(journal.path).done) == len(specs)


def test_resilient_sweep_delegates_to_parallel(serial_outcome, tmp_path):
    outcome = resilient_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
    )
    assert outcome.ok
    assert table1(outcome.results)[1] == table1(serial_outcome.results)[1]


def test_failures_reported_in_input_order(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    bad = CellSpec(app="NOPE", n_processors=4, scale=SCALE, seed=SEED)
    good = CellSpec(app="FLO52", n_processors=1, scale=SCALE, seed=SEED)
    worse = CellSpec(app="ALSO_NOPE", n_processors=8, scale=SCALE, seed=SEED)
    results, failures = execute_cells(
        [bad, good, worse], jobs=2, cache=cache, retries=1
    )
    assert good in results and bad not in results
    assert [(f.app, f.n_processors) for f in failures] == [("NOPE", 4), ("ALSO_NOPE", 8)]
    for failure in failures:
        assert failure.error_type == "ValueError"
        assert failure.attempts == 2  # 1 + retries, same as the serial path
        assert "unknown application" in failure.message
    # The good cell was cached despite its neighbours failing.
    assert cache.get(good.key()) is not None
    assert cache.get(bad.key()) is None


def test_validation_errors():
    with pytest.raises(ValueError, match="jobs"):
        execute_cells([], jobs=0)
    with pytest.raises(ValueError, match="retries"):
        execute_cells([], retries=-1)
    with pytest.raises(ValueError, match="serial-only"):
        resilient_sweep(["FLO52"], jobs=2, run_cell=lambda a, p: None)
    with pytest.raises(ValueError, match="unsupported sweep options"):
        resilient_sweep(["FLO52"], jobs=2, os_params=object())


def test_empty_specs():
    results, failures = execute_cells([], jobs=1)
    assert results == {} and failures == []


def test_telemetry_observes_without_perturbing(serial_outcome, tmp_path):
    """A telemetered pooled sweep returns byte-identical results while
    the telemetry object ends up with the spans, the log, the report
    and the merged campaign metrics."""
    from repro.obs.campaign import CAMPAIGN_LOG_SCHEMA, CampaignTelemetry
    from repro.obs.campaign import load_campaign_log

    log = tmp_path / "campaign.jsonl"
    telemetry = CampaignTelemetry(log_path=log, progress=False, label="t")
    pooled = parallel_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        telemetry=telemetry,
    )
    assert pooled.ok
    assert table1(pooled.results)[1] == table1(serial_outcome.results)[1]
    for n_proc in CONFIGS:
        assert (
            pooled.results["FLO52"][n_proc].schedule_hash
            == serial_outcome.results["FLO52"][n_proc].schedule_hash
        )

    # Spans: one successful worker-side attempt per cell.
    assert len(telemetry.spans) == len(CONFIGS)
    assert all(s.ok and not s.cache_hit for s in telemetry.spans)
    assert {s.n_processors for s in telemetry.spans} == set(CONFIGS)
    assert all(s.schedule_hash for s in telemetry.spans)
    assert all(s.run_wall_s > 0 for s in telemetry.spans)
    assert all(s.metrics is not None for s in telemetry.spans)

    # The default registry carries executor + cache + campaign metrics.
    reg = telemetry.registry
    assert reg.value("parallel.cells.total") == len(CONFIGS)
    assert reg.value("cache.puts") == len(CONFIGS)
    assert reg.value("campaign.cells.completed") == len(CONFIGS)
    assert reg.value("campaign.run.ct_ns") > 0  # merged worker snapshot

    # The log round-trips and the report sees the whole campaign.
    header, events = load_campaign_log(log)
    assert header["schema"] == CAMPAIGN_LOG_SCHEMA
    assert header["jobs"] == 2
    report = telemetry.report()
    assert report["cells"]["completed"] == len(CONFIGS)
    assert report["cells"]["simulated"] == len(CONFIGS)
    assert report["latency_s"]["p95"] > 0
    assert report["throughput"]["sustained_cells_per_s"] > 0

    # Warm rerun: telemetry sees pure cache hits, results unchanged.
    warm_telemetry = CampaignTelemetry(progress=False)
    warm = parallel_sweep(
        ["FLO52"],
        configs=CONFIGS,
        scale=SCALE,
        seed=SEED,
        jobs=2,
        cache_dir=tmp_path / "cache",
        telemetry=warm_telemetry,
    )
    assert warm.ok
    assert table1(warm.results)[1] == table1(serial_outcome.results)[1]
    warm_report = warm_telemetry.report()
    assert warm_report["cache"]["hits"] == len(CONFIGS)
    assert warm_report["cells"]["simulated"] == 0
    assert warm_telemetry.registry.value("campaign.cells.cache_hits") == len(
        CONFIGS
    )
