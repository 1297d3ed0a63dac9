"""Cache-key and cache-integrity properties.

The key must be a pure function of the cell's inputs (same inputs ->
same key, any perturbation -> different key), and the on-disk store
must never serve a damaged entry: truncations, bit flips, renamed
files and foreign schemas are all counted as *corrupt* and treated as
misses.  Hypothesis drives the perturbation space; a few deterministic
unit tests pin the corruption modes by name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import sys
import types
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import APPS
from repro.faults.experiments import degraded_campaign
from repro.obs.registry import MetricsRegistry
from repro.parallel import CACHE_SCHEMA, CellSpec, ResultCache, cell_key

CODE = "feedface" * 4  # fixed code fingerprint: keys hermetic to the test

specs = st.builds(
    CellSpec,
    app=st.sampled_from(APPS),
    n_processors=st.sampled_from((1, 4, 8, 16, 32)),
    scale=st.floats(1e-4, 1.0, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
    statfx_interval_ns=st.integers(1_000, 1_000_000),
    max_events=st.none() | st.integers(1, 10**9),
    max_sim_time=st.none() | st.integers(1, 10**12),
    fingerprint_schedule=st.booleans(),
)


# -- key properties ----------------------------------------------------------


@given(spec=specs)
def test_key_is_deterministic(spec):
    key = cell_key(spec, code=CODE)
    assert key == cell_key(spec, code=CODE)
    assert len(key) == 32 and int(key, 16) >= 0


@given(spec_a=specs, spec_b=specs)
def test_distinct_specs_distinct_keys(spec_a, spec_b):
    if spec_a == spec_b:
        assert cell_key(spec_a, code=CODE) == cell_key(spec_b, code=CODE)
    else:
        assert cell_key(spec_a, code=CODE) != cell_key(spec_b, code=CODE)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: dataclasses.replace(s, app="OCEAN" if s.app != "OCEAN" else "ADM"),
        lambda s: dataclasses.replace(s, n_processors=s.n_processors * 2),
        lambda s: dataclasses.replace(s, scale=s.scale * (1 + 2**-40)),
        lambda s: dataclasses.replace(s, seed=s.seed + 1),
        lambda s: dataclasses.replace(s, statfx_interval_ns=s.statfx_interval_ns + 1),
        lambda s: dataclasses.replace(s, max_events=(s.max_events or 0) + 1),
        lambda s: dataclasses.replace(s, max_sim_time=(s.max_sim_time or 0) + 1),
        lambda s: dataclasses.replace(
            s, fingerprint_schedule=not s.fingerprint_schedule
        ),
        lambda s: dataclasses.replace(s, campaign=degraded_campaign()),
    ],
    ids=[
        "app",
        "n_processors",
        "scale-ulp",
        "seed",
        "statfx_interval",
        "max_events",
        "max_sim_time",
        "fingerprint_schedule",
        "campaign",
    ],
)
@given(spec=specs)
def test_any_field_perturbation_changes_key(spec, mutate):
    assert cell_key(mutate(spec), code=CODE) != cell_key(spec, code=CODE)


@given(spec=specs)
def test_code_version_changes_key(spec):
    assert cell_key(spec, code="a" * 32) != cell_key(spec, code="b" * 32)


def test_campaign_fields_reach_key():
    spec = CellSpec(app="FLO52", n_processors=8, campaign=degraded_campaign(seed=1))
    other = dataclasses.replace(spec, campaign=degraded_campaign(seed=2))
    assert cell_key(spec, code=CODE) != cell_key(other, code=CODE)


# -- store integrity ---------------------------------------------------------

PAYLOAD = {"rows": [1, 2, 3], "label": "stand-in result"}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _store(cache):
    key = cell_key(CellSpec(app="FLO52", n_processors=4), code=CODE)
    cache.put(key, PAYLOAD)
    return key, cache.path_for(key)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_truncated_entry_is_a_miss(tmp_path_factory, data):
    cache = ResultCache(tmp_path_factory.mktemp("trunc"))
    key, path = _store(cache)
    size = path.stat().st_size
    cut = data.draw(st.integers(0, size - 1))
    path.write_bytes(path.read_bytes()[:cut])
    assert cache.get(key) is None
    assert cache.corrupt >= 1


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bitflipped_entry_never_serves_wrong_data(tmp_path_factory, data):
    cache = ResultCache(tmp_path_factory.mktemp("flip"))
    key, path = _store(cache)
    raw = bytearray(path.read_bytes())
    offset = data.draw(st.integers(0, len(raw) - 1))
    bit = data.draw(st.integers(0, 7))
    raw[offset] ^= 1 << bit
    path.write_bytes(bytes(raw))
    got = cache.get(key)
    # The flip may happen to leave the envelope decodable to the same
    # value; what must never happen is serving something *different*.
    assert got is None or got == PAYLOAD


def test_roundtrip_and_counters(cache):
    key, _ = _store(cache)
    assert cache.get(key) == PAYLOAD
    assert cache.get("0" * 32) is None
    assert (cache.hits, cache.misses, cache.puts, cache.corrupt) == (1, 1, 1, 0)

    registry = MetricsRegistry()
    cache.collect(registry)
    assert registry.value("cache.hits") == 1
    assert registry.value("cache.misses") == 1
    assert registry.value("cache.puts") == 1
    assert registry.value("cache.corrupt") == 0


def test_garbage_file_is_corrupt(cache):
    key, path = _store(cache)
    path.write_bytes(b"not a pickle at all")
    assert cache.get(key) is None
    assert cache.corrupt == 1


def test_entry_under_wrong_key_is_corrupt(cache):
    key, path = _store(cache)
    other = "f" * 32
    target = cache.path_for(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(path.read_bytes())
    assert cache.get(other) is None
    assert cache.corrupt == 1


def test_foreign_schema_is_corrupt(cache):
    key, path = _store(cache)
    envelope = pickle.loads(path.read_bytes())
    envelope["schema"] = "someone-else/v9"
    path.write_bytes(pickle.dumps(envelope))
    assert cache.get(key) is None
    assert cache.corrupt == 1


def test_payload_digest_is_checked(cache):
    key, path = _store(cache)
    envelope = pickle.loads(path.read_bytes())
    envelope["payload"] = pickle.dumps({"rows": [9]})  # digest left stale
    path.write_bytes(pickle.dumps(envelope))
    assert cache.get(key) is None
    assert cache.corrupt == 1
    assert CACHE_SCHEMA.startswith("cedar-repro/")


def test_overwrite_is_atomic_and_idempotent(cache):
    key, path = _store(cache)
    cache.put(key, PAYLOAD)
    assert cache.get(key) == PAYLOAD
    assert not list(path.parent.glob("*.tmp.*"))


# -- degrade-to-miss on write failure ----------------------------------------


def _breaking_replace(monkeypatch):
    """Make every cache write fail at the atomic-replace step."""
    from repro.parallel import cache as cache_mod

    def boom(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cache_mod.os, "replace", boom)


def test_write_failure_degrades_to_miss_with_one_warning(cache, monkeypatch):
    _breaking_replace(monkeypatch)
    key = cell_key(CellSpec(app="FLO52", n_processors=4), code=CODE)
    with pytest.warns(RuntimeWarning, match="continuing without"):
        assert cache.put(key, PAYLOAD) is None
    assert cache.write_errors == 1
    assert cache.get(key) is None  # nothing was stored
    # The second failure is counted but not re-warned.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.put(key, PAYLOAD) is None
    assert not any(
        "continuing without" in str(w.message) for w in caught
    )
    assert cache.write_errors == 2
    assert not cache.disabled


def test_cache_disables_after_consecutive_write_failures(cache, monkeypatch):
    _breaking_replace(monkeypatch)
    key = cell_key(CellSpec(app="FLO52", n_processors=4), code=CODE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(ResultCache.MAX_WRITE_ERRORS):
            assert cache.put(key, PAYLOAD) is None
    assert cache.disabled
    assert any("disabled" in str(w.message) for w in caught)
    # Disabled: further puts are silent no-ops, not new errors.
    assert cache.put(key, PAYLOAD) is None
    assert cache.write_errors == ResultCache.MAX_WRITE_ERRORS

    registry = MetricsRegistry()
    cache.collect(registry)
    assert registry.value("cache.write_errors") == ResultCache.MAX_WRITE_ERRORS
    assert registry.value("cache.disabled") == 1


def test_successful_write_resets_the_consecutive_counter(cache, monkeypatch):
    from repro.parallel import cache as cache_mod

    key = cell_key(CellSpec(app="FLO52", n_processors=4), code=CODE)
    real_replace = cache_mod.os.replace
    for _ in range(ResultCache.MAX_WRITE_ERRORS - 1):
        _breaking_replace(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cache.put(key, PAYLOAD)
        monkeypatch.setattr(cache_mod.os, "replace", real_replace)
        assert cache.put(key, PAYLOAD) is not None  # success resets
    assert not cache.disabled
    assert cache.write_errors == ResultCache.MAX_WRITE_ERRORS - 1


# -- quarantine of corrupt entries -------------------------------------------


def test_corrupt_entry_is_quarantined_not_reread(cache):
    key, path = _store(cache)
    path.write_bytes(b"damaged beyond recognition")
    assert cache.get(key) is None
    assert cache.quarantined == 1
    assert not path.exists()  # moved aside, never re-read
    quarantine = cache.directory / "quarantine"
    assert quarantine.is_dir() and any(quarantine.iterdir())
    # The next get is a plain miss: no double-count.
    assert cache.get(key) is None
    assert cache.quarantined == 1

    registry = MetricsRegistry()
    cache.collect(registry)
    assert registry.value("cache.quarantined") == 1


def test_code_fingerprint_covers_interpreter_version(monkeypatch):
    """A Python minor-version bump must invalidate every cached cell."""
    from repro.parallel import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_code_fingerprint", None)
    current = cache_mod.code_fingerprint()
    assert current == cache_mod.code_fingerprint()  # memoized, stable

    fake = types.SimpleNamespace(major=sys.version_info.major, minor=99)
    monkeypatch.setattr(cache_mod.sys, "version_info", fake)
    monkeypatch.setattr(cache_mod, "_code_fingerprint", None)
    assert cache_mod.code_fingerprint() != current


def test_v1_envelope_is_a_counted_miss_and_rerun(tmp_path):
    """An entry in the object-trace (v1) layout is never served."""
    from repro.hpm import HpmTrace
    from repro.parallel import execute_cells, run_cell

    spec = CellSpec(app="MDG", n_processors=1, scale=0.004, seed=1994)
    fresh = run_cell(spec)
    old_layout = dataclasses.replace(fresh, events=list(fresh.events))
    payload = pickle.dumps(old_layout, protocol=pickle.HIGHEST_PROTOCOL)
    cache = ResultCache(tmp_path)
    path = cache.path_for(spec.key())
    path.parent.mkdir(parents=True)
    path.write_bytes(
        pickle.dumps(
            {
                "schema": "cedar-repro/cell-cache/v1",
                "key": spec.key(),
                "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
                "payload": payload,
            }
        )
    )
    cells, failures = execute_cells([spec], jobs=1, cache=cache)
    assert not failures
    assert (cache.hits, cache.misses, cache.corrupt) == (0, 1, 1)
    result = cells[spec]
    assert isinstance(result.events, HpmTrace)
    assert result.ct_ns == fresh.ct_ns
    assert result.events == fresh.events
    # The re-run replaced the entry with a current-schema one.
    assert cache.get(spec.key()).events == fresh.events
    assert cache.hits == 1
