"""The columnar cedarhpm trace must analyse exactly like the object trace.

The analysis layer pairs, filters and sums :class:`~repro.hpm.HpmTrace`
columns with array operations.  This module keeps a small reference
implementation that works event by event on :class:`TraceEvent`
objects -- the pairing, region and breakdown rules as the object-based
analysis applied them -- and checks the columnar results against it
on every paper application, bit for bit.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.apps import PAPER_APPS
from repro.core.breakdown import user_breakdown
from repro.core.concurrency import loop_regions
from repro.core.contention import t1_split_ns, tp_actual_ns
from repro.core.runner import run_application
from repro.core.trace_analysis import (
    Interval,
    IntervalKind,
    extract_intervals,
    trace_memo,
)
from repro.hpm import CedarHpm, EventType, HpmTrace, TraceEvent, load_trace, save_trace
from repro.parallel import snapshot_result
from repro.sim import Simulator
from repro.xylem.params import XylemParams

SCALE = 0.004
SEED = 1994
CONFIGS = (1, 4, 32)

# -- reference: the object-based analysis, one event at a time ---------------

_PAIRS = {
    EventType.SERIAL_START: (EventType.SERIAL_END, IntervalKind.SERIAL),
    EventType.MC_LOOP_START: (EventType.MC_LOOP_END, IntervalKind.MC_LOOP),
    EventType.SETUP_ENTER: (EventType.SETUP_EXIT, IntervalKind.SETUP),
    EventType.PICKUP_ENTER: (EventType.PICKUP_EXIT, IntervalKind.PICKUP),
    EventType.ITER_START: (EventType.ITER_END, IntervalKind.ITERATION),
    EventType.BARRIER_ENTER: (EventType.BARRIER_EXIT, IntervalKind.BARRIER),
    EventType.WAIT_WORK_ENTER: (EventType.WAIT_WORK_EXIT, IntervalKind.HELPER_WAIT),
    EventType.SYSCALL_ENTER: (EventType.SYSCALL_EXIT, IntervalKind.SYSCALL),
    EventType.INTERRUPT_ENTER: (EventType.INTERRUPT_EXIT, IntervalKind.INTERRUPT),
    EventType.AST_ENTER: (EventType.AST_EXIT, IntervalKind.AST),
    EventType.CTX_SWITCH_ENTER: (EventType.CTX_SWITCH_EXIT, IntervalKind.CTX),
    EventType.PROGRAM_START: (EventType.PROGRAM_END, IntervalKind.PROGRAM),
}
_CLOSERS = {closer: opener for opener, (closer, _) in _PAIRS.items()}
_MC_CONSTRUCTS = {"cluster_only", "cdoacross"}


def ref_extract_intervals(events, end_ns=None):
    open_events = {}
    intervals = []
    for event in events:
        etype = event.event_type
        if etype in _PAIRS:
            open_events.setdefault((event.processor_id, etype), []).append(event)
        elif etype in _CLOSERS:
            opener_type = _CLOSERS[etype]
            stack = open_events.get((event.processor_id, opener_type))
            if not stack:
                raise ValueError(
                    f"{etype.name} without matching {opener_type.name} on "
                    f"processor {event.processor_id} at t={event.timestamp_ns}"
                )
            opener = stack.pop()
            intervals.append(
                Interval(
                    _PAIRS[opener_type][1],
                    event.processor_id,
                    opener.task_id,
                    opener.timestamp_ns,
                    event.timestamp_ns,
                    opener.payload,
                )
            )
    if end_ns is not None:
        for (processor_id, opener_type), stack in open_events.items():
            for opener in stack:
                intervals.append(
                    Interval(
                        _PAIRS[opener_type][1],
                        processor_id,
                        opener.task_id,
                        opener.timestamp_ns,
                        end_ns,
                        opener.payload,
                    )
                )
    intervals.sort(key=lambda iv: (iv.start_ns, iv.end_ns))
    return intervals


def _seq(payload):
    if isinstance(payload, tuple) and payload:
        return payload[0]
    return payload


def ref_loop_regions(events, intervals, task_id):
    regions = []
    if task_id == 0:
        post_ns = {}
        for event in events:
            if event.task_id != 0:
                continue
            if event.event_type == EventType.LOOP_POST:
                post_ns[_seq(event.payload)] = event.timestamp_ns
            elif event.event_type == EventType.BARRIER_ENTER:
                start = post_ns.pop(_seq(event.payload), None)
                if start is not None:
                    regions.append((start, event.timestamp_ns))
        for interval in intervals:
            if interval.task_id == 0 and interval.kind is IntervalKind.MC_LOOP:
                regions.append((interval.start_ns, interval.end_ns))
    else:
        join_ns = {}
        for event in events:
            if event.task_id != task_id:
                continue
            if event.event_type == EventType.HELPER_JOIN:
                join_ns[_seq(event.payload)] = event.timestamp_ns
            elif event.event_type == EventType.LOOP_DETACH:
                start = join_ns.pop(_seq(event.payload), None)
                if start is not None:
                    regions.append((start, event.timestamp_ns))
    regions.sort()
    return regions


def ref_user_breakdown(intervals, task_id, per_cluster):
    serial = mc = setup = barrier = wait = 0.0
    iter_sd = iter_xd = pick_sd = pick_xd = 0.0
    for interval in intervals:
        if interval.task_id != task_id:
            continue
        kind = interval.kind
        if kind is IntervalKind.SERIAL:
            serial += interval.duration_ns
        elif kind is IntervalKind.MC_LOOP:
            mc += interval.duration_ns
        elif kind is IntervalKind.SETUP:
            setup += interval.duration_ns
        elif kind is IntervalKind.BARRIER:
            barrier += interval.duration_ns
        elif kind is IntervalKind.HELPER_WAIT:
            wait += interval.duration_ns
        elif kind is IntervalKind.ITERATION:
            construct = interval.construct
            if construct in _MC_CONSTRUCTS:
                continue
            if construct == "xdoall":
                iter_xd += interval.duration_ns / per_cluster
            else:
                iter_sd += interval.duration_ns / per_cluster
        elif kind is IntervalKind.PICKUP:
            if interval.construct == "xdoall":
                pick_xd += interval.duration_ns / per_cluster
            else:
                pick_sd += interval.duration_ns
    return {
        "serial": serial,
        "mc_loop": mc,
        "iter_sdoall": iter_sd,
        "iter_xdoall": iter_xd,
        "setup": setup,
        "pickup_sdoall": pick_sd,
        "pickup_xdoall": pick_xd,
        "barrier_wait": barrier,
        "helper_wait": wait,
    }


def _reference_record(event):
    payload = event.payload
    if isinstance(payload, tuple):
        payload = list(payload)
    return {
        "e": int(event.event_type),
        "t": event.timestamp_ns,
        "p": event.processor_id,
        "k": event.task_id,
        "d": payload,
    }


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    """(result, its events as TraceEvent objects, reference intervals)."""
    cells = {}
    for app, build in PAPER_APPS.items():
        for n in CONFIGS:
            result = run_application(
                build(), n, scale=SCALE, os_params=XylemParams(seed=SEED)
            )
            objects = list(result.events)
            cells[app, n] = (
                result,
                objects,
                ref_extract_intervals(objects, end_ns=result.ct_ns),
            )
    return cells


CELLS = [(app, n) for app in PAPER_APPS for n in CONFIGS]


@pytest.mark.parametrize("cell", CELLS, ids=[f"{a}-{n}" for a, n in CELLS])
def test_intervals_equal_reference(grid, cell):
    result, objects, reference = grid[cell]
    assert isinstance(result.events, HpmTrace)
    assert reference
    assert extract_intervals(result.events, end_ns=result.ct_ns) == reference
    assert trace_memo(result).intervals() == reference
    assert extract_intervals(objects) == ref_extract_intervals(objects)


@pytest.mark.parametrize("cell", CELLS, ids=[f"{a}-{n}" for a, n in CELLS])
def test_loop_regions_equal_reference(grid, cell):
    result, objects, reference = grid[cell]
    tasks = range(-1, result.config.n_clusters + 1)
    for task in tasks:
        assert loop_regions(result, task) == ref_loop_regions(objects, reference, task)
    assert loop_regions(result, 0)


@pytest.mark.parametrize("cell", CELLS, ids=[f"{a}-{n}" for a, n in CELLS])
def test_contention_inputs_equal_reference(grid, cell):
    result, objects, reference = grid[cell]
    regions = ref_loop_regions(objects, reference, 0)
    expected_tp = float(sum(end - start for start, end in regions))
    assert tp_actual_ns(result).hex() == expected_tp.hex()
    if result.n_processors == 1:
        t1_mc = 0.0
        for interval in reference:
            if interval.task_id == 0 and interval.kind is IntervalKind.MC_LOOP:
                t1_mc += interval.duration_ns
        expected = (t1_mc, max(0.0, expected_tp - t1_mc))
        assert [v.hex() for v in t1_split_ns(result)] == [v.hex() for v in expected]


@pytest.mark.parametrize("cell", CELLS, ids=[f"{a}-{n}" for a, n in CELLS])
def test_user_breakdown_bit_identical(grid, cell):
    result, _, reference = grid[cell]
    per_cluster = result.config.ces_per_cluster
    for task in range(result.config.n_clusters):
        got = user_breakdown(result, task).as_dict()
        expected = ref_user_breakdown(reference, task, per_cluster)
        assert {k: v.hex() for k, v in got.items()} == {
            k: v.hex() for k, v in expected.items()
        }


# -- pairing edge cases against the reference ----------------------------------


def _random_trace(rng: random.Random, n_events: int) -> list[TraceEvent]:
    """A well-nested random trace over a few CEs, kinds and payloads."""
    openers = list(_PAIRS)
    stacks: dict[tuple[int, EventType], int] = {}
    payloads = [None, (1, "xdoall", "a", 1), (2, "sdoall", "b"), "label"]
    events, t = [], 0
    for _ in range(n_events):
        t += rng.choice((0, 50, 100))
        ce = rng.randrange(3)
        opener = rng.choice(openers[:4])
        depth = stacks.get((ce, opener), 0)
        if depth and rng.random() < 0.55:
            stacks[ce, opener] = depth - 1
            etype = _PAIRS[opener][0]
        else:
            stacks[ce, opener] = depth + 1
            etype = opener
        events.append(TraceEvent(etype, t, ce, rng.randrange(-1, 3), rng.choice(payloads)))
    return events


@pytest.mark.parametrize("seed", range(20))
def test_random_nesting_pairs_like_reference(seed):
    events = _random_trace(random.Random(seed), 200)
    end = events[-1].timestamp_ns + 50
    assert extract_intervals(events, end_ns=end) == ref_extract_intervals(events, end)
    assert extract_intervals(events) == ref_extract_intervals(events)


def _outcome(extract, events, end_ns):
    try:
        return extract(events, end_ns)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("seed", range(20))
def test_stray_close_behaves_like_reference(seed):
    """A stray close either pairs LIFO or raises the same error."""
    rng = random.Random(seed)
    events = _random_trace(rng, 60)
    closer = _PAIRS[rng.choice(list(_PAIRS)[:4])][0]
    stray = TraceEvent(closer, 10**6, rng.randrange(3), 0, None)
    events.insert(rng.randrange(len(events) + 1), stray)
    expected = _outcome(ref_extract_intervals, events, 10**7)
    assert _outcome(extract_intervals, events, 10**7) == expected


def test_unmatched_close_raises_like_reference():
    events = _random_trace(random.Random(0), 60)
    events.insert(30, TraceEvent(EventType.ITER_END, 10**6, 7, 0, None))
    expected = _outcome(ref_extract_intervals, events, None)
    assert expected.startswith("ValueError: ITER_END without matching ITER_START")
    assert _outcome(extract_intervals, events, None) == expected


def test_empty_trace():
    trace = HpmTrace.from_events([])
    assert len(trace) == 0
    assert list(trace) == []
    assert extract_intervals(trace, end_ns=100) == []


# -- the monitor's columns ------------------------------------------------------


def test_buffer_capacity_drops_into_columns():
    hpm = CedarHpm(Simulator(), buffer_capacity=3)
    indices = [hpm.record(EventType.ITER_START, i % 2, task_id=0) for i in range(5)]
    assert indices == [0, 1, 2, None, None]
    assert hpm.dropped == 2
    trace = hpm.offload()
    assert len(trace) == 3
    assert trace.ces.tolist() == [0, 1, 0]
    hpm.clear()
    assert len(hpm) == 0 and hpm.dropped == 0 and len(hpm.offload()) == 0
    assert hpm.record(EventType.ITER_END, 0) == 0


def test_offload_is_a_frozen_copy():
    hpm = CedarHpm(Simulator())
    payload = (0, "xdoall", "a", 1)
    hpm.record(EventType.PICKUP_ENTER, 0, task_id=0, payload=payload)
    hpm.record(EventType.PICKUP_EXIT, 0, task_id=0, payload=payload)
    trace = hpm.offload()
    hpm.record(EventType.ITER_START, 0)
    assert len(trace) == 2
    assert trace.payloads == (payload,) and trace.payloads[0] is payload
    with pytest.raises(ValueError):
        trace.times[0] = 1


def test_trace_compares_like_a_list(grid):
    result, objects, _ = grid["MDG", 4]
    assert result.events == objects
    assert objects == result.events
    assert result.events[5] == objects[5]
    assert result.events[-1] == objects[-1]
    assert list(result.events[3:9]) == objects[3:9]
    assert result.events != objects[:-1]


# -- persistence and transport ----------------------------------------------------


def test_save_load_round_trip_keeps_jsonl_format(grid, tmp_path):
    result, objects, _ = grid["FLO52", 4]
    path = tmp_path / "t.jsonl"
    assert save_trace(result.events, path, header={"app": "FLO52"}) == len(objects)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"meta": {"app": "FLO52"}}
    assert lines[1:] == [
        json.dumps(_reference_record(e), separators=(",", ":")) for e in objects
    ]
    assert load_trace(path) == result.events


def test_snapshot_pickle_round_trip(grid):
    result, objects, reference = grid["ADM", 32]
    clone = pickle.loads(pickle.dumps(snapshot_result(result), pickle.HIGHEST_PROTOCOL))
    assert isinstance(clone.events, HpmTrace)
    assert clone.events == result.events
    assert clone.hpm.offload() is clone.events
    assert trace_memo(clone).intervals() == reference
    for task in range(result.config.n_clusters):
        assert user_breakdown(clone, task) == user_breakdown(result, task)


def test_paper_snapshot_is_compact():
    """ADM P=32 at scale 0.02 pickled as objects was 4.69 MB."""
    result = run_application(
        PAPER_APPS["ADM"](), 32, scale=0.02, os_params=XylemParams(seed=SEED)
    )
    size = len(pickle.dumps(snapshot_result(result), pickle.HIGHEST_PROTOCOL))
    assert size * 2 <= 4_690_000


def test_user_breakdown_keeps_sequential_float_order():
    """With 3 CEs per cluster, duration / 3 is inexact, so summation
    order shows in the last bits: it must be the reference's."""
    from repro.hardware.config import CedarConfig

    config = CedarConfig(n_clusters=2, ces_per_cluster=3, n_memory_modules=8)
    for app in ("FLO52", "ADM"):
        result = run_application(
            PAPER_APPS[app](),
            6,
            scale=SCALE,
            config=config,
            os_params=XylemParams(seed=SEED),
        )
        reference = ref_extract_intervals(list(result.events), end_ns=result.ct_ns)
        for task in range(config.n_clusters):
            got = user_breakdown(result, task).as_dict()
            expected = ref_user_breakdown(reference, task, 3)
            assert {k: v.hex() for k, v in got.items()} == {
                k: v.hex() for k, v in expected.items()
            }
