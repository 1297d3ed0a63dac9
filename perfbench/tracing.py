"""In-memory span tracer for the benchmark's traced run.

A :class:`Tracer` records one :class:`Span` per call into a layer's
public function: its name, layer, start, end, parent span and the run
id.  Spans come from two places, both in the benchmark's own files:

* explicit ``with tracer.span(layer, name):`` blocks around the calls
  the benchmark makes itself (the sweep, each table, each fault run);
* :meth:`Tracer.patched`, which swaps a module attribute or class
  method for a wrapper for the duration of the traced pass, so calls
  the program makes *internally* (``resilient_sweep`` calling
  ``run_application``, the runner calling ``Simulator.run``) are
  bracketed too.  Nothing under ``src/`` is edited.

Spans are kept in memory and written out once, when the run ends.
A layer's self time is its spans' durations minus the part of them
that child spans cover.  Calls run in pool workers are outside the
parent's reach and therefore untraced; the parent sees them as time
spent waiting inside ``execute_cells``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

__all__ = ["LAYER_PATCHES", "LAYERS", "NULL_TRACER", "Span", "Tracer"]

#: ``(module, attribute path, layer)`` of every call the traced pass
#: brackets from outside.  Each attribute is patched where the caller
#: looks it up, so the wrapper sees every call the program makes.
LAYER_PATCHES = (
    ("repro.parallel", "parallel_sweep", "parallel"),
    ("repro.parallel.executor", "execute_cells", "parallel"),
    ("repro.parallel.executor", "snapshot_result", "parallel"),
    ("repro.parallel.cache", "ResultCache.get", "cache"),
    ("repro.parallel.cache", "ResultCache.put", "cache"),
    ("repro.core.resilience", "run_application", "runner"),
    ("repro.faults.campaign", "run_application", "runner"),
    ("repro.core.runner", "run_phases", "runner"),
    ("repro.apps.base", "AppModel.phases", "apps"),
    ("repro.sim.core", "Simulator.run", "sim"),
    ("repro.hpm.monitor", "CedarHpm.offload", "hpm"),
    ("repro.faults.injector", "FaultInjector.arm", "faults"),
    ("repro.core.experiments", "ct_breakdown", "analysis"),
)

#: Every layer a span can be attributed to, in report order.
LAYERS = (
    "harness",
    "parallel",
    "cache",
    "pickle",
    "runner",
    "apps",
    "sim",
    "hpm",
    "analysis",
    "faults",
)


@dataclass
class Span:
    """One bracketed call into a layer."""

    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullTracer:
    """Stand-in for the timed passes: brackets nothing, records nothing."""

    def span(self, layer: str, name: str):  # noqa: ARG002 - same shape as Tracer
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


class _TracedPickle:
    """Proxy for the ``pickle`` module the result cache uses.

    Brackets ``dumps``/``loads`` so cache time splits into serialization
    and file I/O, and counts the bytes that cross it: all of them, and
    those of result snapshots alone (the cache wraps each snapshot's
    pickle in a pickled envelope dict).
    """

    def __init__(self, tracer: "Tracer", real) -> None:
        self._tracer = tracer
        self._real = real

    def dumps(self, obj, *args, **kwargs):
        with self._tracer.span("pickle", "pickle.dumps"):
            data = self._real.dumps(obj, *args, **kwargs)
        self._count(obj, data)
        return data

    def loads(self, data, *args, **kwargs):
        with self._tracer.span("pickle", "pickle.loads"):
            obj = self._real.loads(data, *args, **kwargs)
        self._count(obj, data)
        return obj

    def _count(self, obj, data) -> None:
        self._tracer.pickle_bytes += len(data)
        if not isinstance(obj, dict):
            self._tracer.snapshot_bytes += len(data)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


class Tracer:
    """Records nested spans for one traced pass."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.pickle_bytes = 0
        self.snapshot_bytes = 0
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1].id if self._stack else None
        record = Span(next(self._ids), parent, layer, name, perf_counter(), 0.0, self.run_id)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def _wrap(self, original, layer: str, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(layer, name):
                return original(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, patches=LAYER_PATCHES):
        """Bracket every call in *patches* (and cache pickling) while open."""
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, path, layer in patches:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, path))
            cache_module = importlib.import_module("repro.parallel.cache")
            undo.append((cache_module, "pickle", cache_module.pickle))
            cache_module.pickle = _TracedPickle(self, cache_module.pickle)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the time its direct children cover."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record.parent is not None:
                covered[record.parent] += record.duration
        return {record.id: record.duration - covered[record.id] for record in self.spans}

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer (every layer present, zero if unused)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        own = self.self_times()
        for record in self.spans:
            totals[record.layer] = totals.get(record.layer, 0.0) + own[record.id]
        return totals

    def total_s(self, name: str) -> float:
        """Summed duration of every span called *name*."""
        return sum(record.duration for record in self.spans if record.name == name)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(asdict(record), sort_keys=True) + "\n")
