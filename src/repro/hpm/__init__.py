"""Measurement facilities modelled after the paper's instrumentation.

* :class:`CedarHpm` -- the external, non-intrusive hardware trace
  monitor (``cedarhpm``) with 50 ns timestamps;
* :class:`HpmTrace` -- its off-loaded buffer, one numpy column per
  record field;
* :class:`Statfx` -- the software concurrency monitor (``statfx``);
* :class:`ActivityBoard` -- the per-CE activity state both monitors
  observe;
* the "Q" utilisation view is provided by
  :class:`repro.xylem.TimeAccounting`.
"""

from repro.hpm.activity import ActivityBoard
from repro.hpm.columns import HpmTrace
from repro.hpm.events import OS_EVENTS, RTL_EVENTS, EventType, TraceEvent
from repro.hpm.monitor import CedarHpm
from repro.hpm.statfx import Statfx
from repro.hpm.traces import load_trace, load_trace_meta, save_trace, trace_summary

__all__ = [
    "ActivityBoard",
    "CedarHpm",
    "EventType",
    "HpmTrace",
    "OS_EVENTS",
    "RTL_EVENTS",
    "Statfx",
    "TraceEvent",
    "load_trace",
    "load_trace_meta",
    "save_trace",
    "trace_summary",
]
