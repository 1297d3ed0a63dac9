"""Crash-safety building blocks: policy, recovery ledger, heartbeats.

The sweep coordinator (:func:`~repro.parallel.executor.execute_cells`)
assumes the host does not behave.  This module holds the parts of that
machinery that do not depend on the coordinator itself:

* :class:`DurablePolicy` -- the tunables of every pooled run: heartbeat
  cadence and staleness timeout, an optional per-cell deadline,
  deterministic exponential backoff (:func:`backoff_s`: jitter-free by
  construction, so retry schedules are reproducible) and straggler
  speculation;
* worker heartbeats -- each pool worker stamps a per-PID liveness file
  (:func:`init_pool_worker`); the coordinator reads them to find
  stalled workers (:func:`stale_workers`) and to SIGKILL its pool
  (:func:`kill_workers`);
* :class:`RecoveryLedger` -- everything the coordinator did to
  *recover* (resumed cells, retries, respawns, deaths, deadline kills,
  speculation), folded into ``parallel.recovery.*`` metrics and
  rendered as the ``cedar-repro/recovery-report/v1`` JSON;
* :class:`CampaignInterrupted` -- raised after SIGINT/SIGTERM
  checkpointed a journaled campaign.

The recovered campaign's tables are byte-identical to an uninterrupted
run: that is the acceptance gate ``scripts/chaos_sweep.py`` enforces.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.hostclock import host_clock_s
from repro.parallel.cache import code_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.parallel.cache import ResultCache

__all__ = [
    "RECOVERY_REPORT_SCHEMA",
    "CampaignInterrupted",
    "DurablePolicy",
    "RecoveryLedger",
    "backoff_s",
    "init_pool_worker",
    "kill_workers",
    "save_recovery_report",
    "stale_workers",
]

RECOVERY_REPORT_SCHEMA = "cedar-repro/recovery-report/v1"


class CampaignInterrupted(RuntimeError):
    """The campaign was checkpointed by SIGINT/SIGTERM and can resume.

    Carries the journal path so the CLI can print the exact resume
    command.  Raised *after* the journal checkpoint record, the
    campaign log and the telemetry registry are all flushed -- nothing
    about the interrupt is lossy except the in-flight cells, which the
    resume leg re-runs.
    """

    def __init__(self, journal_path: Path, reason: str) -> None:
        super().__init__(
            f"campaign checkpointed on {reason}; resume with: "
            f"cedar-repro resume {journal_path}"
        )
        self.journal_path = journal_path
        self.reason = reason


def backoff_s(attempt: int, base_s: float, cap_s: float) -> float:
    """Deterministic exponential backoff before retry *attempt*.

    ``base * 2**(attempt-1)`` capped at *cap_s*, with **no jitter**:
    two campaigns that fail the same way wait the same way, so retry
    schedules are as reproducible as the simulations they pace
    (jitter's usual job -- decorrelating contending clients -- does not
    apply to a single coordinator).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(cap_s, base_s * (2.0 ** (attempt - 1)))


@dataclass(frozen=True)
class DurablePolicy:
    """Tunables for the health monitor, retries and speculation."""

    #: Worker heartbeat cadence (seconds between beats).
    heartbeat_interval_s: float = 0.25
    #: A worker whose last beat is older than this is presumed stalled
    #: and is SIGKILLed (the pool respawns).
    heartbeat_timeout_s: float = 30.0
    #: Wall budget per cell attempt, measured from dispatch; ``None``
    #: disables the deadline (the default: cells can be legitimately
    #: huge).  An over-deadline attempt is killed and retried.
    cell_deadline_s: float | None = None
    #: Exponential backoff parameters for host-failure retries.
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 4.0
    #: Whether to speculatively re-dispatch stragglers.
    speculate: bool = True
    #: Minimum completed samples before a straggler threshold exists.
    straggler_min_samples: int = 3
    #: Speculate when a cell's age exceeds ``factor * rolling_p95``...
    straggler_factor: float = 3.0
    #: ...but never below this floor (tiny cells jitter relatively).
    straggler_floor_s: float = 1.0
    #: Coordinator poll cadence.
    poll_interval_s: float = 0.05


@dataclass
class RecoveryLedger:
    """Everything the coordinator did to keep a campaign alive."""

    resumed_cells: int = 0
    retries: int = 0
    respawns: int = 0
    worker_deaths: int = 0
    deadline_kills: int = 0
    stalled_workers: int = 0
    stragglers: int = 0
    speculative_wins: int = 0
    speculative_wasted: int = 0
    speculative_cancelled: int = 0
    checkpoints: int = 0
    #: Host seconds deliberately spent waiting (backoff pacing): fully
    #: deterministic, so reported separately from machinery cost.
    fault_dwell_s: float = 0.0
    #: Host seconds of partial attempts destroyed by failures: the age
    #: of every in-flight attempt at the moment its worker died or its
    #: pool was torn down.  For an injected hang this includes the
    #: deadline dwell (the attempt's age when killed >= the deadline).
    lost_work_s: float = 0.0

    def collect(self, registry: "MetricsRegistry") -> None:
        """Fold the ledger into ``parallel.recovery.*`` metrics."""
        for name, value in asdict(self).items():
            if isinstance(value, int):
                registry.counter(f"parallel.recovery.{name}").inc(value)
            else:
                registry.gauge(f"parallel.recovery.{name}").set(value)

    def report(
        self,
        label: str,
        cells_total: int,
        cells_completed: int,
        wall_s: float,
        clean_wall_s: float | None = None,
        injected_dwell_s: float = 0.0,
        cache: "ResultCache | None" = None,
    ) -> dict:
        """The ``cedar-repro/recovery-report/v1`` JSON document.

        *clean_wall_s* is the reference wall of an undisturbed run of
        the same campaign (the chaos harness measures one); when given,
        the report carries both the raw wall overhead and the *recovery
        overhead* -- raw overhead minus everything the faults
        themselves cost (backoff dwell + destroyed partial attempts +
        *injected_dwell_s*, the sleeps the chaos plan injected), i.e.
        the cost of the recovery machinery proper
        (``docs/resilience.md`` defines the metric precisely).
        """
        dwell = self.fault_dwell_s + self.lost_work_s + injected_dwell_s
        overhead: dict[str, float | None] = {
            "clean_wall_s": round(clean_wall_s, 6)
            if clean_wall_s is not None
            else None,
            "overhead_pct": None,
            "recovery_overhead_pct": None,
        }
        if clean_wall_s is not None and clean_wall_s > 0:
            overhead["overhead_pct"] = round(
                100.0 * (wall_s - clean_wall_s) / clean_wall_s, 3
            )
            overhead["recovery_overhead_pct"] = round(
                100.0 * max(0.0, wall_s - dwell - clean_wall_s) / clean_wall_s, 3
            )
        return {
            "schema": RECOVERY_REPORT_SCHEMA,
            "label": label,
            "code_fingerprint": code_fingerprint(),
            "cells": {
                "total": cells_total,
                "completed": cells_completed,
                "resumed_from_journal": self.resumed_cells,
            },
            "recovery": {
                name: value
                for name, value in asdict(self).items()
                if isinstance(value, int) and name != "resumed_cells"
            },
            "cache": {
                "write_errors": cache.write_errors if cache is not None else 0,
                "quarantined": cache.quarantined if cache is not None else 0,
                "disabled": bool(cache.disabled) if cache is not None else False,
            },
            "wall": {
                "wall_s": round(wall_s, 6),
                "fault_dwell_s": round(self.fault_dwell_s, 6),
                "lost_work_s": round(self.lost_work_s, 6),
                "injected_dwell_s": round(injected_dwell_s, 6),
                **overhead,
            },
        }


def save_recovery_report(report: dict, path: str | Path) -> None:
    """Write a recovery report as pretty-printed JSON."""
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


# -- heartbeats ----------------------------------------------------------------


def _heartbeat_loop(path: str, interval_s: float) -> None:
    """Daemon thread: stamp this worker's liveness file forever.

    The stamp is written atomically (temp + ``os.replace``) so the
    coordinator never reads a torn/empty beat and mistakes a busy
    worker for a dead one.
    """
    target = Path(path)
    tmp = Path(f"{path}.tmp")
    while True:
        try:
            tmp.write_text(f"{host_clock_s():.6f}")
            os.replace(tmp, target)
        except OSError:
            pass
        time.sleep(interval_s)


def init_pool_worker(hb_dir: str, interval_s: float) -> None:
    """Pool initializer: ignore SIGINT, start the heartbeat thread.

    SIGINT belongs to the coordinator (it checkpoints a journaled
    campaign, or propagates ``KeyboardInterrupt``); a worker that dies
    of the operator's ^C would just be one more death to recover from,
    so it is ignored here.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    path = os.path.join(hb_dir, f"hb-{os.getpid()}")
    thread = threading.Thread(
        target=_heartbeat_loop, args=(path, interval_s), daemon=True
    )
    thread.start()


def _beat_files(hb_dir: str | Path) -> list[tuple[int, Path]]:
    """``(pid, path)`` of every worker beat file under *hb_dir*."""
    beats: list[tuple[int, Path]] = []
    for entry in sorted(Path(hb_dir).glob("hb-*")):
        try:
            beats.append((int(entry.name.split("-", 1)[1]), entry))
        except (IndexError, ValueError):
            continue  # a writer's temp file, not a beat
    return beats


def stale_workers(hb_dir: str | Path, now_s: float, timeout_s: float) -> list[int]:
    """PIDs of workers whose heartbeat is older than *timeout_s*.

    Reads the per-PID liveness files the workers stamp.  A file that
    vanished mid-scan or does not parse is treated as *alive* -- the
    worker was writing it moments ago; only a well-formed beat that has
    genuinely aged out counts as stale.  Pure: callers decide what to
    kill.
    """
    stale: list[int] = []
    for pid, entry in _beat_files(hb_dir):
        try:
            beat = float(entry.read_text())
        except (OSError, ValueError):
            continue
        if now_s - beat > timeout_s:
            stale.append(pid)
    return stale


def kill_workers(hb_dir: str | Path) -> None:
    """SIGKILL every worker that stamped a beat file, and drop the file."""
    for pid, entry in _beat_files(hb_dir):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
        try:
            entry.unlink()
        except OSError:
            pass
