"""The sweep coordinator: every cell of every sweep runs through here.

The unit of work is a :class:`~repro.parallel.spec.CellSpec` -- one
``(app, P, scale, seed, campaign)`` point of a sweep, optionally bounded
by the runaway watchdogs.  :func:`run_cell` executes one spec and
returns a detached :func:`~repro.parallel.snapshot.snapshot_result`;
:func:`execute_cells` is the one coordinator that runs a list of specs
behind the content-addressed :class:`~repro.parallel.cache.ResultCache`;
:func:`parallel_sweep` and :func:`resume_sweep` assemble its results
into the same :class:`~repro.core.resilience.SweepOutcome` the serial
:func:`~repro.core.resilience.resilient_sweep` produces, so the partial
tables and failure reports compose unchanged.

The coordinator decides how to run from its inputs alone:

* **inline** -- with ``jobs == 1`` and neither a host-chaos plan nor a
  cell deadline, cells run in this process, one after the other.  Only
  those two need a worker process that can be killed;
* **pooled** -- otherwise cells run in a ``ProcessPoolExecutor`` that
  heals itself under the :class:`~repro.parallel.durable.DurablePolicy`:
  workers heartbeat, dead or stalled workers and over-deadline cells
  are SIGKILLed and the pool respawned, retries wait out a
  deterministic backoff, and stragglers are speculatively re-dispatched
  (first result wins);
* **journaled** -- with a :class:`~repro.parallel.journal.CampaignJournal`
  every dispatch, completion and exhausted cell is journaled, and
  SIGINT/SIGTERM checkpoint the journal and raise
  :class:`~repro.parallel.durable.CampaignInterrupted`.  Without a
  journal, ``KeyboardInterrupt`` propagates.

Cache hits are served first.  A call whose cells are all hits creates
no pool, no heartbeat directory and no signal handler.

Determinism: every cell is an independent, seeded simulation; results
are keyed by cell -- never by completion order -- so inline, pooled,
journaled and resumed runs are byte-identical.  Each cell also records
its :class:`~repro.analyze.sanitize.DeterminismSink` schedule hash on
``result.schedule_hash``, making equivalence checkable event-for-event.

Resilience: a failing cell costs its own attempt, never the sweep.
Exceptions are caught *inside* the worker and returned as structured
``(error_type, message)`` payloads -- never re-raised through the IPC
pickle machinery -- and every cell gets the same ``1 + retries``
same-seed attempts the serial path gives it.

Telemetry: pass a :class:`~repro.obs.campaign.CampaignTelemetry` and
every attempt comes back wrapped in a
:class:`~repro.obs.campaign.CellSpan` -- queue wait, run wall, failure
kind, schedule hash, kernel fast-path counters, plus a picklable
snapshot of the worker's whole metric registry -- absorbed in
*completion order* so the event log, progress line and campaign
registry track the run live; recovery actions are narrated through
``telemetry.on_recovery``.  Results stay keyed by spec, so telemetry
never perturbs the tables.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import threading
import time
from collections import deque
from collections.abc import Iterable
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from types import FrameType
from typing import TYPE_CHECKING, Any

from repro.core.resilience import CellFailure, SweepOutcome
from repro.core.runner import DEFAULT_SCALE
from repro.obs.campaign import CellSpan, percentile
from repro.obs.hostclock import WallTimer, host_clock_s
from repro.parallel.cache import ResultCache
from repro.parallel.durable import (
    CampaignInterrupted,
    DurablePolicy,
    RecoveryLedger,
    backoff_s,
    init_pool_worker,
    kill_workers,
    stale_workers,
)
from repro.parallel.journal import (
    CampaignJournal,
    JournalError,
    load_journal,
    open_journal,
)
from repro.parallel.snapshot import snapshot_result
from repro.parallel.spec import CellSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runner import RunResult
    from repro.faults.host import HostChaosPlan, HostFault
    from repro.faults.spec import CampaignSpec
    from repro.obs.campaign import CampaignTelemetry
    from repro.obs.instrument import Observability
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "CellResults",
    "CellSpec",
    "execute_cells",
    "parallel_sweep",
    "resume_sweep",
    "run_cell",
]

#: Histogram boundaries for per-cell wall time (seconds).
_CELL_WALL_BOUNDARIES = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)

#: Rolling window of completed cell walls for the straggler threshold.
_STRAGGLER_WINDOW = 64


def run_cell(spec: CellSpec, obs: "Observability | None" = None) -> "RunResult":
    """Execute one cell and return its detached snapshot.

    This is both the inline path and the function each pool worker
    runs; the two therefore cannot diverge.  Pass an
    :class:`~repro.obs.instrument.Observability` to keep hold of the
    run's metric registry (the telemetry seam: workers snapshot it into
    their :class:`~repro.obs.campaign.CellSpan`); the schedule-order
    sink is attached to it either way.  With ``obs=None`` *and*
    ``fingerprint_schedule=False`` no Observability is materialised at
    all: nobody can see the registry a throwaway instance would have
    collected, and skipping the per-event metrics harvest keeps the
    sink-free cell on the fast path end to end.
    """
    from repro.analyze.sanitize import DeterminismSink, _resolve_builder
    from repro.obs.instrument import Observability

    sink = DeterminismSink(order_capacity=0) if spec.fingerprint_schedule else None
    if obs is None and sink is not None:
        obs = Observability()
    if sink is not None and obs is not None:
        obs.extra_sinks.append(sink)
    if spec.scenario is not None:
        import json

        from repro.scenario.compiler import compile_scenario

        result = compile_scenario(json.loads(spec.scenario)).run(
            spec.n_processors,
            spec.scale,
            spec.seed,
            obs=obs,
            statfx_interval_ns=spec.statfx_interval_ns,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        )
    elif spec.campaign is not None:
        from repro.faults.campaign import run_with_campaign

        result = run_with_campaign(
            spec.campaign,
            spec.app,
            spec.n_processors,
            scale=spec.scale,
            seed=spec.seed,
            obs=obs,
            statfx_interval_ns=spec.statfx_interval_ns,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        ).result
    else:
        from repro.core.runner import run_application
        from repro.xylem.params import XylemParams

        result = run_application(
            _resolve_builder(spec.app)(),
            spec.n_processors,
            scale=spec.scale,
            os_params=XylemParams(seed=spec.seed),
            statfx_interval_ns=spec.statfx_interval_ns,
            obs=obs,
            max_events=spec.max_events,
            max_sim_time=spec.max_sim_time,
        )
    if sink is not None:
        result.schedule_hash = sink.schedule_hash
    return snapshot_result(result)


def _worker(payload: "tuple[CellSpec, int, float, bool, HostFault | None]") -> tuple:
    """Run one cell attempt; never raises, so futures never carry exceptions.

    *payload* is ``(spec, attempt, submit_s, ship_metrics, fault)``;
    returns ``("ok", snapshot, span)`` or ``("err", error_type, message,
    span)`` where *span* is the attempt's
    :class:`~repro.obs.campaign.CellSpan` (carrying the worker
    registry's snapshot when *ship_metrics* is set).  Catching inside
    the worker keeps exotic exception types (whose constructors don't
    round-trip through pickle) from wedging the result pipe, and makes
    a failed cell cost exactly its own attempt.  ``KeyboardInterrupt``
    is the operator's, not the cell's: it propagates.

    *fault* is the chaos seam: when the coordinator's host-chaos plan
    names this attempt, the fault is applied here, inside the worker (a
    kill timer racing the simulation, a hang, a slow start), so
    recovery is exercised against real process-level failures.
    """
    from repro.obs.instrument import Observability

    spec, attempt, submit_s, ship_metrics, fault = payload
    timer = None
    if fault is not None:
        from repro.faults.host import apply_host_fault

        timer = apply_host_fault(fault)
    obs = Observability()
    start_s = host_clock_s()
    error: BaseException | None = None
    try:
        result = run_cell(spec, obs=obs)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        error = exc
    finally:
        if timer is not None:
            timer.cancel()
    span = CellSpan(
        app=spec.app,
        n_processors=spec.n_processors,
        seed=spec.seed,
        attempt=attempt,
        worker_pid=os.getpid(),
        submit_s=submit_s,
        start_s=start_s,
        end_s=host_clock_s(),
        run_wall_s=0.0 if error is not None else result.wall_s,
        failure_kind=type(error).__name__ if error is not None else None,
        schedule_hash=None if error is not None else result.schedule_hash,
        kernel_stats={} if error is not None else dict(result.kernel_stats),
        metrics=obs.registry.snapshot() if ship_metrics else None,
    )
    if error is not None:
        return ("err", type(error).__name__, str(error), span)
    return ("ok", result, span)


@dataclass
class _Attempt:
    """One cell attempt: queued until *eligible_s*, then dispatched."""

    spec: CellSpec
    attempt: int
    eligible_s: float = 0.0
    submit_s: float = 0.0
    speculative: bool = False


class _StopFlag:
    """Signal-handler target: which signal asked the campaign to stop.

    While *armed* (an inline cell is simulating) the handler also
    raises ``KeyboardInterrupt`` to abandon that cell at once; a pooled
    coordinator polls :attr:`reason` instead.
    """

    def __init__(self) -> None:
        self.reason: str | None = None
        self.armed = False

    def trip(self, signum: int, frame: "FrameType | None") -> None:
        self.reason = signal.Signals(signum).name
        if self.armed:
            raise KeyboardInterrupt


class CellResults(tuple["dict[CellSpec, RunResult]", "list[CellFailure]"]):
    """What :func:`execute_cells` returns: unpacks as ``(results, failures)``.

    *results* maps each completed spec to its snapshot; *failures* lists
    the cells that exhausted their attempts, in input order.
    :attr:`ledger` is the call's
    :class:`~repro.parallel.durable.RecoveryLedger`.
    """

    ledger: RecoveryLedger


def execute_cells(
    specs: "list[CellSpec]",
    jobs: int = 1,
    cache: ResultCache | None = None,
    retries: int = 1,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    journal: CampaignJournal | None = None,
    chaos: "HostChaosPlan | None" = None,
    resumed_keys: "frozenset[str] | None" = None,
    policy: DurablePolicy | None = None,
    handle_signals: bool = True,
) -> CellResults:
    """Run every spec behind the cache: inline, pooled or journaled.

    Returns ``(results, failures)`` (a :class:`CellResults`): *results*
    maps each completed spec to its snapshot and *failures* lists the
    cells that exhausted their ``1 + retries`` same-seed attempts, in
    input order.  Cache hits skip simulation entirely; fresh results
    are written back.  The module docstring gives the inline / pooled /
    journaled rules; *policy* (default ``DurablePolicy()``) tunes the
    pool's health monitor, backoff and speculation, and *chaos* applies
    a :class:`~repro.faults.host.HostChaosPlan` inside the workers.

    With *journal*, cells whose key is in *resumed_keys* and whose
    result the cache still holds are counted as recovered, and a
    SIGINT/SIGTERM (handled when *handle_signals* is set and this is
    the main thread) checkpoints the journal and raises
    :class:`~repro.parallel.durable.CampaignInterrupted`.

    With *telemetry*, every submit/cache-hit/attempt/retry is logged
    and aggregated as it completes (see :mod:`repro.obs.campaign`).
    When *telemetry* is given without *metrics*, the ``parallel.*`` /
    ``cache.*`` counters land in the telemetry's campaign registry.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    policy = policy if policy is not None else DurablePolicy()
    if metrics is None and telemetry is not None:
        metrics = telemetry.registry
    resumed_keys = resumed_keys if resumed_keys is not None else frozenset()
    inline = jobs == 1 and chaos is None and policy.cell_deadline_s is None
    ship = telemetry is not None

    ledger = RecoveryLedger()
    results: "dict[CellSpec, RunResult]" = {}
    errors: "dict[CellSpec, tuple[str, str]]" = {}
    attempts: "dict[CellSpec, int]" = {}
    failed: "set[CellSpec]" = set()
    recent_walls: "deque[float]" = deque(maxlen=_STRAGGLER_WINDOW)
    speculated: "set[CellSpec]" = set()

    if telemetry is not None:
        telemetry.begin(specs, jobs)

    def _recover_event(kind: str, **fields: object) -> None:
        if telemetry is not None:
            telemetry.on_recovery(kind, **fields)

    # Serve cache first: journal-recovered cells and ordinary warm hits.
    pending: "deque[_Attempt]" = deque()
    for spec in specs:
        hit = cache.get(spec.key()) if cache is not None else None
        if hit is not None:
            results[spec] = hit
            if journal is not None:
                journal.record_done(spec, hit)
            if resumed_keys and spec.key() in resumed_keys:
                ledger.resumed_cells += 1
                _recover_event("resumed_cell", app=spec.app, p=spec.n_processors)
            if telemetry is not None:
                telemetry.on_cache_hit(spec, hit)
            continue
        attempts[spec] = 1
        pending.append(_Attempt(spec=spec, attempt=1))

    stop = _StopFlag()
    previous_handlers: "dict[int, Any]" = {}
    hb_dir: str | None = None
    inflight: "dict[Future[tuple], _Attempt]" = {}
    pool: "ProcessPoolExecutor | None" = None

    def _failure(spec: CellSpec) -> CellFailure:
        kind, message = errors[spec]
        return CellFailure(
            app=spec.app,
            n_processors=spec.n_processors,
            attempts=attempts[spec],
            error_type=kind,
            message=message,
        )

    def _new_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=init_pool_worker,
            initargs=(hb_dir, policy.heartbeat_interval_s),
        )

    def _dispatch(entry: _Attempt, fault: "HostFault | None" = None) -> tuple:
        """Stamp *entry*'s dispatch (telemetry, journal); its worker payload."""
        entry.submit_s = (
            telemetry.on_submit(entry.spec, entry.attempt)
            if telemetry is not None
            else host_clock_s()
        )
        if journal is not None:
            journal.record_dispatch(entry.spec, entry.attempt)
        return (entry.spec, entry.attempt, entry.submit_s, ship, fault)

    def _submit(entry: _Attempt) -> None:
        assert pool is not None
        fault = (
            chaos.for_cell(entry.spec.app, entry.spec.n_processors, entry.attempt)
            if chaos is not None and not entry.speculative
            else None
        )
        future = pool.submit(_worker, _dispatch(entry, fault))
        inflight[future] = entry

    def _schedule_retry(spec: CellSpec, kind: str, message: str) -> bool:
        """Queue one more same-seed attempt; False once the budget is spent.

        Pooled retries wait out a deterministic backoff; inline retries
        run at once (a host fault cannot reach an inline cell).
        """
        if spec in results or spec in failed:
            return False
        errors[spec] = (kind, message)
        if attempts[spec] > retries:
            failed.add(spec)
            if journal is not None:
                journal.record_failed(spec, _failure(spec))
            return False
        attempts[spec] += 1
        wait_s = 0.0 if inline else backoff_s(
            attempts[spec] - 1, policy.backoff_base_s, policy.backoff_cap_s
        )
        ledger.retries += 1
        ledger.fault_dwell_s += wait_s
        _recover_event(
            "retry",
            app=spec.app,
            p=spec.n_processors,
            attempt=attempts[spec],
            backoff_s=wait_s,
            error=kind,
        )
        pending.append(
            _Attempt(
                spec=spec, attempt=attempts[spec], eligible_s=host_clock_s() + wait_s
            )
        )
        return True

    def _absorb(rec: _Attempt, payload: tuple) -> None:
        """Fold one finished attempt in, the moment it completes."""
        spec = rec.spec
        span: CellSpan = payload[-1]
        if spec in results:
            # The sibling of a speculative pair: its result arrived
            # second and is discarded (byte-identical by determinism).
            ledger.speculative_wasted += 1
            _recover_event("speculative_wasted", app=spec.app, p=spec.n_processors)
            return
        if payload[0] != "ok":
            will_retry = _schedule_retry(spec, payload[1], payload[2])
            if telemetry is not None:
                telemetry.on_span(span, will_retry=will_retry)
            return
        result: "RunResult" = payload[1]
        results[spec] = result
        errors.pop(spec, None)
        if cache is not None:
            cache.put(spec.key(), result)
        if journal is not None:
            journal.record_done(spec, result)
        recent_walls.append(span.span_s)
        if rec.speculative:
            ledger.speculative_wins += 1
            _recover_event("speculative_win", app=spec.app, p=spec.n_processors)
        # First result wins: cancel the sibling if it has not started; a
        # running sibling finishes as "wasted" above.
        for sibling, other in list(inflight.items()):
            if other.spec == spec and sibling.cancel():
                del inflight[sibling]
                ledger.speculative_cancelled += 1
        if telemetry is not None:
            telemetry.on_span(span)

    def _run_inline() -> bool:
        """Run the queue in this process; True if a signal stopped it."""
        while pending:
            if stop.reason is not None:
                return True
            entry = pending.popleft()
            payload_in = _dispatch(entry)
            stop.armed = True
            try:
                payload = _worker(payload_in)
            except KeyboardInterrupt:
                if stop.reason is None:
                    raise
                return True
            finally:
                stop.armed = False
            _absorb(entry, payload)
        return False

    def _lose(
        rec: _Attempt, now_s: float, kind: str, message: str, guilty: bool = True
    ) -> None:
        """Account one destroyed attempt and reschedule its cell.

        Its age lands in ``lost_work_s``.  A guilty attempt burns a
        retry; an innocent one re-queues at its current attempt.  A
        speculative duplicate reschedules nothing: its primary attempt
        is still tracked, or was lost alongside it.
        """
        ledger.lost_work_s += max(0.0, now_s - rec.submit_s)
        if rec.speculative:
            speculated.discard(rec.spec)
        elif guilty:
            _schedule_retry(rec.spec, kind, message)
        else:
            pending.append(
                _Attempt(
                    spec=rec.spec,
                    attempt=rec.attempt,
                    eligible_s=now_s + policy.backoff_base_s,
                )
            )

    def _respawn(
        reason: str,
        affected_error: str,
        guilty: "set[CellSpec] | None" = None,
    ) -> None:
        """Replace the pool; reschedule everything that was in flight.

        Cells in *guilty* burn a retry attempt (their own attempt
        misbehaved); innocent bystanders whose pool was torn down under
        them re-queue at their current attempt -- the cell-level bound
        is the deadline, and another cell's fault must not eat their
        retry budget.  ``guilty=None`` means every affected cell is
        guilty (a broken pool cannot say which worker died).
        """
        nonlocal pool
        ledger.respawns += 1
        _recover_event("respawn", reason=reason)
        assert hb_dir is not None and pool is not None
        kill_workers(hb_dir)
        pool.shutdown(wait=False, cancel_futures=True)
        flights = list(inflight.values())
        inflight.clear()
        now_s = host_clock_s()
        for rec in flights:
            if rec.spec not in results and rec.spec not in failed:
                is_guilty = guilty is None or rec.spec in guilty
                _lose(rec, now_s, affected_error, reason, is_guilty)
        pool = _new_pool()

    def _complete(future: "Future[tuple]", rec: _Attempt) -> bool:
        """Fold one finished future in; returns True if the pool broke."""
        try:
            payload = future.result()
        except Exception as exc:  # noqa: BLE001 - pool breakage
            if rec.spec in results or rec.spec in failed:
                return True
            ledger.worker_deaths += 1
            _recover_event(
                "worker_death",
                app=rec.spec.app,
                p=rec.spec.n_processors,
                error=type(exc).__name__,
            )
            _lose(rec, host_clock_s(), type(exc).__name__, str(exc))
            return True
        _absorb(rec, payload)
        return False

    def _check_health(now_s: float) -> None:
        """Deadline + heartbeat sweep; respawns at most once per call."""
        if policy.cell_deadline_s is not None:
            overdue = [
                rec
                for rec in inflight.values()
                if now_s - rec.submit_s > policy.cell_deadline_s
            ]
            if overdue:
                ledger.deadline_kills += len(overdue)
                for rec in overdue:
                    _recover_event(
                        "deadline_kill",
                        app=rec.spec.app,
                        p=rec.spec.n_processors,
                        age_s=round(now_s - rec.submit_s, 3),
                    )
                _respawn(
                    "cell deadline exceeded",
                    "DeadlineExceeded",
                    guilty={rec.spec for rec in overdue},
                )
                return
        assert hb_dir is not None
        stalled = stale_workers(hb_dir, now_s, policy.heartbeat_timeout_s)
        if stalled and inflight:
            ledger.stalled_workers += len(stalled)
            for pid in stalled:
                _recover_event("stalled_worker", pid=pid)
            _respawn("worker heartbeat lost", "WorkerStalled", guilty=set())

    def _maybe_speculate(now_s: float) -> None:
        """Re-dispatch the slowest straggler onto a free slot."""
        if (
            not policy.speculate
            or pending
            or len(inflight) >= jobs
            or len(recent_walls) < policy.straggler_min_samples
        ):
            return
        p95 = percentile(list(recent_walls), 0.95)
        if p95 is None:
            return
        threshold = max(policy.straggler_factor * p95, policy.straggler_floor_s)
        for rec in sorted(inflight.values(), key=lambda r: r.submit_s):
            if rec.speculative or rec.spec in speculated:
                continue
            if now_s - rec.submit_s <= threshold:
                continue
            speculated.add(rec.spec)
            ledger.stragglers += 1
            _recover_event(
                "speculative_dispatch",
                app=rec.spec.app,
                p=rec.spec.n_processors,
                age_s=round(now_s - rec.submit_s, 3),
                threshold_s=round(threshold, 3),
            )
            _submit(_Attempt(spec=rec.spec, attempt=rec.attempt, speculative=True))
            return

    def _run_pool() -> bool:
        """Drive the self-healing pool; True if a signal stopped it."""
        while len(results) + len(failed) < len(specs):
            if stop.reason is not None:
                return True
            now_s = host_clock_s()
            while pending and len(inflight) < jobs:
                entry = min(pending, key=lambda e: e.eligible_s)
                if entry.eligible_s > now_s:
                    break
                pending.remove(entry)
                if entry.spec in results or entry.spec in failed:
                    continue
                _submit(entry)
            _maybe_speculate(now_s)
            if not inflight:
                if not pending:
                    break
                next_eligible = min(e.eligible_s for e in pending)
                time.sleep(
                    min(
                        policy.poll_interval_s,
                        max(0.0, next_eligible - host_clock_s()),
                    )
                )
                continue
            finished, _ = wait(
                list(inflight),
                timeout=policy.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            pool_broke = False
            for future in finished:
                rec = inflight.pop(future, None)
                if rec is not None:
                    pool_broke = _complete(future, rec) or pool_broke
            if pool_broke:
                _respawn("broken process pool", "BrokenProcessPool")
            else:
                _check_health(host_clock_s())
        return False

    interrupted: "CampaignInterrupted | None" = None
    try:
        with WallTimer() as pool_wall:
            if (
                pending
                and journal is not None
                and handle_signals
                and threading.current_thread() is threading.main_thread()
            ):
                for signum in (signal.SIGINT, signal.SIGTERM):
                    previous_handlers[signum] = signal.signal(signum, stop.trip)
            if not pending:
                stopped = False
            elif inline:
                stopped = _run_inline()
            else:
                hb_dir = tempfile.mkdtemp(prefix="cedar-hb-")
                pool = _new_pool()
                stopped = _run_pool()
            if stopped and journal is not None and stop.reason is not None:
                ledger.checkpoints += 1
                journal.record_checkpoint(stop.reason)
                _recover_event("checkpoint", reason=stop.reason)
                interrupted = CampaignInterrupted(journal.path, stop.reason)
    finally:
        if pool is not None and hb_dir is not None:
            abandoned = bool(inflight)
            if abandoned:
                kill_workers(hb_dir)
            # A clean finish waits: the idle workers are reaped here, so
            # their CPU is charged to this call, not to what runs next.
            pool.shutdown(wait=not abandoned, cancel_futures=True)
        if hb_dir is not None:
            shutil.rmtree(hb_dir, ignore_errors=True)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        failures = [_failure(spec) for spec in specs if spec in failed]
        if metrics is not None:
            metrics.gauge("parallel.jobs").set(jobs)
            metrics.counter("parallel.cells.total").inc(len(specs))
            metrics.counter("parallel.cells.completed").inc(len(results))
            metrics.counter("parallel.cells.failed").inc(len(failures))
            metrics.counter("parallel.retries").inc(ledger.retries)
            metrics.counter("parallel.worker_deaths").inc(ledger.worker_deaths)
            metrics.gauge("parallel.wall_s").set(pool_wall.elapsed_s)
            walls = metrics.histogram("parallel.cell_wall_s", _CELL_WALL_BOUNDARIES)
            for result in results.values():
                walls.observe(result.wall_s)
            if pool_wall.elapsed_s > 0 and jobs > 1:
                busy_s = sum(result.wall_s for result in results.values())
                metrics.gauge("parallel.pool.utilization").set(
                    min(1.0, busy_s / (jobs * pool_wall.elapsed_s))
                )
            if journal is not None or hb_dir is not None:
                ledger.collect(metrics)
                metrics.counter("parallel.speculative_dispatches").inc(
                    ledger.stragglers
                )
            if cache is not None:
                cache.collect(metrics)
        if telemetry is not None:
            telemetry.end()
        if journal is not None:
            journal.close()
    if interrupted is not None:
        raise interrupted
    done = CellResults((results, failures))
    done.ledger = ledger
    return done


def _sweep(
    specs: "list[CellSpec]",
    scale: float,
    seed: int,
    label: str,
    cache: ResultCache | None,
    journal: CampaignJournal | None,
    **options: Any,
) -> SweepOutcome:
    """Run *specs* through :func:`execute_cells`; assemble the outcome.

    Results land in spec order, grouped by app; a journaled run also
    carries its ``cedar-repro/recovery-report/v1`` on
    ``outcome.recovery``.
    """
    with WallTimer() as wall:
        run = execute_cells(specs, cache=cache, journal=journal, **options)
    results, failures = run
    outcome = SweepOutcome(scale=scale, seed=seed, failures=failures)
    if journal is not None:
        outcome.recovery = run.ledger.report(
            label=label,
            cells_total=len(specs),
            cells_completed=len(results),
            wall_s=wall.elapsed_s,
            cache=cache,
        )
    for spec in specs:
        by_config = outcome.results.setdefault(spec.app, {})
        if spec in results:
            by_config[spec.n_processors] = results[spec]
    return outcome


def parallel_sweep(
    apps: "Iterable[str]",
    configs: "Iterable[int] | None" = None,
    scale: float = DEFAULT_SCALE,
    seed: int = 1994,
    jobs: int = 1,
    cache_dir: "str | Path | None" = None,
    campaign: "CampaignSpec | None" = None,
    retries: int = 1,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    statfx_interval_ns: int = 200_000,
    max_events: int | None = None,
    max_sim_time: int | None = None,
    checkpoint: "str | Path | None" = None,
    chaos: "HostChaosPlan | None" = None,
    durable_policy: DurablePolicy | None = None,
    label: str = "campaign",
    handle_signals: bool = True,
) -> SweepOutcome:
    """Sweep ``apps x configs`` through :func:`execute_cells` and the cache.

    A drop-in sibling of :func:`~repro.core.resilience.resilient_sweep`
    returning the same :class:`SweepOutcome` (results in input order,
    per-cell failures isolated), plus per-cell ``schedule_hash`` values
    on the results, ``parallel.*`` / ``cache.*`` metrics when a
    registry is passed, and full campaign telemetry (event log,
    progress, Perfetto spans) when a
    :class:`~repro.obs.campaign.CampaignTelemetry` is passed.

    *checkpoint* names a write-ahead journal.  If it does not exist it
    is created under *label* and the campaign starts fresh; if it
    exists the campaign **resumes**: the journal's fingerprint is
    validated, its cell set is checked against this call's grid, and
    completed cells are served from the cache (*cache_dir*, by default
    ``<checkpoint>.cache``).  The outcome then carries the recovery
    report on ``outcome.recovery``.  *chaos* and *durable_policy* (a
    :class:`~repro.parallel.durable.DurablePolicy`) configure the
    host-fault harness and the pool's health monitor, with or without a
    journal.
    """
    from repro.core.reference import CONFIGS

    apps = list(apps)
    configs = list(CONFIGS if configs is None else configs)
    base = CellSpec(
        app="",
        n_processors=1,
        scale=scale,
        seed=seed,
        campaign=campaign,
        statfx_interval_ns=statfx_interval_ns,
        max_events=max_events,
        max_sim_time=max_sim_time,
    )
    specs = [
        replace(base, app=app, n_processors=n_proc)
        for app in apps
        for n_proc in configs
    ]
    journal: CampaignJournal | None = None
    resumed_keys: "frozenset[str] | None" = None
    if checkpoint is not None:
        checkpoint = Path(checkpoint)
        if cache_dir is None:
            cache_dir = checkpoint.with_name(checkpoint.name + ".cache")
        journal, resumed_keys = open_journal(
            checkpoint,
            specs,
            seed=seed,
            label=label,
            cache_dir=cache_dir,
            sweep={
                "apps": apps,
                "configs": configs,
                "scale": scale,
                "seed": seed,
                "campaign": campaign.to_dict() if campaign is not None else None,
            },
        )
    return _sweep(
        specs,
        scale,
        seed,
        label,
        ResultCache(cache_dir) if cache_dir is not None else None,
        journal,
        jobs=jobs,
        retries=retries,
        metrics=metrics,
        telemetry=telemetry,
        chaos=chaos,
        resumed_keys=resumed_keys,
        policy=durable_policy,
        handle_signals=handle_signals,
    )


def resume_sweep(
    journal_path: str | Path,
    jobs: int = 2,
    cache_dir: "str | Path | None" = None,
    retries: int = 3,
    policy: DurablePolicy | None = None,
    metrics: "MetricsRegistry | None" = None,
    telemetry: "CampaignTelemetry | None" = None,
    handle_signals: bool = True,
) -> SweepOutcome:
    """Resume an interrupted campaign from its write-ahead journal.

    Loads the journal, refuses a code-fingerprint mismatch
    (:class:`~repro.parallel.journal.JournalMismatchError`), serves
    completed cells from the recorded result cache, and re-runs only
    the incomplete ones.  The final outcome -- and its tables -- are
    byte-identical to an uninterrupted run of the same campaign.
    """
    state = load_journal(journal_path)
    state.check_fingerprint()
    if not state.specs:
        raise JournalError(f"journal {journal_path} carries no cells")
    cache_path = cache_dir if cache_dir is not None else state.cache_dir
    if cache_path is None:
        raise JournalError(
            f"journal {journal_path} records no cache directory; pass cache_dir"
        )
    sweep_meta = state.header.get("sweep") or {}
    header_seed = state.header.get("seed")
    return _sweep(
        state.specs,
        float(sweep_meta.get("scale", state.specs[0].scale)),
        int(header_seed if header_seed is not None else state.specs[0].seed),
        state.label,
        ResultCache(cache_path),
        CampaignJournal.append_to(journal_path),
        jobs=jobs,
        retries=retries,
        policy=policy,
        metrics=metrics,
        telemetry=telemetry,
        resumed_keys=frozenset(state.done),
        handle_signals=handle_signals,
    )
