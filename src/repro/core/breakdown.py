"""Completion-time and user-time breakdowns (Figures 3 and 4-9).

Two views, mirroring the paper:

* :func:`ct_breakdown` -- the "Q"-facility view of Section 5: cluster
  time split into user, system, interrupt and kernel-lock spin time.
* :func:`user_breakdown` -- the Section 6 view: the user time of each
  task split into useful work (serial code, main cluster-only loops,
  s(x)doall iteration execution) and parallelization overheads (loop
  setup, iteration pickup, barrier wait, helper busy-wait), computed
  from the cedarhpm event traces exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.runner import RunResult
from repro.core.trace_analysis import IntervalKind, trace_memo
from repro.runtime.loops import LoopConstruct
from repro.xylem.categories import TimeCategory

__all__ = [
    "MemoryDecomposition",
    "UserTimeBreakdown",
    "ct_breakdown",
    "memory_decomposition",
    "user_breakdown",
    "task_ids",
]

_MC_CONSTRUCTS = (LoopConstruct.CLUSTER_ONLY.value, LoopConstruct.CDOACROSS.value)
_XDOALL = (LoopConstruct.XDOALL.value,)


def task_ids(result: RunResult) -> list[int]:
    """Task ids of the run: 0 is the main task, 1.. are helpers."""
    return list(range(result.config.n_clusters))


def ct_breakdown(result: RunResult, cluster_id: int) -> dict[TimeCategory, int]:
    """Figure-3 breakdown of one cluster's completion time (ns)."""
    return result.accounting.breakdown(cluster_id, result.ct_ns)


@dataclass(frozen=True)
class UserTimeBreakdown:
    """Figure 4's decomposition of one task's time (nanoseconds).

    Below-the-line (useful) components: ``serial_ns``, ``mc_loop_ns``,
    ``iter_sdoall_ns``, ``iter_xdoall_ns``.  Above-the-line
    (parallelization overhead) components: ``setup_ns``,
    ``pickup_sdoall_ns``, ``pickup_xdoall_ns``, ``barrier_ns``,
    ``helper_wait_ns``.  Per-CE quantities (iteration execution and
    xdoall pickup) are averaged over the cluster's CEs so every
    component is commensurable with the task's wall-clock time.
    """

    task_id: int
    wall_ns: int
    serial_ns: float
    mc_loop_ns: float
    iter_sdoall_ns: float
    iter_xdoall_ns: float
    setup_ns: float
    pickup_sdoall_ns: float
    pickup_xdoall_ns: float
    barrier_ns: float
    helper_wait_ns: float

    @property
    def useful_ns(self) -> float:
        """Below-the-line time (serial + mc + iteration execution)."""
        return self.serial_ns + self.mc_loop_ns + self.iter_sdoall_ns + self.iter_xdoall_ns

    @property
    def overhead_ns(self) -> float:
        """Parallelization overhead (above-the-line) time."""
        return (
            self.setup_ns
            + self.pickup_sdoall_ns
            + self.pickup_xdoall_ns
            + self.barrier_ns
            + self.helper_wait_ns
        )

    @property
    def overhead_fraction(self) -> float:
        """Parallelization overhead as a fraction of the task's time."""
        if self.wall_ns == 0:
            return 0.0
        return self.overhead_ns / self.wall_ns

    def fraction(self, component_ns: float) -> float:
        """Any component as a fraction of the task's wall time."""
        if self.wall_ns == 0:
            return 0.0
        return component_ns / self.wall_ns

    def as_dict(self) -> dict[str, float]:
        """Component values by name (for table rendering)."""
        return {
            "serial": self.serial_ns,
            "mc_loop": self.mc_loop_ns,
            "iter_sdoall": self.iter_sdoall_ns,
            "iter_xdoall": self.iter_xdoall_ns,
            "setup": self.setup_ns,
            "pickup_sdoall": self.pickup_sdoall_ns,
            "pickup_xdoall": self.pickup_xdoall_ns,
            "barrier_wait": self.barrier_ns,
            "helper_wait": self.helper_wait_ns,
        }


@dataclass(frozen=True)
class MemoryDecomposition:
    """Section 7's split of global-memory time into ideal and stall.

    All values are simulated nanoseconds summed over every burst a
    cluster's CEs streamed: ``busy_ns`` is the wall time spent
    streaming, ``ideal_ns`` what the same bursts would have taken with
    a single requester, and ``stall_ns`` their difference -- the time
    attributable to network and bank contention.
    """

    busy_ns: list[int]
    ideal_ns: list[int]
    stall_ns: list[int]

    @property
    def total_busy_ns(self) -> int:
        """Machine-wide streaming time."""
        return sum(self.busy_ns)

    @property
    def total_ideal_ns(self) -> int:
        """Machine-wide uncontended streaming time."""
        return sum(self.ideal_ns)

    @property
    def total_stall_ns(self) -> int:
        """Machine-wide contention stall time."""
        return sum(self.stall_ns)

    @property
    def stall_fraction(self) -> float:
        """Stall time as a fraction of streaming time."""
        if self.total_busy_ns == 0:
            return 0.0
        return self.total_stall_ns / self.total_busy_ns


def memory_decomposition(result: RunResult) -> MemoryDecomposition:
    """Per-cluster busy/ideal/stall split of global-memory streaming.

    Reads the machine's always-on :class:`~repro.hardware.machine.MemoryLedger`,
    the same source the ``repro.obs`` metrics collector uses for its
    ``memory.cluster*`` series, so the two views agree by construction.
    """
    ledger = result.machine.mem_ledger
    n = result.config.n_clusters
    return MemoryDecomposition(
        busy_ns=list(ledger.busy_ns),
        ideal_ns=list(ledger.ideal_ns),
        stall_ns=[ledger.stall_ns(c) for c in range(n)],
    )


def _in_order_sum(values: np.ndarray) -> float:
    """Left-to-right float sum, the order a Python ``+=`` loop adds in.

    ``np.sum`` adds pairwise, which can round differently; the running
    sum of ``np.cumsum`` is strictly sequential.
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def user_breakdown(result: RunResult, task_id: int) -> UserTimeBreakdown:
    """Compute the Figure 4 breakdown for one task from the traces."""
    memo = trace_memo(result)
    durations = memo.durations
    per_cluster = result.config.ces_per_cluster
    xdoall = memo.construct_mask(_XDOALL)
    iterations = memo.mask(IntervalKind.ITERATION, task_id)
    # MC-construct iterations are contained in their MC_LOOP interval.
    iterations &= ~memo.construct_mask(_MC_CONSTRUCTS)
    pickups = memo.mask(IntervalKind.PICKUP, task_id)
    return UserTimeBreakdown(
        task_id=task_id,
        wall_ns=result.ct_ns,
        serial_ns=memo.total_ns(IntervalKind.SERIAL, task_id),
        mc_loop_ns=memo.total_ns(IntervalKind.MC_LOOP, task_id),
        iter_sdoall_ns=_in_order_sum(durations[iterations & ~xdoall] / per_cluster),
        iter_xdoall_ns=_in_order_sum(durations[iterations & xdoall] / per_cluster),
        setup_ns=memo.total_ns(IntervalKind.SETUP, task_id),
        # SDOALL outer pickups happen on the lead CE only: they are
        # task-level events, not averaged.
        pickup_sdoall_ns=float(durations[pickups & ~xdoall].sum()),
        pickup_xdoall_ns=_in_order_sum(durations[pickups & xdoall] / per_cluster),
        barrier_ns=memo.total_ns(IntervalKind.BARRIER, task_id),
        helper_wait_ns=memo.total_ns(IntervalKind.HELPER_WAIT, task_id),
    )
