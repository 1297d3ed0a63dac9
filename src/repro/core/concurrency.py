"""Average parallel-loop concurrency (Section 7, Table 3).

Implements the paper's estimation methodology verbatim: from ``pf``,
the fraction of completion time each cluster spends on parallel-loop
execution, and ``avg_concurr``, the statfx-measured average concurrency
of the cluster, solve

    (1 - pf) + pf * par_concurr = avg_concurr

for ``par_concurr``, the average number of CEs involved while the
cluster executes parallel loops.  The concurrency during non-parallel
work (serial code, sdoall outer pickup, barrier spinning, busy-waiting
for work) is 1 on each cluster.
"""

from __future__ import annotations

from repro.core.runner import RunResult
from repro.core.trace_analysis import trace_memo

__all__ = [
    "loop_regions",
    "parallel_fraction",
    "average_concurrency",
    "parallel_loop_concurrency",
    "total_parallel_loop_concurrency",
]


def loop_regions(result: RunResult, task_id: int) -> list[tuple[int, int]]:
    """Parallel-loop execution regions of one task, as (start, end) ns.

    For the main task a spread loop's region runs from the loop post to
    the main task entering the finish barrier; main cluster-only loops
    contribute their full interval.  For a helper task a region runs
    from joining the loop to detaching from it.
    """
    return trace_memo(result).loop_regions(task_id)


def parallel_fraction(result: RunResult, task_id: int) -> float:
    """``pf``: fraction of CT the task spends on parallel-loop work."""
    if result.ct_ns == 0:
        return 0.0
    total = sum(end - start for start, end in loop_regions(result, task_id))
    return min(1.0, total / result.ct_ns)


def average_concurrency(result: RunResult, cluster_id: int) -> float:
    """statfx-measured average concurrency of one cluster."""
    value = result.statfx.cluster_concurrency(cluster_id)
    if value == 0.0:
        # Sparse sampling fallback: the exact time-weighted board value.
        value = result.board.mean_concurrency(cluster_id)
    return value


def parallel_loop_concurrency(result: RunResult, task_id: int) -> float:
    """Table 3: average parallel-loop concurrency of one task.

    Solves the paper's equation; degenerate cases (no parallel work)
    return 1.0, and the result is clamped to the physical range
    [1, ces_per_cluster].
    """
    pf = parallel_fraction(result, task_id)
    if pf <= 0.0:
        return 1.0
    avg = average_concurrency(result, task_id)
    par = (avg - (1.0 - pf)) / pf
    return max(1.0, min(float(result.config.ces_per_cluster), par))


def total_parallel_loop_concurrency(result: RunResult) -> float:
    """Sum of per-task parallel-loop concurrency over all clusters."""
    return sum(
        parallel_loop_concurrency(result, task)
        for task in range(result.config.n_clusters)
    )
