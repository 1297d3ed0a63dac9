"""Parallel, cached sweep execution.

``repro.parallel`` scales the paper's sweep-shaped experiments: cells
fan out across worker processes, results land in a content-addressed
on-disk cache, and warm reruns skip simulation entirely -- while
staying byte-identical to the serial path (the model is deterministic,
and every cell carries its schedule hash to prove it).

* :class:`~repro.parallel.spec.CellSpec` /
  :func:`~repro.parallel.executor.run_cell` -- one sweep cell and its
  (inline *and* worker-side) execution.
* :func:`~repro.parallel.executor.execute_cells` -- the one coordinator
  every sweep goes through: cache first, then inline (``jobs == 1``
  with no host-chaos plan and no cell deadline) or in a self-healing
  pool, journaled when given a journal; per-cell failure isolation
  composes with :func:`~repro.core.resilience.resilient_sweep`
  semantics.
* :func:`~repro.parallel.executor.parallel_sweep` /
  :func:`~repro.parallel.executor.resume_sweep` -- sweep-shaped entry
  points over it; ``checkpoint=`` creates or resumes a write-ahead
  journal.
* :class:`~repro.parallel.cache.ResultCache` /
  :func:`~repro.parallel.cache.cell_key` -- the cache and its
  fingerprinting rules.
* :func:`~repro.parallel.snapshot.snapshot_result` -- detached,
  picklable run results.
* :mod:`repro.parallel.journal` / :mod:`repro.parallel.durable` -- the
  crash-safety building blocks: write-ahead journal, policy, worker
  heartbeats, recovery ledger and reports.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cell_key,
    code_fingerprint,
    default_cache_dir,
)
from repro.parallel.durable import (
    RECOVERY_REPORT_SCHEMA,
    CampaignInterrupted,
    DurablePolicy,
    RecoveryLedger,
    backoff_s,
    save_recovery_report,
)
from repro.parallel.executor import (
    CellSpec,
    execute_cells,
    parallel_sweep,
    resume_sweep,
    run_cell,
)
from repro.parallel.journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalError,
    JournalMismatchError,
    JournalState,
    load_journal,
)
from repro.parallel.snapshot import is_snapshot, snapshot_result

__all__ = [
    "CACHE_SCHEMA",
    "JOURNAL_SCHEMA",
    "RECOVERY_REPORT_SCHEMA",
    "CampaignInterrupted",
    "CampaignJournal",
    "CellSpec",
    "DurablePolicy",
    "JournalError",
    "JournalMismatchError",
    "JournalState",
    "RecoveryLedger",
    "ResultCache",
    "backoff_s",
    "cell_key",
    "code_fingerprint",
    "default_cache_dir",
    "execute_cells",
    "is_snapshot",
    "load_journal",
    "parallel_sweep",
    "resume_sweep",
    "run_cell",
    "save_recovery_report",
    "snapshot_result",
]
