"""The unit of sweep work: one cell's complete, hashable description.

:class:`CellSpec` sits below both the coordinator
(:mod:`repro.parallel.executor`) and the write-ahead journal
(:mod:`repro.parallel.journal`), which records and rebuilds specs; the
executor re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.runner import DEFAULT_SCALE
from repro.parallel.cache import cell_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.spec import CampaignSpec

__all__ = ["CellSpec"]


@dataclass(frozen=True)
class CellSpec:
    """Everything that determines one sweep cell's result.

    The spec is picklable (it crosses the pool boundary) and hashable
    (it keys result dicts); :func:`~repro.parallel.cache.cell_key`
    fingerprints exactly these fields plus the code version.
    """

    app: str
    n_processors: int
    scale: float = DEFAULT_SCALE
    seed: int = 1994
    campaign: "CampaignSpec | None" = None
    statfx_interval_ns: int = 200_000
    max_events: int | None = None
    max_sim_time: int | None = None
    #: Attach a :class:`~repro.analyze.sanitize.DeterminismSink` and
    #: record the schedule hash on the result (cheap; on by default).
    fingerprint_schedule: bool = True
    #: Canonical scenario JSON (see
    #: :func:`repro.scenario.schema.canonical_scenario_json`) when this
    #: cell runs a compiled scenario instead of a named built-in app;
    #: ``app`` then carries the scenario name for display/grouping only
    #: -- the cache key is derived from the document digest, never the
    #: name.  A plain string keeps the spec hashable and picklable.
    scenario: str | None = None

    def __post_init__(self) -> None:
        if self.scenario is not None and self.campaign is not None:
            raise ValueError(
                "a cell cannot combine a scenario with a fault campaign: "
                "express background interference in the scenario document"
            )

    def key(self) -> str:
        """Content-addressed cache key of this cell."""
        return cell_key(self)
