"""The benchmark's workloads over the paper grid.

Every workload runs the paper's 5 applications x P in {1, 4, 8, 16, 32}
at scale 0.02 (the 20 multi-processor cells for ``degraded-exact``),
with the OS jitter seed taken from ``--seed``.  A workload has:

* inputs, built by the constructor (this is what ``setup_s`` times);
* :meth:`Workload.prepare`, untimed work that must precede timing
  (``paper-tables`` fills its cache, and so computes its reference, here);
* :meth:`Workload.commands`, the program invocations of one timed
  pass, each timed on its own, and :meth:`Workload.digest`, which turns
  a command's results into identities outside the timing;
* :meth:`Workload.reference`, the independent answer each pass is
  checked against: the same cells run through the worker pool, plus
  the golden tables at seed 1994.
"""

from __future__ import annotations

import functools
import os
import pickle
import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.analyze.race import fingerprint_result
from repro.apps import PAPER_APPS
from repro.core import reference as paper
from repro.core.breakdown import ct_breakdown
from repro.core.experiments import figure3, table1, table2, table3, table4
from repro.core.golden import GOLDEN_SCHEMA, TABLE2_APPS, compare_golden, load_golden
from repro.core.resilience import resilient_sweep
from repro.core.runner import run_application
from repro.faults.campaign import run_with_campaign
from repro.faults.spec import generate_campaign
from repro.hardware.config import paper_configuration
from repro.obs.campaign import CampaignTelemetry
from repro.parallel.executor import CellSpec, execute_cells, run_cell
from repro.parallel.snapshot import is_snapshot, snapshot_result
from repro.xylem.params import XylemParams

from tracing import NULL_TRACER

__all__ = ["WORKLOADS", "BenchError", "PassResult", "build_workload"]

SCALE = 0.02
#: The seed the committed golden tables were recorded at.
GOLDEN_SEED = 1994
GOLDEN_PATH = Path("tests") / "golden" / "tables_v1.json"
#: The cell the traced run times three ways (direct, via ``run_cell``,
#: snapshot) for the ``parallel.run_cell_s`` / sink-overhead figures.
PROBE_CELL = ("MDG", 32)

Cell = tuple[str, int]


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy answer."""


def pool_jobs() -> int:
    """Pool size for pooled passes: two workers, never more than cores."""
    return max(1, min(2, os.cpu_count() or 1))


def paper_cells(configs=paper.CONFIGS) -> list[Cell]:
    return [(app, n) for app in paper.APPS for n in configs]


def identity(result) -> tuple[int, str]:
    """A cell's identity: its completion time and result fingerprint."""
    return result.ct_ns, fingerprint_result(result).digest


def render_tables(sweep: dict, tracer=NULL_TRACER) -> tuple[dict, str]:
    """Tables 1-4 and Figure 3 as ``cedar-repro tables`` renders them."""
    sweep32 = {app: by_config[32] for app, by_config in sweep.items()}
    payloads = {
        "table1": (table1, sweep),
        "table2": (table2, {app: sweep32[app] for app in TABLE2_APPS}),
        "table3": (table3, sweep),
        "table4": (table4, sweep),
        "figure3": (figure3, sweep),
    }
    rows: dict[str, list] = {}
    texts: list[str] = []
    for name, (build, payload) in payloads.items():
        with tracer.span("analysis", name):
            rows[name], text = build(payload)
        texts.append(text)
    return rows, "\n\n".join(texts)


def row_cell(name: str, row: list) -> Cell:
    """The paper cell a table row describes (Table 2 rows are P=32)."""
    return (row[0], 32) if name == "table2" else (row[0], int(row[1]))


def mean_abs_pct_error(pairs: list[tuple[float, float]]) -> float:
    """Mean of ``|sim - paper| / paper`` in percent."""
    errors = [abs(sim - ref) / ref * 100.0 for sim, ref in pairs if ref]
    return sum(errors) / len(errors) if errors else 0.0


@dataclass
class PassResult:
    """One pass of a workload: timings, results and what its checks found."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    results: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    identity: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)
    text: str = ""
    injected: int = 0
    #: Per cell, which execution path each layer ran on.
    modes: dict = field(default_factory=dict)
    #: ``paper-tables``: the warm-cache half of the pass.
    warm: PassResult | None = None

    def fail(self, cell: Cell, reason: str) -> None:
        self.failed.setdefault(cell, reason)


@dataclass
class Reference:
    """The independent answer a pass is checked against."""

    identity: dict = field(default_factory=dict)
    rows: dict | None = None
    text: str | None = None
    golden: dict | None = None


class Workload:
    """Base class: inputs, timed pass, reference and output checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.jobs = pool_jobs()
        self.cells = paper_cells()

    # -- lifecycle -----------------------------------------------------------

    def prepare(self, telemetry: CampaignTelemetry | None = None) -> None:
        """Untimed work that must happen before the first timed pass."""

    def commands(self, tracer=NULL_TRACER, telemetry=None) -> list:
        """The invocations one pass makes, in order; each returns a :class:`PassResult`."""
        raise NotImplementedError

    def combine(self, runs: list[PassResult]) -> PassResult:
        """One pass from its commands' results."""
        (run,) = runs
        return run

    def cache_dir(self) -> Path | None:
        return None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def digest(self, run: PassResult) -> None:
        """Fill in *run*'s identities and modes (outside the timed window)."""
        for cell, result in run.results.items():
            run.identity[cell] = identity(result)
            run.modes[cell] = dict(result.fastpath_modes)

    def reference(self) -> Reference:
        raise NotImplementedError

    # -- checks --------------------------------------------------------------

    def check(self, run: PassResult, ref: Reference) -> None:
        """Record in ``run.failed`` every cell whose output is wrong."""
        for cell in self.cells:
            if cell in run.failed:
                continue
            got = run.identity.get(cell)
            if got is None:
                run.fail(cell, "no result")
            elif ref.identity and got != ref.identity.get(cell):
                run.fail(cell, f"identity {got} != reference {ref.identity.get(cell)}")
        if ref.rows is not None and run.rows:
            for name, expected in ref.rows.items():
                for exp_row, got_row in zip(expected, run.rows.get(name, [])):
                    if exp_row != got_row:
                        run.fail(row_cell(name, got_row), f"{name} row differs from reference")
            if run.text != ref.text and not run.failed:
                for cell in self.cells:
                    run.fail(cell, "rendered tables differ from reference")
        if ref.golden is not None and run.rows:
            self._check_golden(run, ref.golden)

    def _check_golden(self, run: PassResult, golden: dict) -> None:
        actual = {"schema": GOLDEN_SCHEMA, "scale": SCALE, "seed": self.seed, "tables": run.rows}
        for problem in compare_golden(golden, actual):
            head = problem.split(":", 1)[0]
            name, _, index = head.partition("[")
            rows = run.rows.get(name)
            if index and rows is not None:
                row = rows[int(index.split("]", 1)[0])]
                run.fail(row_cell(name, row), f"golden: {problem}")
            else:
                for cell in self.cells:
                    run.fail(cell, f"golden: {problem}")

    # -- metrics -------------------------------------------------------------

    def paper_errors(self, run: PassResult) -> tuple[float, float]:
        """Mean |%| error of simulated Table 1 CTs and speedups vs the paper."""
        rows = run.rows.get("table1", [])
        ct = mean_abs_pct_error([(row[2], row[3]) for row in rows])
        speedup = mean_abs_pct_error([(row[4], row[5]) for row in rows])
        return ct, speedup

    def exact_slowdown(self, run: PassResult) -> float:
        """Loop time under faults over fault-free loop time (0: no faults)."""
        return 0.0

    def model_pcts(self, run: PassResult) -> dict[str, float]:
        """Simulated-domain shares (must not move on a speed-only change)."""
        table4_rows = [row for row in run.rows.get("table4", []) if row[6] is not None]
        per_app = defaultdict(float)
        for row in run.rows.get("table2", []):
            per_app[row[0]] += row[4]
        figure_rows = run.rows.get("figure3", [])
        return {
            "model.contention_pct": (
                sum(row[6] for row in table4_rows) / len(table4_rows) if table4_rows else 0.0
            ),
            "model.os_pct": sum(per_app.values()) / len(per_app) if per_app else 0.0,
            "model.par_overhead_pct": (
                sum(row[3] + row[4] + row[5] for row in figure_rows) / len(figure_rows)
                if figure_rows
                else 0.0
            ),
        }


# -- the paper grid: plain tables, then the same tables from a warm cache -------


class PaperTables(Workload):
    """``cedar-repro tables``, then ``tables --jobs N --cache-dir`` warm.

    One pass is the serial grid on the fast paths (no pool, no cache)
    followed by the pooled command over a cache that the same pooled
    command filled, untimed, in :meth:`prepare`.  That fill runs every
    cell in pool workers with the schedule-hash sink attached, so on the
    exact path: it is the reference both halves are checked against.
    """

    name = "paper-tables"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.golden = load_golden(GOLDEN_PATH) if seed == GOLDEN_SEED else None
        self._reference: Reference | None = None

    def cache_dir(self) -> Path:
        return self.workdir / "warm-cache"

    def sweep(self, jobs: int, cache_dir: Path | None = None, telemetry=None):
        """``cedar-repro tables [--jobs N] [--cache-dir D]``'s sweep."""
        return resilient_sweep(
            paper.APPS, scale=SCALE, seed=self.seed, jobs=jobs, cache_dir=cache_dir, telemetry=telemetry
        )

    def tables(self, jobs: int, cache_dir: Path | None, tracer=NULL_TRACER, telemetry=None) -> PassResult:
        """One ``tables`` command: the sweep, then Tables 1-4 + Figure 3."""
        run = PassResult()
        with tracer.span("harness", "resilient_sweep"):
            outcome = self.sweep(jobs, cache_dir, telemetry)
        if outcome.ok:
            run.rows, run.text = render_tables(outcome.results, tracer)
        for failure in outcome.failures:
            run.fail((failure.app, failure.n_processors), f"{failure.error_type}: {failure.message}")
        run.results = {
            (app, n): result for app, by_config in outcome.results.items() for n, result in by_config.items()
        }
        return run

    def prepare(self, telemetry: CampaignTelemetry | None = None) -> None:
        # The fill is the warm command on an empty cache; its results
        # are the answer both halves of every pass must reproduce.
        outcome = self.sweep(self.jobs, self.cache_dir(), telemetry)
        if not outcome.ok:
            raise BenchError(f"reference pass failed: {outcome.failures}")
        ref = Reference(golden=self.golden)
        for app, by_config in outcome.results.items():
            for n, result in by_config.items():
                ref.identity[(app, n)] = identity(result)
        ref.rows, ref.text = render_tables(outcome.results)
        self._reference = ref

    def commands(self, tracer=NULL_TRACER, telemetry=None) -> list:
        return [
            functools.partial(self.tables, 1, None, tracer),
            functools.partial(self.tables, self.jobs, self.cache_dir(), tracer, telemetry),
        ]

    def combine(self, runs: list[PassResult]) -> PassResult:
        run, warm = runs
        run.warm = warm
        run.wall_s += warm.wall_s
        run.cpu_s += warm.cpu_s
        return run

    def reference(self) -> Reference:
        if self._reference is None:
            raise BenchError("paper-tables: prepare() must fill the cache first")
        return self._reference

    def check(self, run: PassResult, ref: Reference) -> None:
        super().check(run, ref)
        super().check(run.warm, ref)
        for cell, why in run.warm.failed.items():
            run.fail(cell, f"warm: {why}")


# -- degraded mode: fault campaigns on the exact path ---------------------------


def campaign_seed(seed: int, app: str, n_processors: int) -> int:
    """Per-cell campaign seed, derived from the workload seed."""
    entropy = [seed, paper.APPS.index(app), n_processors]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


class DegradedExact(Workload):
    """The 20 multi-processor cells, each under its own fault campaign."""

    name = "degraded-exact"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.cells = paper_cells(configs=[n for n in paper.CONFIGS if n > 1])
        self.campaigns = {}
        for app, n in self.cells:
            config = paper_configuration(n)
            self.campaigns[(app, n)] = generate_campaign(
                campaign_seed(seed, app, n),
                n_memory_modules=config.n_memory_modules,
                n_processors=n,
                ces_per_cluster=config.ces_per_cluster,
            )
        self.healthy_table1: list = []
        self.healthy_loop_s = 0.0

    def commands(self, tracer=NULL_TRACER, telemetry=None) -> list:
        return [functools.partial(self.execute, tracer)]

    def execute(self, tracer=NULL_TRACER) -> PassResult:
        run = PassResult()
        for (app, n), campaign in self.campaigns.items():
            try:
                with tracer.span("faults", "run_with_campaign"):
                    outcome = run_with_campaign(campaign, app, n, scale=SCALE, seed=self.seed)
                result = outcome.result
                with tracer.span("analysis", "ct_breakdown"):
                    for cluster in range(result.config.n_clusters):
                        ct_breakdown(result, cluster)
            except Exception as exc:  # noqa: BLE001 - a failing cell is counted, not fatal
                run.fail((app, n), f"{type(exc).__name__}: {exc}")
                continue
            run.results[(app, n)] = result
            run.injected += outcome.ledger.injected
        return run

    def reference(self) -> Reference:
        """The degraded cells through the pool, plus the healthy grid.

        The healthy 25 cells give the model's paper accuracy at this
        seed (a degraded CT says how hard the faults hit, not how close
        the model is to the paper) and the fault-free loop time the
        exact-path slowdown is taken against.
        """
        degraded = {
            cell: CellSpec(
                app=cell[0],
                n_processors=cell[1],
                scale=SCALE,
                seed=self.seed,
                campaign=campaign,
                fingerprint_schedule=False,
            )
            for cell, campaign in self.campaigns.items()
        }
        healthy = {
            cell: CellSpec(app=cell[0], n_processors=cell[1], scale=SCALE, seed=self.seed, fingerprint_schedule=False)
            for cell in paper_cells()
        }
        results, failures = execute_cells([*degraded.values(), *healthy.values()], jobs=self.jobs, retries=0)
        if failures:
            raise BenchError(f"reference pass failed: {failures}")
        sweep: dict = defaultdict(dict)
        for (app, n), spec in healthy.items():
            sweep[app][n] = results[spec]
        self.healthy_table1 = table1(dict(sweep))[0]
        self.healthy_loop_s = sum(results[healthy[cell]].wall_s for cell in self.cells)
        return Reference(identity={cell: identity(results[spec]) for cell, spec in degraded.items()})

    def paper_errors(self, run: PassResult) -> tuple[float, float]:
        return super().paper_errors(PassResult(rows={"table1": self.healthy_table1}))

    def exact_slowdown(self, run: PassResult) -> float:
        return sum(result.wall_s for result in run.results.values()) / self.healthy_loop_s

    def model_pcts(self, run: PassResult) -> dict[str, float]:
        sweep: dict = defaultdict(dict)
        for (app, n), result in run.results.items():
            sweep[app][n] = result
        rows = {
            "table2": table2({app: sweep[app][32] for app in TABLE2_APPS if 32 in sweep[app]})[0],
            "figure3": figure3(dict(sweep))[0],
        }
        return super().model_pcts(PassResult(rows=rows))


WORKLOADS = {cls.name: cls for cls in (PaperTables, DegradedExact)}


def build_workload(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)


# -- per-layer figures ------------------------------------------------------------


def kernel_figures(results) -> dict[str, float]:
    """Counters and modes the runs report about their own execution paths."""
    stats: dict[str, float] = defaultdict(float)
    modes: Counter = Counter()
    records = 0
    for result in results:
        for key, value in result.kernel_stats.items():
            stats[key] += value
        modes.update(f"{layer}={mode}" for layer, mode in result.fastpath_modes.items())
        records += len(result.events)
    timeouts = stats["pool.timeouts_created"] + stats["pool.timeouts_reused"]
    pickups = stats["runtime.fastpath.lean_pickups"] + stats["runtime.fastpath.exact_pickups"]
    return {
        "sim.pool_reuse_ratio": stats["pool.timeouts_reused"] / timeouts if timeouts else 0.0,
        "sim.compiled_steps": stats["pool.compiled_steps"],
        "sim.compiled_cells": modes["loop=compiled"],
        "runtime.lean_pickup_ratio": stats["runtime.fastpath.lean_pickups"] / pickups if pickups else 0.0,
        "runtime.lean_pickups": stats["runtime.fastpath.lean_pickups"],
        "runtime.fused_spawns": stats["runtime.fastpath.fused_spawns"],
        "runtime.exact_barrier_detaches": stats["runtime.fastpath.exact_barrier_detaches"],
        "runtime.exact_cells": modes["runtime=exact"],
        "xylem.fused_spawns": stats["xylem.fastpath.fused_spawns"],
        "xylem.warm_elisions": stats["xylem.fastpath.warm_elisions"],
        "xylem.exact_spawns": stats["xylem.fastpath.exact_spawns"],
        "xylem.exact_cells": modes["xylem=exact"],
        "hpm.records": records,
    }


def snapshot_bytes(results) -> int:
    """Pickled size of every result's detached snapshot."""
    total = 0
    for result in results:
        snap = result if is_snapshot(result) else snapshot_result(result)
        total += len(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))
    return total


def probe_cell(seed: int) -> dict[str, float]:
    """Time one cell direct, through ``run_cell`` (sink on) and as a snapshot."""
    app, n = PROBE_CELL
    start = perf_counter()
    direct = run_application(PAPER_APPS[app](), n, scale=SCALE, os_params=XylemParams(seed=seed))
    direct_s = perf_counter() - start
    start = perf_counter()
    run_cell(CellSpec(app=app, n_processors=n, scale=SCALE, seed=seed))
    cell_s = perf_counter() - start
    start = perf_counter()
    snapshot_result(direct)
    snapshot_s = perf_counter() - start
    return {
        "parallel.run_cell_s": cell_s,
        "parallel.sink_overhead_ratio": cell_s / direct_s,
        "parallel.snapshot_s": snapshot_s,
    }


def registry_value(telemetry: CampaignTelemetry | None, name: str) -> float:
    if telemetry is None:
        return 0.0
    return float(telemetry.registry.snapshot().get(name, {}).get("value", 0.0))


def pool_figures(telemetry: CampaignTelemetry | None) -> dict[str, float]:
    """Pool utilization and summed queue wait of a pooled pass."""
    spans = telemetry.spans if telemetry is not None else []
    return {
        "parallel.pool_utilization": registry_value(telemetry, "campaign.pool.utilization"),
        "parallel.queue_wait_s": sum(span.queue_wait_s for span in spans if not span.cache_hit),
    }


def cache_hit_ratio(telemetry: CampaignTelemetry | None) -> float:
    hits = registry_value(telemetry, "cache.hits")
    lookups = hits + registry_value(telemetry, "cache.misses")
    return hits / lookups if lookups else 0.0


def directory_bytes(path: Path | None) -> int:
    if path is None or not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())
