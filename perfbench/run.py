#!/usr/bin/env python3
"""End-to-end benchmark of ``cedar-repro tables`` and its layers.

Run from the repository root::

    python3 perfbench/run.py --workload paper-tables --seed 7 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``): ``paper-tables`` and
``degraded-exact``.

``--trace 0`` times whole passes of the workload with nothing attached,
until ``--seconds`` have been measured, and prints the end-to-end
metrics; ``--trace 1`` runs one untraced and one traced pass and prints
the per-layer metrics.  Either way every
pass is checked against an independent answer (the same cells through
the worker pool, and the golden tables at seed 1994), and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the benchmark could not run at all (missing sources, a
forced execution-path variable in the environment, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter

from tracing import NULL_TRACER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Variables that force an execution path; timing the program as it
#: ships means neither may be set.
FORCED_PATH_ENV = ("CEDAR_REPRO_FASTPATH", "CEDAR_REPRO_COMPILED")
WORKLOAD_NAMES = ("paper-tables", "degraded-exact")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import the program, build the workload inputs and exit (timed for setup_s)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup(args: argparse.Namespace) -> float:
    """Median wall of a fresh interpreter importing and building the inputs."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return statistics.median(times)


# -- peak resident set ------------------------------------------------------------


def reset_peak_rss() -> None:
    """Restart this process's RSS high-water mark (``VmHWM``) from now."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # no reset: the mark then also covers set-up


def peak_rss_mb() -> float:
    """This process's RSS high-water mark in MB."""
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+)", status, re.M).group(1)) / 1024.0


# -- passes ------------------------------------------------------------------------


def cpu_s() -> float:
    """User plus system CPU of this process and every reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def timed_pass(workload, tracer=NULL_TRACER, telemetry=None, keep_results=True):
    """One pass; wall and CPU (the process plus reaped pool workers) summed over its commands.

    Each command starts from a collected heap and is digested outside
    its timing.  Unless *keep_results*, a command's results are freed
    before the next one starts, as between two invocations of the
    program; checks use identities and rows.
    """
    runs = []
    for command in workload.commands(tracer, telemetry):
        gc.collect()
        cpu0 = cpu_s()
        start = perf_counter()
        run = command()
        run.wall_s = perf_counter() - start
        run.cpu_s = cpu_s() - cpu0
        workload.digest(run)
        if not keep_results:
            run.results = {}
        runs.append(run)
    return workload.combine(runs)


def host_record(workload, passes) -> dict:
    from repro.sim.core import compiled_loop_active

    modes = {}
    for run in passes:
        for (app, n), cell_modes in sorted(run.modes.items()):
            modes[f"{app}/{n}"] = cell_modes
    loops = sorted({cell["loop"] for cell in modes.values()})
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "host": platform.node(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pool_jobs": workload.jobs,
        "compiled_loop_built": compiled_loop_active(),
        "loop_modes": loops,
        "fastpath_modes": modes,
    }


#: Per-layer metrics whose unit their name's suffix does not give.
RATIO_METRICS = ("trace.coverage", "parallel.pool_utilization", "faults.exact_slowdown")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name in RATIO_METRICS:
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_bytes", "bytes"), ("_pct", "%"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_timed(workload, seconds: float) -> tuple[list, dict]:
    """Whole passes until *seconds* have been measured."""
    passes = []
    reset_peak_rss()
    measured = 0.0
    while measured < seconds:
        # Results are freed as they are checked, so that each command's
        # peak memory is its own.
        run = timed_pass(workload, keep_results=False)
        passes.append(run)
        measured += run.wall_s
    return passes, {
        "wall_s": statistics.median(run.wall_s for run in passes),
        "cpu_s": statistics.median(run.cpu_s for run in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def run_traced(workload, run_id: str) -> tuple[list, dict]:
    """One untraced and one traced pass; the per-layer figures."""
    from workloads import (
        cache_hit_ratio,
        directory_bytes,
        kernel_figures,
        pool_figures,
        probe_cell,
        snapshot_bytes,
    )

    from repro.obs.campaign import CampaignTelemetry

    # The untimed preparation (paper-tables' cold fill) is traced on
    # its own: it is where pool spawn, pickling and cache writes happen.
    fill = Tracer(f"{run_id}-prepare")
    fill_telemetry = CampaignTelemetry(progress=False, label=f"{workload.name} prepare")
    with fill.patched():
        workload.prepare(fill_telemetry)
    plain = timed_pass(workload, keep_results=False)
    tracer = Tracer(run_id)
    telemetry = CampaignTelemetry(progress=False, label=workload.name) if workload.cache_dir() else None
    with tracer.patched():
        traced = timed_pass(workload, tracer, telemetry)
    # Identity must survive tracing: every cell repeats its digest.
    halves = [(plain, traced)]
    if traced.warm is not None:
        halves.append((plain.warm, traced.warm))
    for untraced, run in halves:
        for cell, got in run.identity.items():
            if untraced.identity.get(cell) != got:
                traced.fail(cell, "digest differs between untraced and traced pass")

    # Results simulated in this process.
    results = list(traced.results.values())
    layer_s = tracer.layer_self_s()
    run_s = tracer.total_s("run_application")
    simulated = list(results)
    if telemetry is not None:
        # Pooled cells run in workers, out of the tracer's reach: their
        # cell time comes from the campaign telemetry, and cache hits
        # simulated nothing in this pass.
        hits = {(span.app, span.n_processors) for span in telemetry.spans if span.cache_hit}
        run_s += sum(span.end_s - span.start_s for span in telemetry.spans if not span.cache_hit)
        simulated += [result for cell, result in traced.warm.results.items() if cell not in hits]
    loop_s = sum(result.wall_s for result in simulated)
    figures = {f"{layer}.self_s": value for layer, value in layer_s.items()}
    figures.update(
        {
            "trace.wall_s": traced.wall_s,
            "trace.untraced_wall_s": plain.wall_s,
            "trace.overhead_s": traced.wall_s - plain.wall_s,
            "trace.coverage": sum(layer_s.values()) / traced.wall_s,
            "trace.spans": len(tracer.spans),
            "runner.run_s": run_s,
            "runner.loop_s": loop_s,
            "runner.assembly_s": max(0.0, run_s - loop_s),
            "analysis.breakdown_s": tracer.total_s("ct_breakdown"),
            "parallel.cache_put_s": fill.total_s("ResultCache.put") + tracer.total_s("ResultCache.put"),
            "parallel.cache_get_s": tracer.total_s("ResultCache.get"),
            "parallel.cache_bytes": directory_bytes(workload.cache_dir()),
            "parallel.cache_hit_ratio": cache_hit_ratio(telemetry),
            "parallel.pickle_bytes": fill.pickle_bytes + tracer.pickle_bytes,
            "faults.run_s": tracer.total_s("run_with_campaign"),
            "faults.injected": traced.injected,
            # Snapshot pickles as the cache wrote or read them; a pass
            # without cache traffic pickles fresh snapshots instead.
            "hpm.snapshot_bytes": tracer.snapshot_bytes or snapshot_bytes(results),
        }
    )
    for name in ("table1", "table2", "table3", "table4", "figure3"):
        figures[f"analysis.{name}_s"] = tracer.total_s(name)
    figures.update(kernel_figures(results))
    figures.update(pool_figures(fill_telemetry))
    figures.update(workload.model_pcts(traced))
    figures.update(probe_cell(workload.seed))
    for spans in (fill, tracer):
        if spans.spans:
            spans.write(WORK / "traces" / f"{spans.run_id}.jsonl")
    return [plain, traced], figures


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found under {ROOT}", file=sys.stderr)
        return 2
    forced = [name for name in FORCED_PATH_ENV if name in os.environ]
    if forced:
        print(
            f"error: {', '.join(forced)} set; the benchmark times the program as it ships",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    from workloads import BenchError, build_workload

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    workdir = WORK / run_id
    workload = build_workload(args.workload, args.seed, workdir)
    if args.setup_only:
        return 0
    try:
        if args.trace:
            passes, figures = run_traced(workload, run_id)
        else:
            setup_s = measure_setup(args)
            workload.prepare()
            passes, figures = run_timed(workload, args.seconds)
        reference = workload.reference()
        for run in passes:
            workload.check(run, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    record = host_record(workload, passes)
    attempted = len(workload.cells) * len(passes)
    failed = sum(len(run.failed) for run in passes)
    record["passes"] = [
        {
            "wall_s": run.wall_s,
            "cpu_s": run.cpu_s,
            "warm_wall_s": run.warm.wall_s if run.warm else None,
            "failed": {f"{a}/{n}": why for (a, n), why in run.failed.items()},
        }
        for run in passes
    ]
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "runs").mkdir(exist_ok=True)
    (WORK / "runs" / f"{run_id}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for run in passes:
        for (app, n), why in sorted(run.failed.items()):
            print(f"check failed: {app} P={n}: {why}", file=sys.stderr)
    if args.trace:
        figures["faults.exact_slowdown"] = workload.exact_slowdown(passes[-1])
        metrics = {name: (value, layer_unit(name)) for name, value in figures.items()}
    else:
        ct_err, speedup_err = workload.paper_errors(passes[0])
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (figures["wall_s"], "s"),
            "cpu_s": (figures["cpu_s"], "s"),
            "peak_rss_mb": (figures["peak_rss_mb"], "MB"),
            "ok_cell_ratio": (1.0 - failed / attempted, "ratio"),
            "paper_ct_err_pct": (ct_err, "%"),
            "paper_speedup_err_pct": (speedup_err, "%"),
        }
    print(json.dumps({"run": {k: v for k, v in record.items() if k != "fastpath_modes"}}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
