"""Property tests: the runtime/OS fast paths match the exact paths.

The batched engines (:mod:`repro.runtime.fastpath`,
:mod:`repro.xylem.fastpath`, the push-mode statfx sampler and the
compiled dispatch loop) exist purely for host speed: on a sink-free,
unperturbed, fault-free run they must reproduce the exact paths'
observable results bit for bit -- completion time, every
``RuntimeStats`` counter, the per-category Xylem time accounting, the
statfx concurrency integrals and the page-fault statistics.

Hypothesis drives random phase lists (spread loops, XDOALLs,
cluster-only loops, serial sections, paging patterns) through a full
stack twice -- once with every fast path armed, once with everything
forced exact via ``CEDAR_REPRO_FASTPATH=off`` -- and compares.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_phases
from repro.hardware.config import paper_configuration
from repro.runtime.loops import LoopConstruct, ParallelLoop, SerialPhase
from repro.sim import Simulator
from repro.sim import core as sim_core
from repro.xylem.categories import OsActivity
from repro.xylem.kernel import ClusterState

# -- workload strategies ----------------------------------------------------

_serial_phases = st.builds(
    SerialPhase,
    work_ns=st.integers(min_value=0, max_value=200_000),
    page_base=st.just(-1),
)

_serial_paged = st.builds(
    SerialPhase,
    work_ns=st.integers(min_value=1_000, max_value=50_000),
    page_base=st.just(5000),
    n_pages=st.integers(min_value=1, max_value=6),
)


def _loop(construct: LoopConstruct, **overrides):
    defaults = dict(
        n_inner=st.integers(min_value=1, max_value=24),
        work_ns_per_iter=st.integers(min_value=50, max_value=5_000),
        work_skew=st.sampled_from([0.0, 0.2]),
        # No burst, bursts of fewer words than CedarMachine.BURST_SEGMENTS
        # (fewer segments), and full four-segment bursts.
        mem_words_per_iter=st.one_of(
            st.just(0),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=4, max_value=64),
        ),
        mem_rate=st.sampled_from([0.25, 0.5, 1.0]),
        cluster_ws_bytes=st.sampled_from([0, 96 * 1024, 2 * 1024 * 1024]),
    )
    defaults.update(overrides)
    return st.builds(ParallelLoop, construct=st.just(construct), **defaults)


_loops = st.one_of(
    _loop(
        LoopConstruct.SDOALL,
        n_outer=st.integers(min_value=1, max_value=6),
        n_inner=st.integers(min_value=1, max_value=12),
        page_base=st.sampled_from([-1, 0]),
        iters_per_page=st.sampled_from([4, 8]),
    ),
    _loop(
        LoopConstruct.XDOALL,
        n_inner=st.integers(min_value=1, max_value=40),
        page_base=st.sampled_from([-1, 1000]),
        iters_per_page=st.sampled_from([4, 8]),
    ),
    _loop(LoopConstruct.CLUSTER_ONLY),
    _loop(
        LoopConstruct.CDOACROSS,
        n_inner=st.integers(min_value=1, max_value=12),
        serial_fraction=st.sampled_from([0.0, 0.3]),
        dependence_distance=st.sampled_from([0, 2]),
    ),
)

_phase_lists = st.lists(
    st.one_of(_serial_phases, _serial_paged, _loops), min_size=1, max_size=3
)


# -- the A/B harness --------------------------------------------------------


def _run(phases, n_processors: int, exact: bool, cluster_cache: bool = False, **kwargs):
    """One full-stack run; *exact* kills every fast path via the env.

    *cluster_cache* turns on the optional cluster cache/TLB stall model,
    so loops' ``cluster_ws_bytes`` price real stalls.
    """
    config = replace(paper_configuration(n_processors), model_cluster_cache=cluster_cache)
    env = {"CEDAR_REPRO_FASTPATH": "off"} if exact else {}
    with mock.patch.dict(os.environ, env, clear=False):
        if not exact:
            os.environ.pop("CEDAR_REPRO_FASTPATH", None)
        return run_phases(
            list(phases), n_processors, config=config, statfx_interval_ns=50_000, **kwargs
        )


def _fingerprint(result) -> dict:
    """Everything the two modes must agree on."""
    st_ = result.runtime.stats
    sfx = result.statfx
    acct = result.accounting
    ledger = result.machine.mem_ledger
    load = result.machine.load
    n_clusters = result.config.n_clusters
    return {
        "ct_ns": result.ct_ns,
        "memory": {
            name: getattr(ledger, name)
            for name in (
                "busy_ns",
                "ideal_ns",
                "bursts",
                "words",
                "scalar_round_trips",
                "scalar_round_trip_ns",
            )
        },
        "load_high_water": (load.high_water, list(load.cluster_high_water)),
        "runtime": {
            name: getattr(st_, name)
            for name in (
                "loops_posted",
                "helper_joins",
                "sdoall_pickups",
                "xdoall_pickups",
                "barriers",
                "serial_sections",
                "mc_loops",
                "detaches",
            )
        },
        "accounting": {
            activity.name: [
                acct.activity_ns(c, activity) for c in range(n_clusters)
            ]
            for activity in OsActivity
        },
        "faults": (
            result.fault_stats.sequential,
            result.fault_stats.concurrent,
            result.fault_stats.joined,
        ),
        "statfx": {
            "samples": sfx.samples,
            "total": sfx.total_concurrency(),
            "per_cluster": [
                sfx.cluster_concurrency(c) for c in range(n_clusters)
            ],
        },
    }


@settings(max_examples=40, deadline=None)
@given(
    phases=_phase_lists,
    n_processors=st.sampled_from([1, 4, 8, 32]),
    cluster_cache=st.booleans(),
)
def test_batched_matches_exact(phases, n_processors, cluster_cache):
    fast = _run(phases, n_processors, exact=False, cluster_cache=cluster_cache)
    slow = _run(phases, n_processors, exact=True, cluster_cache=cluster_cache)
    assert fast.fastpath_modes["runtime"] == "batched"
    assert fast.fastpath_modes["statfx"] == "push"
    assert slow.fastpath_modes["runtime"] == "exact"
    assert slow.fastpath_modes["statfx"] == "exact"
    assert _fingerprint(fast) == _fingerprint(slow)


@settings(max_examples=15, deadline=None)
@given(phases=_phase_lists)
def test_compiled_loop_matches_pure(phases):
    """With the extension built, compiled and pure runs agree exactly."""
    if not sim_core.compiled_loop_active():
        return  # pure-Python environment: nothing to compare
    compiled = _run(phases, 8, exact=False)
    with mock.patch.dict(os.environ, {"CEDAR_REPRO_COMPILED": "0"}):
        pure = _run(phases, 8, exact=False)
    assert compiled.fastpath_modes["loop"] == "compiled"
    assert pure.fastpath_modes["loop"] == "pure"
    assert compiled.kernel_stats["pool.compiled_steps"] > 0
    assert pure.kernel_stats["pool.compiled_steps"] == 0
    fp_c, fp_p = _fingerprint(compiled), _fingerprint(pure)
    assert fp_c == fp_p
    # The Timeout pool behaves identically too.
    for key in ("pool.timeouts_created", "pool.timeouts_reused", "pool.ticks_rearmed"):
        assert compiled.kernel_stats[key] == pure.kernel_stats[key]


# -- freeze padding ---------------------------------------------------------


def _freeze_thaw_hook(cluster_id: int, at_ns: int, hold_ns: int):
    """A pre-run hook that freezes one cluster mid-run, then thaws it."""

    def hook(sim, machine, kernel, runtime):
        def freezer(sim):
            yield sim.timeout(at_ns)
            kernel.clusters[cluster_id].freeze()
            yield sim.timeout(hold_ns)
            kernel.clusters[cluster_id].unfreeze()

        sim.process(freezer(sim), name="freeze-thaw")

    return hook


def test_freeze_inside_xdoall_slices_pads_like_exact(monkeypatch):
    """A freeze landing while CEs are inside XDOALL compute slices
    stretches them identically on the flat fast-path frame and on the
    exact path's ``XylemKernel.execute``."""
    repaid_by: list[str] = []
    unpaid = ClusterState.unpaid_freeze_ns

    def spy(self, frozen_before, padded):
        owed = unpaid(self, frozen_before, padded)
        if owed > 0:
            repaid_by.append(sys._getframe(1).f_code.co_name)
        return owed

    monkeypatch.setattr(ClusterState, "unpaid_freeze_ns", spy)
    phases = [
        ParallelLoop(
            construct=LoopConstruct.XDOALL,
            n_inner=64,
            work_ns_per_iter=40_000,
            mem_words_per_iter=16,
        )
    ]
    # The loop's iterations run from ~37 us to ~1 ms on 8 CEs.
    hook = _freeze_thaw_hook(0, at_ns=300_000, hold_ns=50_000)
    fast = _run(phases, 8, exact=False, pre_run_hook=hook)
    fast_repaid = list(repaid_by)
    repaid_by.clear()
    slow = _run(phases, 8, exact=True, pre_run_hook=hook)
    assert fast.fastpath_modes["runtime"] == "batched"
    assert "_xdoall_ce_flat" in fast_repaid
    assert "execute" in repaid_by and "_xdoall_ce_flat" not in repaid_by
    assert _fingerprint(fast) == _fingerprint(slow)


# -- fallback arming --------------------------------------------------------


def _barrier_workload():
    return [
        ParallelLoop(
            construct=LoopConstruct.SDOALL,
            n_outer=4,
            n_inner=8,
            work_ns_per_iter=1_000,
            work_skew=0.2,
        )
    ]


def test_env_kill_switch_forces_exact(monkeypatch):
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "off")
    result = run_phases(_barrier_workload(), 32)
    assert result.fastpath_modes == {
        "memory": "exact",
        "runtime": "exact",
        "xylem": "exact",
        "statfx": "exact",
        "loop": "pure",
    }
    stats = result.runtime.fastpath.stats
    assert stats.lean_pickups == 0
    assert stats.lean_barrier_detaches == 0
    assert stats.exact_pickups > 0


def test_tie_perturbation_forces_exact():
    result = run_phases(_barrier_workload(), 32, tie_break_seed=7)
    assert result.fastpath_modes["runtime"] == "exact"
    assert result.fastpath_modes["xylem"] == "exact"
    assert result.fastpath_modes["statfx"] == "exact"
    assert result.fastpath_modes["loop"] == "pure"


def test_trace_sink_forces_exact():
    from repro.analyze.sanitize import DeterminismSink
    from repro.obs import Observability

    obs = Observability(extra_sinks=[DeterminismSink(order_capacity=0)])
    result = run_phases(_barrier_workload(), 32, obs=obs)
    assert result.fastpath_modes["runtime"] == "exact"
    assert result.fastpath_modes["statfx"] == "exact"
    assert result.fastpath_modes["loop"] == "pure"


def test_fault_campaign_sticky_disables_every_layer():
    from repro.faults import CampaignSpec, FaultEvent, FaultInjector

    spec = CampaignSpec(
        name="fp-disarm",
        faults=[FaultEvent(kind="lock_inflate", at_ns=1_000, factor=2.0)],
    )

    modes = {}

    def hook(sim, machine, kernel, runtime):
        FaultInjector(sim, machine, kernel, runtime, spec).arm()
        modes["runtime"] = runtime.fastpath.mode
        modes["xylem"] = kernel.fastpath.mode

    result = run_phases(_barrier_workload(), 32, pre_run_hook=hook)
    assert modes == {"runtime": "exact", "xylem": "exact"}
    assert result.runtime.fastpath.stats.lean_pickups == 0
    assert result.kernel.fastpath.stats.fused_spawns == 0


def test_runtime_engine_arming_rules(monkeypatch):
    from repro.runtime.fastpath import RuntimeFastPath
    from repro.xylem.fastpath import XylemFastPath

    sim = Simulator()
    assert RuntimeFastPath(sim).on
    assert XylemFastPath(sim).on
    sim2 = Simulator()
    sim2.perturb_tie_breaks(3)
    assert not RuntimeFastPath(sim2).on
    assert not XylemFastPath(sim2).on
    monkeypatch.setenv("CEDAR_REPRO_FASTPATH", "exact")
    sim3 = Simulator()
    assert not RuntimeFastPath(sim3).on
    engine = RuntimeFastPath(sim3)
    assert engine.mode == "exact"
    monkeypatch.delenv("CEDAR_REPRO_FASTPATH")
    engine.enable()
    assert engine.on
    engine.disable()
    assert not engine.on
    engine.enable()
    assert engine.on
