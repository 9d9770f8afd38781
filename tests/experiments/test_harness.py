"""Tests for the experiment harness (micro/CRIU/Boehm runners)."""

import gc
import weakref

import pytest

from repro.core.tracking import Technique
from repro.experiments import harness
from repro.experiments.harness import (
    build_stack,
    run_boehm,
    run_criu,
    run_microbench,
)
from repro.trackers.boehm import GcParams


def test_build_stack_defaults():
    stack = build_stack(vm_mb=64)
    assert stack.vm.mem_pages == 64 * 256
    assert stack.kernel.vm is stack.vm


def test_microbench_oracle_has_zero_overhead():
    r = run_microbench(Technique.ORACLE, mem_mb=2)
    assert r.overhead_tracked_pct == pytest.approx(0.0, abs=0.01)
    assert r.tracker_us == 0.0
    assert r.n_dirty == 2 * 512  # two passes over 512 pages


def test_microbench_counts_full_dirty_set():
    for tech in ("proc", "ufd", "spml", "epml"):
        r = run_microbench(tech, mem_mb=2)
        assert r.n_dirty == 2 * 512, tech


def test_microbench_result_properties():
    r = run_microbench("proc", mem_mb=2)
    assert r.slowdown_tracked == pytest.approx(
        r.tracked_us / r.ideal_us
    )
    assert r.overhead_tracked_pct == pytest.approx(
        (r.slowdown_tracked - 1) * 100
    )
    assert r.events["clear_refs"] >= 2  # init + per-collect re-arm


@pytest.mark.parametrize("tech", ["oracle", "proc", "ufd", "spml", "epml"])
def test_microbench_stacks_are_freed_without_the_cycle_collector(
    tech, monkeypatch
):
    """Both stacks of a run (ideal and tracked) are gone once it returns,
    by reference counting alone: no reference cycle keeps a hypervisor,
    VM or kernel (and the page-sized arrays behind them) alive until the
    cycle collector's next full pass."""
    refs = []

    def recording_build_stack(**kw):
        stack = build_stack(**kw)
        refs.extend(weakref.ref(o) for o in (stack.hv, stack.vm, stack.kernel))
        return stack

    monkeypatch.setattr(harness, "build_stack", recording_build_stack)
    gc.collect()
    gc.disable()
    try:
        r = harness._run_microbench_uncached(
            Technique(tech), 2, 2, None, 512, harness.DEFAULT_SWITCH_INTERVAL_US
        )
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert r.n_dirty == 2 * 512
    assert len(refs) == 6
    assert alive == []


def test_microbench_passes_validation():
    with pytest.raises(ValueError):
        run_microbench("proc", mem_mb=2, passes=0)


def test_criu_runner_produces_dump(technique=Technique.EPML):
    r = run_criu("baby", "small", technique, scale=0.002)
    assert len(r.dumps) == 1
    assert r.dumps[0].pages_dumped > 0
    assert r.tracked_us > r.ideal_us
    assert r.overhead_tracked_pct > 0


def test_criu_runner_ideal_cached_and_consistent():
    a = run_criu("baby", "small", "proc", scale=0.002)
    b = run_criu("baby", "small", "epml", scale=0.002)
    assert a.ideal_us == b.ideal_us  # same cached baseline
    assert b.overhead_tracked_pct < a.overhead_tracked_pct


def test_boehm_runner_collects_cycles():
    r = run_boehm(
        "gcbench", "small", "epml", scale=0.002,
        gc_params=GcParams(threshold_bytes=256 * 1024),
    )
    assert len(r.cycles) >= 1
    assert r.gc_us > 0
    assert r.ideal_us > 0


def test_boehm_oracle_is_the_baseline():
    params = GcParams(threshold_bytes=256 * 1024)
    o = run_boehm("gcbench", "small", "oracle", scale=0.002, gc_params=params)
    assert o.ideal_us == o.tracked_us
    p = run_boehm("gcbench", "small", "proc", scale=0.002, gc_params=params)
    assert p.tracked_us > p.ideal_us
