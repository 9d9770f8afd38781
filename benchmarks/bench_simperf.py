"""Simulator performance: fused MMU walk, reverse-map index, runner engine.

Unlike the other benches (which regenerate paper artifacts), this file
measures the *simulator's own* wall-clock — the three-layer performance
pass that keeps the full non-quick sweep tractable:

* ``Mmu.access`` batch throughput, fused walk + TLB fast path vs the
  multipass reference (target: >= 2x on a 1M-access workload);
* the fused walk's ascending-batch branch: a first-touch write batch in
  ascending order vs the same batch shuffled (target: >= 2.25x);
* ``PageTable.reverse_lookup`` with the cached GPFN->VPN index vs a
  cold index per lookup;
* ``runner all --quick`` end to end, optimized (fused + memo-cache +
  ``--jobs 4``) vs the pre-optimization configuration
  (``REPRO_FUSED_MMU=0 REPRO_EXPERIMENT_CACHE=0``, serial);
* the observability tax: the same fused hot loop with an active
  ``TraceSession`` vs the guard-only disabled path.

Simulated costs and results are bit-identical across all configurations
(see tests/integration/test_differential_mmu.py); only host wall-clock
changes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
from conftest import QUICK

from repro.hw import vmcs
from repro.hw.ept import Ept
from repro.obs import trace as otr
from repro.hw.memory import PhysicalMemory
from repro.hw.mmu import Mmu
from repro.hw.pagetable import PTE_SOFT_DIRTY, PTE_UFD_WP, PTE_WRITABLE, PageTable
from repro.hw.pml import PmlCircuit
from repro.hw.tlb import Tlb

N_PAGES = 16384 if QUICK else 65536
BATCH = 16384
TARGET_ACCESSES = 200_000 if QUICK else 1_000_000


class _Handlers:
    """Minimal guest-kernel fault plumbing (identity-ish mappings)."""

    def __init__(self, pt: PageTable, ept: Ept, host: PhysicalMemory) -> None:
        self.pt = pt
        self.ept = ept
        self.host = host
        self._next_gpfn = 0

    def handle_minor_fault(self, vpns, write_mask=None) -> None:
        gpfns = np.arange(self._next_gpfn, self._next_gpfn + len(vpns))
        self._next_gpfn += len(vpns)
        self.ept.map(gpfns, self.host.alloc(len(vpns)))
        self.pt.map(vpns, gpfns)

    def handle_ufd_miss_fault(self, vpns, write_mask=None):
        return np.empty(0, dtype=np.int64)

    def handle_wp_fault(self, vpns, ufd_mask) -> None:
        self.pt.set_flags(vpns, PTE_WRITABLE | PTE_SOFT_DIRTY)
        self.pt.clear_flags(vpns, PTE_UFD_WP)


def _drive(
    fused: bool,
    walk_cache: bool = False,
    warm_rounds: int = 0,
    target: int | None = None,
) -> float:
    """Seconds to push ``target`` accesses through Mmu.access,
    microbench-style (sorted 16K-page write batches over a pre-faulted
    working set).  ``walk_cache`` defaults off so the fused-vs-multipass
    comparison keeps measuring the walks themselves; the steady-state
    bench turns it on and uses ``warm_rounds`` to reach replay before
    the clock starts."""
    host = PhysicalMemory(N_PAGES + 64)
    ept = Ept(N_PAGES + 64)
    pml = PmlCircuit(vmcs.Vmcs(), capacity=512)
    mmu = Mmu(ept, host, pml, fused=fused, walk_cache=walk_cache)
    pt = PageTable(N_PAGES)
    tlb = Tlb(N_PAGES)
    h = _Handlers(pt, ept, host)
    batches = [
        np.arange(lo, min(lo + BATCH, N_PAGES), dtype=np.int64)
        for lo in range(0, N_PAGES, BATCH)
    ]
    for b in batches:  # pre-fault (mlockall), outside the measurement
        mmu.access(pt, tlb, b, True, h)
    for _ in range(warm_rounds):
        for b in batches:
            mmu.access(pt, tlb, b, True, h)
    done = 0
    t0 = time.perf_counter()
    while done < (target or TARGET_ACCESSES):
        for b in batches:
            mmu.access(pt, tlb, b, True, h)
            done += b.size
    return time.perf_counter() - t0


def _median_ratio(benchmark, num, den, pairs: int = 9):
    """Median over ``pairs`` alternated runs of ``num() / den()``, where
    both return seconds; also the best time of each side.

    Every ratio gate goes through here.  A pair runs both sides back to
    back, so the ratio cancels the machine's speed at that moment; which
    side runs first alternates, cancelling ordering bias; the median
    strips scheduling-noise outliers.  The first ``num`` run is the one
    pytest-benchmark records.
    """
    num_runs = [benchmark.pedantic(num, rounds=1, iterations=1)]
    den_runs = [den()]
    for i in range(pairs - 1):
        if i % 2:
            num_runs.append(num())
            den_runs.append(den())
        else:
            den_runs.append(den())
            num_runs.append(num())
    ratios = sorted(n / d for n, d in zip(num_runs, den_runs))
    return ratios[len(ratios) // 2], min(num_runs), min(den_runs)


def test_mmu_access_throughput(benchmark):
    speedup, multi_s, fused_s = _median_ratio(
        benchmark, lambda: _drive(False), lambda: _drive(True)
    )
    fused_mps = TARGET_ACCESSES / fused_s / 1e6
    benchmark.extra_info.update(
        fused_s=fused_s, multipass_s=multi_s, speedup=speedup,
        fused_maccesses_per_s=fused_mps,
    )
    print(f"\nMmu.access {TARGET_ACCESSES} accesses: "
          f"fused {fused_s:.3f}s ({fused_mps:.1f} M/s), "
          f"multipass {multi_s:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0


def test_steady_state_replay(benchmark):
    """Walk cache in steady state: the same write batches repeated
    unchanged must replay from the memoized outcome >= 5x faster than
    re-running the fused walk + TLB fast path every time.  Both legs are
    warmed past the walk->fast-path->memoize ramp so the measurement is
    pure steady state."""
    target = 8 * TARGET_ACCESSES
    speedup, uncached_s, cached_s = _median_ratio(
        benchmark,
        lambda: _drive(True, False, 2, target),
        lambda: _drive(True, True, 2, target),
    )
    cached_mps = target / cached_s / 1e6
    benchmark.extra_info.update(
        cached_s=cached_s, uncached_s=uncached_s, speedup=speedup,
        cached_maccesses_per_s=cached_mps,
    )
    print(f"\nsteady-state replay {target} accesses: "
          f"cached {cached_s:.3f}s ({cached_mps:.1f} M/s), "
          f"uncached fused {uncached_s:.3f}s, speedup {speedup:.2f}x")
    assert speedup >= 5.0


def _first_touch_s(order: np.ndarray, reps: int = 16) -> float:
    """Seconds for ``reps`` fused walks of one first-touch write batch
    (``order``, a permutation of ``range(BATCH)``), each on a fresh
    stack built outside the clock: minor faults, PTE/EPT dirty
    transitions and PML logging on every page, as in the mlockall
    pre-fault and the first array sweep of a microbench run."""
    total = 0.0
    for _ in range(reps):
        host = PhysicalMemory(BATCH + 64)
        ept = Ept(BATCH + 64)
        pml = PmlCircuit(vmcs.Vmcs(), capacity=512)
        mmu = Mmu(ept, host, pml, fused=True, walk_cache=False)
        pt = PageTable(BATCH)
        h = _Handlers(pt, ept, host)
        tlb = Tlb(BATCH)
        t0 = time.perf_counter()
        mmu.access(pt, tlb, order, True, h)
        total += time.perf_counter() - t0
    return total


def test_ascending_first_touch_walk(benchmark):
    """A strictly ascending batch is its own dedup, so the fused walk
    skips its unique/inverse passes: the same first-touch batch must walk
    faster in ascending order than shuffled (the general sort + dedup
    branch).  Both orders produce bit-identical state (see
    tests/integration/test_differential_mmu.py)."""
    ascending = np.arange(BATCH, dtype=np.int64)
    shuffled = np.random.default_rng(11).permutation(ascending)
    speedup, shuffled_s, ascending_s = _median_ratio(
        benchmark,
        lambda: _first_touch_s(shuffled),
        lambda: _first_touch_s(ascending),
    )
    benchmark.extra_info.update(
        ascending_s=ascending_s, shuffled_s=shuffled_s, speedup=speedup,
    )
    print(f"\nfirst-touch walk of {BATCH} pages x16: "
          f"ascending {ascending_s * 1e3:.1f}ms, "
          f"shuffled {shuffled_s * 1e3:.1f}ms, speedup {speedup:.2f}x")
    # Ten runs of this gate measured 2.71x-3.27x (median 2.88x); the same
    # walk without the ascending branch measured 1.72x-2.10x.
    assert speedup >= 2.25


def test_access_plan_throughput(benchmark):
    """Access-plan submission vs per-batch kernel calls: one
    ``access_plan`` per phase amortizes the per-call kernel/scheduler/
    dispatch overhead (and, frozen, replays whole segments), so the same
    op stream must run >= 1.5x faster than the batch-at-a-time API."""
    from repro.experiments.harness import build_stack
    from repro.guest.plan import PlanBuilder

    n_pages = 8192
    batch = 2048
    batches = [np.arange(lo, lo + batch, dtype=np.int64)
               for lo in range(0, n_pages, batch)]
    rounds = max(1, 4 * TARGET_ACCESSES // n_pages)

    def make_leg():
        stack = build_stack(vm_mb=64)
        kernel = stack.kernel
        proc = kernel.spawn("bench", n_pages=n_pages)
        proc.space.add_vma(n_pages)
        kernel.access(proc, np.arange(n_pages, dtype=np.int64), True)
        return kernel, proc

    kernel_p, proc_p = make_leg()
    b = PlanBuilder()
    for vpns in batches:
        b.write(vpns)
    plan = b.build()
    for _ in range(2):  # warm to segment replay
        kernel_p.access_plan(proc_p, plan)

    def drive_plan() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            kernel_p.access_plan(proc_p, plan)
        return time.perf_counter() - t0

    kernel_b, proc_b = make_leg()
    for _ in range(2):  # warm to per-batch replay
        for vpns in batches:
            kernel_b.access(proc_b, vpns, True)

    def drive_batches() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            for vpns in batches:
                kernel_b.access(proc_b, vpns, True)
        return time.perf_counter() - t0

    speedup, batch_s, plan_s = _median_ratio(benchmark, drive_batches, drive_plan)
    benchmark.extra_info.update(
        plan_s=plan_s, per_batch_s=batch_s, speedup=speedup,
    )
    print(f"\naccess_plan {rounds}x{len(batches)} batches: "
          f"plan {plan_s:.3f}s, per-batch {batch_s:.3f}s, "
          f"speedup {speedup:.2f}x")
    assert speedup >= 1.5


def test_reverse_lookup_index_reuse(benchmark):
    n = N_PAGES
    pt = PageTable(n)
    pt.map(np.arange(n, dtype=np.int64),
           np.random.default_rng(7).permutation(n).astype(np.int64))
    queries = [np.random.default_rng(i).integers(0, n, 256) for i in range(64)]

    def warm() -> float:
        t0 = time.perf_counter()
        for q in queries:
            pt.reverse_lookup(q)
        return time.perf_counter() - t0

    def cold() -> float:
        cold_s = 0.0
        for q in queries:
            pt._rev_index = None  # simulate the pre-index per-call rebuild
            t0 = time.perf_counter()
            pt.reverse_lookup(q)
            cold_s += time.perf_counter() - t0
        return cold_s

    speedup, cold_s, warm_s = _median_ratio(benchmark, cold, warm)
    benchmark.extra_info.update(warm_s=warm_s, cold_s=cold_s, speedup=speedup)
    print(f"\nreverse_lookup x{len(queries)}: warm index {warm_s * 1e3:.2f}ms, "
          f"cold index {cold_s * 1e3:.2f}ms, speedup {speedup:.1f}x")
    assert speedup > 1.0


def test_tracing_overhead(benchmark):
    """Observability tax on the hot MMU loop: an active ``detail=False``
    session (the long-run/CI configuration) vs tracing off.  Disabled
    tracing is a guard-only check; enabled tracing emits one WRITE event
    per batch, so the overhead must stay a small constant factor."""
    session = otr.TraceSession(
        capacity=otr.ENV_SESSION_CAPACITY, detail=False
    )

    def traced() -> float:
        with session.active():
            return _drive(True)

    overhead, on_s, off_s = _median_ratio(
        benchmark, traced, lambda: _drive(True)
    )
    benchmark.extra_info.update(
        tracing_off_s=off_s, tracing_on_s=on_s, overhead=overhead,
        events_emitted=session.n_emitted,
    )
    print(f"\nMmu.access tracing overhead: off {off_s:.3f}s, "
          f"on {on_s:.3f}s ({session.n_emitted} events), "
          f"{overhead:.2f}x")
    assert session.n_emitted > 0
    assert session.metrics.counter("mmu.writes") >= TARGET_ACCESSES
    # Generous bound: the tax is per-batch, not per-access, so even noisy
    # CI machines should land nowhere near it.
    assert overhead < 2.0


def test_smp_overhead_at_one_vcpu(benchmark):
    """SMP tax on the single-vCPU hot path: ``kernel.access`` routes
    through the scheduler's vCPU lookup and per-vCPU TLB/PML selection;
    at ``n_vcpus=1`` that plumbing must cost <= 1.05x of the
    seed-equivalent inline body (state checks + ``Mmu.access`` against
    the process's only TLB and the BSP's PML buffer)."""
    from repro.experiments.harness import build_stack
    from repro.guest.process import ProcessState

    n_pages = 8192
    stack = build_stack(vm_mb=64, n_vcpus=1)
    kernel = stack.kernel
    proc = kernel.spawn("bench", n_pages=n_pages)
    proc.space.add_vma(n_pages)
    batch = np.arange(n_pages, dtype=np.int64)
    kernel.access(proc, batch, True)  # pre-fault outside the measurement
    # 4x the usual access target: the per-call SMP tax is nanoseconds,
    # so the loop must be long enough for the ratio to beat timer noise.
    rounds = max(1, 4 * TARGET_ACCESSES // n_pages)

    def drive_smp() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            kernel.access(proc, batch, True)
        return time.perf_counter() - t0

    def seed_access(process, vpns, write):
        # The pre-SMP kernel.access body: no vcpu_of lookup, no per-vCPU
        # indexing — the process's single TLB and the BSP's PML circuit.
        if process.state is ProcessState.DEAD:
            raise RuntimeError
        if process.state is ProcessState.STOPPED:
            raise RuntimeError
        handler = kernel._fault_handlers[process.pid]
        result = kernel.vm.mmu.access(
            process.space.pt, process.space.tlb, vpns, write, handler
        )
        for listener in kernel._access_listeners:
            listener(process, result)
        return result

    def drive_seed() -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            seed_access(proc, batch, True)
        return time.perf_counter() - t0

    drive_smp(), drive_seed()  # warm both paths
    overhead, smp_s, seed_s = _median_ratio(benchmark, drive_smp, drive_seed)
    benchmark.extra_info.update(
        smp_s=smp_s, seed_equiv_s=seed_s, overhead=overhead,
    )
    print(f"\nkernel.access SMP tax @ n_vcpus=1: smp {smp_s:.3f}s, "
          f"seed-equivalent {seed_s:.3f}s, overhead {overhead:.3f}x")
    assert overhead <= 1.05


def _runner_wallclock(extra_args: list[str], env_overrides: dict) -> float:
    env = dict(os.environ, **env_overrides)
    env.setdefault("PYTHONPATH", "src")
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", "all", "--quick",
         *extra_args],
        check=True, capture_output=True, env=env,
    )
    return time.perf_counter() - t0


def test_runner_all_quick_wallclock(benchmark):
    """End-to-end: optimized `runner all --quick --jobs 4` vs the
    pre-optimization configuration (multipass walk, no memo-cache)."""
    # Three pairs: each one is two whole sweeps in fresh interpreters.
    speedup, base_s, opt_s = _median_ratio(
        benchmark,
        lambda: _runner_wallclock(
            [], {"REPRO_FUSED_MMU": "0", "REPRO_EXPERIMENT_CACHE": "0"}
        ),
        lambda: _runner_wallclock(["--jobs", "4"], {}),
        pairs=3,
    )
    benchmark.extra_info.update(opt_s=opt_s, baseline_s=base_s, speedup=speedup)
    print(f"\nrunner all --quick: optimized --jobs 4 {opt_s:.2f}s, "
          f"baseline {base_s:.2f}s, speedup {speedup:.2f}x")
    assert speedup >= 2.0
