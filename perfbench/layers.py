"""Per-layer host-time spans, recorded around the simulator's public calls.

The tracer patches a fixed list of methods (``_layer_calls``) with thin
wrappers for the duration of one traced pass and restores them afterwards,
so untraced passes run the unmodified program.  Every wrapped call is a
span with a name, start, end and parent; per name the tracer keeps the
call count, the *self* time (duration minus the time covered by child
spans) and, where pages pass through the call, the page count.

The span names are the layer names of ``src/repro/`` (``hw.mmu.access``,
``core.tracker.collect``, ...).  The benchmark's own operation span
(``experiments.op``) is the root of every tree, so the pass time outside
all roots is the benchmark's bookkeeping (``trace.unattributed_s``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: Spans kept per traced pass for the written trace; the aggregates
#: (calls, self time, pages) always cover every span.
MAX_SPANS = 200_000

#: Events of the simulated clock reported as exact ``sim.*`` counts.
SIM_EVENTS = (
    "vmexit", "pml_full_vmexit", "pml_log", "self_ipi", "reverse_map",
    "rb_copy", "pf_kernel", "pf_user", "context_switch",
)


def _n(x) -> int:
    return int(np.size(x))


def _plan_pages(plan) -> int:
    if isinstance(plan, list):
        return sum(_n(v) for v, _ in plan)
    return int(plan.n_accesses)


def _layer_calls():
    """(owner, attribute, span name, pages(args, result) or None)."""
    from repro.core.ooh import OohModule
    from repro.core.ringbuffer import RingBuffer
    from repro.core.tracking import DirtyPageTracker
    from repro.guest.kernel import GuestKernel
    from repro.hypervisor.hypercalls import HypercallTable
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.serverless.instance import FunctionInstance
    from repro.serverless.snapshot import Snapshot
    from repro.serverless.tracker import UnifiedDirtyTracker
    from repro.trackers.boehm import BoehmGc, GcHeap
    from repro.trackers.criu import CriuSession
    from repro.workloads import Workload

    return [
        (GuestKernel, "access", "guest.kernel.access", lambda a, r: _n(a[2])),
        (GuestKernel, "access_plan", "guest.kernel.access_plan",
         lambda a, r: _plan_pages(a[2])),
        (GuestKernel, "spawn", "guest.kernel.spawn", None),
        (Hypervisor, "create_vm", "hypervisor.create_vm", None),
        (HypercallTable, "dispatch", "hypervisor.hypercall", None),
        (DirtyPageTracker, "start", "core.tracker.start", None),
        (DirtyPageTracker, "collect", "core.tracker.collect",
         lambda a, r: _n(r)),
        (DirtyPageTracker, "stop", "core.tracker.stop", None),
        (OohModule, "attach", "core.ooh.attach", None),
        (RingBuffer, "__init__", "core.ringbuffer.init", None),
        (BoehmGc, "collect", "trackers.boehm.collect", None),
        (GcHeap, "alloc", "trackers.boehm.heap.alloc", None),
        (GcHeap, "free_objects", "trackers.boehm.heap.free", None),
        (CriuSession, "dump", "trackers.criu.dump", None),
        (Workload, "run", "workloads.run", None),
        (FunctionInstance, "run", "serverless.instance.run", None),
        (UnifiedDirtyTracker, "map_regions", "serverless.map_regions", None),
        (UnifiedDirtyTracker, "extract_diff", "serverless.extract_diff", None),
        (Snapshot, "merge", "serverless.merge", None),
    ]


class Tracer:
    """Span recorder for one traced pass; install, run, uninstall."""

    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, pages]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.n_spans = 0
        self.root_s = 0.0  # time covered by root spans (the operations)
        self._open: list[list] = []  # [child seconds, span id] per open span
        self._patched: list[tuple] = []
        self.clocks: list = []
        # Mmu counters, summed over calls made outside a plan segment
        # plus whole segments (their inner access calls are not re-added).
        self.mmu = {"batches": 0, "fast": 0, "replay": 0, "segment_replays": 0}
        self._in_segment = 0

    # -- spans ---------------------------------------------------------
    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def _begin(self) -> tuple[float, int]:
        sid = self.n_spans
        self.n_spans += 1
        self._open.append([0.0, sid])
        return time.perf_counter(), sid

    def _end(self, stat: list, name: str, start: float, sid: int,
             pages: int) -> None:
        end = time.perf_counter()
        child, _ = self._open.pop()
        dur = end - start
        stat[0] += 1
        stat[1] += dur - child
        stat[2] += pages
        parent = None
        if self._open:
            self._open[-1][0] += dur
            parent = self._open[-1][1]
        else:
            self.root_s += dur
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, name, start, end, parent))

    @contextmanager
    def span(self, name: str):
        stat = self._stat(name)
        start, sid = self._begin()
        try:
            yield
        finally:
            self._end(stat, name, start, sid, 0)

    def _wrapper(self, name: str, fn, pages):
        stat = self._stat(name)
        begin, end = self._begin, self._end

        def traced(*args, **kwargs):
            start, sid = begin()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(stat, name, start, sid,
                    pages(args, result) if pages is not None else 0)

        return traced

    def _mmu_wrapper(self, name: str, fn, pages, segment: bool):
        inner = self._wrapper(name, fn, pages)
        totals = self.mmu

        def counted(mmu, *args, **kwargs):
            if self._in_segment:
                return inner(mmu, *args, **kwargs)
            before = (mmu.n_fast_batches, mmu.n_replay_batches,
                      mmu.n_segment_replays)
            self._in_segment += segment
            try:
                return inner(mmu, *args, **kwargs)
            finally:
                self._in_segment -= segment
                totals["batches"] += len(args[2].batches) if segment else 1
                totals["fast"] += mmu.n_fast_batches - before[0]
                totals["replay"] += mmu.n_replay_batches - before[1]
                totals["segment_replays"] += mmu.n_segment_replays - before[2]

        return counted

    # -- install / uninstall -------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from repro.core.clock import SimClock
        from repro.hw.mmu import Mmu

        for name in ("experiments.op", "fleet.experiment"):  # benchmark spans
            self._stat(name)
        for owner, attr, name, pages in _layer_calls():
            self._patch(owner, attr,
                        self._wrapper(name, owner.__dict__[attr], pages))
        self._patch(Mmu, "access", self._mmu_wrapper(
            "hw.mmu.access", Mmu.__dict__["access"], lambda a, r: _n(a[3]),
            segment=False))
        self._patch(Mmu, "access_segment", self._mmu_wrapper(
            "hw.mmu.access_segment", Mmu.__dict__["access_segment"], None,
            segment=True))
        clock_init = SimClock.__dict__["__init__"]
        clocks = self.clocks

        def tracked_init(clock, *args, **kwargs):
            clock_init(clock, *args, **kwargs)
            clocks.append(clock)

        self._patch(SimClock, "__init__", tracked_init)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- report ----------------------------------------------------------
    def metrics(self, memo_hits: int, memo_misses: int,
                pass_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in BENCHMARK.json."""
        out: dict[str, float] = {
            "experiments.memo.hits": memo_hits,
            "experiments.memo.misses": memo_misses,
        }
        for name, (calls, self_s, pages) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.pages"] = pages
        m = self.mmu
        out["hw.mmu.fast_batch_ratio"] = m["fast"] / max(1, m["batches"])
        out["hw.mmu.replay_batch_ratio"] = m["replay"] / max(1, m["batches"])
        out["hw.mmu.segment_replays"] = m["segment_replays"]
        out["trace.unattributed_s"] = pass_s - self.root_s
        events: dict[str, int] = {}
        for clock in self.clocks:
            for event, count in clock.events().items():
                events[event] = events.get(event, 0) + count
        out["sim.us"] = sum(clock.now_us for clock in self.clocks)
        for event in SIM_EVENTS:
            out[f"sim.{event}"] = events.get(event, 0)
        out["sim.gc_cycles"] = self.stats["trackers.boehm.collect"][0]
        return out
