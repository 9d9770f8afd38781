"""Differential validation: fused MMU walk vs multipass vs reference.

The fused walk and its TLB fast path (``Mmu.access``) must be
bit-identical to the original multipass walk they replaced — same
:class:`MmuResult`, same PML buffer contents and full-event counts, same
PTE/EPT state, same physical-memory content tokens, same clock totals.
Randomized batch streams drive two production stacks that differ only in
``Mmu.fused``, plus the independent scalar reference model for the log
semantics.  Strictly ascending batches take the fused walk's no-dedup
branch, so half the streams are ascending-only, and a metamorphic test
pits each ascending batch against a shuffled copy of itself.

Contiguous VPN runs are indexed with slices rather than fancy indexes
(:func:`repro.arrays.as_index`), so dedicated run streams drive them with
ascending, descending and fragmented guest frames, fault-taking runs and
runs at the ends of both address spaces, run-indexed fused walk against
fancy-indexed multipass walk.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import arrays
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.emu import RefMachine
from repro.guest.kernel import GuestKernel
from repro.guest.uffd import UfdMode
from repro.hw import vmcs as vmcsf
from repro.hw.pagetable import PTE_DIRTY, PTE_WRITABLE
from repro.hypervisor.hypervisor import Hypervisor
from tests.test_arrays import min_run

N_PAGES = 96
CAPACITY = 16  # small buffer => frequent full events


class Harness:
    """The production stack wired for raw log capture."""

    def __init__(
        self, fused: bool, n_pages: int = N_PAGES, ufd: bool = False
    ) -> None:
        self.clock = SimClock()
        # Guest memory holds every page twice over (256 pages per MiB).
        mem_mb = max(8, 2 * n_pages // 256)
        hv = Hypervisor(self.clock, CostModel(), host_mem_mb=max(32, 2 * mem_mb))
        self.vm = hv.create_vm("vm0", mem_mb=mem_mb, pml_buffer_entries=CAPACITY)
        self.vm.mmu.fused = fused
        self.kernel = GuestKernel(self.vm)
        self.proc = self.kernel.spawn("app", n_pages=n_pages)
        vma = self.proc.space.add_vma(n_pages)
        self.uffd = None
        if ufd:
            self.uffd = self.kernel.create_uffd(self.proc)
            self.uffd.register(vma, UfdMode.WRITE_PROTECT)
        pml = self.vm.vcpu.pml
        pml.configure_hyp_buffer()
        pml.configure_guest_buffer()
        self.guest_chunks: list[np.ndarray] = []
        pml.on_guest_full = self.guest_chunks.append
        self.vm.enabled_by_hyp = True
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_PML, 1)
        self.vm.vcpu.vmcs.write(vmcsf.F_CTRL_ENABLE_GUEST_PML, 1)
        self.results: list[tuple] = []

    def access(self, vpns, writes) -> None:
        r = self.kernel.access(self.proc, vpns, writes)
        self.results.append((
            r.n_accesses, r.n_writes, r.n_minor_faults, r.n_wp_faults,
            r.n_ufd_faults, r.newly_pte_dirty.tolist(),
            r.newly_ept_dirty.tolist(),
        ))

    # -- observation ------------------------------------------------------
    def guest_log(self) -> list[int]:
        pml = self.vm.vcpu.pml
        out = [int(v) for chunk in self.guest_chunks for v in chunk]
        out += [int(v) for v in pml.guest_buffer.drain()]
        return out

    def hyp_log(self) -> list[int]:
        pml = self.vm.vcpu.pml
        gpfns = [int(g) for chunk in self.vm.hyp_dirty_log for g in chunk]
        gpfns += [int(g) for g in pml.drain_hyp()]
        return gpfns

    def pte_dirty(self) -> set:
        return set(int(v) for v in self.proc.space.pt.vpns_with_flag(PTE_DIRTY))

    def state(self) -> tuple:
        pml = self.vm.vcpu.pml
        return (
            self.results,
            self.guest_log(),
            self.hyp_log(),
            pml.n_guest_full_events,
            pml.n_hyp_full_events,
            self.proc.space.pt.flags.tolist(),
            self.proc.space.pt.gpfn.tolist(),
            self.vm.ept.flags.tolist(),
            self.vm.mmu.host_mem._content.tolist(),
            self.clock.now_us,
            dict(self.clock.snapshot().event_count),
        )


BATCHES = st.lists(
    st.lists(
        st.tuples(st.integers(0, N_PAGES - 1), st.booleans()),
        min_size=1,
        max_size=40,
    ),
    min_size=1,
    max_size=12,
)


#: One strictly ascending batch: distinct VPNs, sorted, random write mask.
ASC_BATCH = st.sets(
    st.integers(0, N_PAGES - 1), min_size=1, max_size=40
).flatmap(
    lambda s: st.lists(st.booleans(), min_size=len(s), max_size=len(s)).map(
        lambda ws: list(zip(sorted(s), ws))
    )
)
#: One contiguous VPN run, random write mask: the walk's slice branch.
RUN_BATCH = st.integers(0, N_PAGES - 1).flatmap(
    lambda lo: st.lists(st.booleans(), min_size=1, max_size=N_PAGES - lo).map(
        lambda ws: [(lo + i, w) for i, w in enumerate(ws)]
    )
)
#: Random batches rarely ascend beyond a few entries, so half the streams
#: are ascending-only: they reach the walk's no-dedup branch every batch,
#: and the slice branch whenever a batch is a run.
STREAMS = st.one_of(
    BATCHES, st.lists(st.one_of(ASC_BATCH, RUN_BATCH), min_size=1, max_size=12)
)


def drive(fused: bool, batches) -> Harness:
    h = Harness(fused=fused)
    for batch in batches:
        vpns = np.array([v for v, _ in batch], dtype=np.int64)
        writes = np.array([w for _, w in batch], dtype=bool)
        h.access(vpns, writes)
    return h


@settings(max_examples=100, deadline=None)
@given(batches=STREAMS)
def test_fused_equals_multipass(batches):
    """Full-state equivalence over randomized batch streams."""
    fused = drive(True, batches)
    multi = drive(False, batches)
    assert fused.state() == multi.state()


@settings(max_examples=70, deadline=None)
@given(batches=STREAMS)
def test_fused_equals_reference_model(batches):
    """Fused walk vs the independent scalar reference (log semantics)."""
    fused = drive(True, batches)
    ref = RefMachine(N_PAGES, capacity=CAPACITY)
    ref.hyp_enabled = True
    ref.guest_enabled = True
    for batch in batches:
        for vpn, write in batch:
            ref.access(vpn, write)
    # Scalar replay has no batch dedup, so compare per-page outcomes.
    assert set(fused.guest_log()) == set(ref.drain_guest())
    assert set(fused.pte_dirty()) == {v for v, d in ref.pte_dirty.items() if d}


#: Between batches: nothing, a dirty re-arm (PTE dirty bits cleared plus
#: a TLB invalidate, as EPML/oracle collects do), or a write-protect
#: re-arm (PTE writable bits cleared, so writes take soft-dirty faults).
REARM = st.sampled_from(["none", "dirty", "wp"])


def _rearm(h: Harness, kind: str, pages: np.ndarray) -> None:
    pt = h.proc.space.pt
    mapped = pages[pt.gpfn[pages] >= 0]
    if kind == "dirty":
        pt.clear_flags(mapped, PTE_DIRTY)
        h.proc.space.tlb.invalidate(mapped)
    elif kind == "wp":
        pt.clear_flags(mapped, PTE_WRITABLE)
        h.proc.space.tlb.invalidate(mapped)


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(
        st.tuples(ASC_BATCH, REARM, st.sets(st.integers(0, N_PAGES - 1))),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_ascending_batch_equals_its_permutation(steps, seed):
    """Metamorphic: a sorted-unique batch and any shuffle of it are the
    same set of accesses, so the ascending branch (no dedup) and the
    general branch (sort + dedup) must leave bit-identical state."""
    rng = np.random.default_rng(seed)
    asc, shuf = Harness(fused=True), Harness(fused=True)
    for batch, rearm, rearm_pages in steps:
        vpns = np.array([v for v, _ in batch], dtype=np.int64)
        writes = np.array([w for _, w in batch], dtype=bool)
        order = rng.permutation(vpns.size)
        asc.access(vpns, writes)
        shuf.access(vpns[order], writes[order])
        pages = np.array(sorted(rearm_pages), dtype=np.int64)
        for h in (asc, shuf):
            _rearm(h, rearm, pages)
    assert asc.state() == shuf.state()


def test_fast_path_fires_and_stays_identical():
    """Re-writing a sorted, already-dirty range takes the TLB fast path
    in fused mode — and still matches the multipass walk bit-for-bit."""
    vpns = np.arange(0, 64, dtype=np.int64)
    fused, multi = Harness(fused=True), Harness(fused=False)
    for h in (fused, multi):
        for _ in range(4):
            h.access(vpns, True)
    assert fused.vm.mmu.n_fast_batches >= 3
    assert fused.vm.mmu.n_fast_accesses >= 3 * vpns.size
    assert multi.vm.mmu.n_fast_batches == 0
    assert fused.state() == multi.state()


def test_fast_path_declines_after_dirty_clear():
    """Clearing PTE dirty bits (tracker re-arm) must push the next write
    back through the full walk so the 0->1 transition is logged."""
    vpns = np.arange(0, 32, dtype=np.int64)
    h = Harness(fused=True)
    h.access(vpns, True)
    h.access(vpns, True)  # fast path
    before = h.vm.mmu.n_fast_batches
    h.proc.space.pt.clear_flags(vpns, PTE_DIRTY)
    h.proc.space.tlb.invalidate(vpns)
    h.access(vpns, True)  # must re-log: full walk
    assert h.vm.mmu.n_fast_batches == before
    assert set(vpns.tolist()) <= set(h.guest_log())


# ----------------------------------------------------------------------
# contiguous-run streams: slice-indexed walk vs fancy-indexed walk
# ----------------------------------------------------------------------
#: How pages get their guest frames before the stream.  "none": by the
#: stream's own first-touch runs (the LIFO allocator hands a batch a
#: descending GPFN run, ending at GPFN 0 for the first one; the VM's EPT
#: maps that to an ascending HPFN run).  "pagewise": one page per batch,
#: giving ascending GPFNs (descending HPFNs).  "interleaved": first
#: touches alternate between the two halves of the address space in
#: chunks, so a run's GPFNs come in fragments.
LAYOUTS = ["none", "pagewise", "interleaved"]
#: Between runs: nothing; clear PTE and EPT dirty bits (collect re-arm);
#: write-protect for soft-dirty faults; arm userfaultfd write-protect; or
#: soft-dirty on the first half and userfaultfd on the second, so one
#: write run takes both kinds of fault part-way through.
RUN_REARMS = ["none", "dirty", "wp", "ufd", "wp+ufd"]


def _span(n_pages: int):
    """A (lo, size) run inside ``[0, n_pages)``."""
    return st.integers(0, n_pages - 1).flatmap(
        lambda lo: st.tuples(st.just(lo), st.integers(1, n_pages - lo))
    )


RUN_STEP = st.tuples(
    _span(N_PAGES),
    st.sampled_from(["write", "read", "mixed"]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(RUN_REARMS),
    _span(N_PAGES),
)


class RunDriver:
    """One production stack and the scalar reference, fed the same runs."""

    def __init__(self, fused: bool, n_pages: int) -> None:
        self.h = Harness(fused=fused, n_pages=n_pages, ufd=True)
        self.ref = RefMachine(n_pages, capacity=CAPACITY)
        self.ref.hyp_enabled = True
        self.ref.guest_enabled = True
        self.n_pages = n_pages

    def access(self, vpns: np.ndarray, writes: np.ndarray) -> None:
        self.h.access(vpns, writes)
        for v, w in zip(vpns.tolist(), writes.tolist()):
            self.ref.access(v, w)

    def layout(self, kind: str, write: bool) -> None:
        n = self.n_pages
        if kind == "pagewise":
            for v in range(n):
                self.access(np.array([v]), np.array([write]))
        elif kind == "interleaved":
            half, chunk = n // 2, max(1, n // 12)
            for lo in range(0, half, chunk):
                for base in (half, 0):  # upper half first
                    vpns = np.arange(base + lo, min(base + lo + chunk, n))
                    self.access(vpns, np.full(vpns.size, write))

    def run(self, lo: int, size: int, mask: str, seed: int) -> None:
        vpns = np.arange(lo, lo + size, dtype=np.int64)
        if mask == "mixed":
            writes = np.random.default_rng(seed).random(size) < 0.5
        else:
            writes = np.full(size, mask == "write")
        self.access(vpns, writes)

    def rearm(self, kind: str, lo: int, size: int) -> None:
        pt, ref = self.h.proc.space.pt, self.ref
        pages = np.arange(lo, lo + size, dtype=np.int64)
        mapped = pages[pt.gpfn[pages] >= 0]
        if kind == "none" or mapped.size == 0:
            return
        if kind == "dirty":
            pt.clear_flags(mapped, PTE_DIRTY)
            self.h.vm.ept.clear_dirty(pt.gpfn[mapped])
            self.h.proc.space.tlb.invalidate(mapped)
            for v in mapped.tolist():
                ref.pte_dirty.pop(v, None)
                ref.ept_dirty.pop(ref.gpfn_of[v], None)
            return
        cut = mapped.size // 2 if kind == "wp+ufd" else mapped.size
        if kind in ("wp", "wp+ufd"):
            pt.clear_flags(mapped[:cut], PTE_WRITABLE)
            self.h.proc.space.tlb.invalidate(mapped[:cut])
        if kind in ("ufd", "wp+ufd"):
            self.h.uffd.write_protect(mapped[0 if kind == "ufd" else cut:])
        for v in mapped.tolist():
            ref.writable[v] = False

    def check_reference(self, guest_log: list[int], hyp_log: list[int]) -> None:
        """Per-page log semantics against the scalar model, given the
        drained logs.  A run has no duplicates, so the guest log matches
        entry for entry; hypervisor GPFNs are numbered differently, so
        compare the VPNs behind them."""
        h, ref = self.h, self.ref
        assert guest_log == ref.drain_guest()
        pt_gpfn = h.proc.space.pt.gpfn
        vpn_of = {int(g): v for v, g in enumerate(pt_gpfn.tolist()) if g >= 0}
        ref_vpn_of = {g: v for v, g in ref.gpfn_of.items()}
        assert sorted(vpn_of[g] for g in hyp_log) == sorted(
            ref_vpn_of[g] for g in ref.drain_hyp()
        )
        assert h.pte_dirty() == {v for v, d in ref.pte_dirty.items() if d}


def drive_runs(fused: bool, n_pages: int, layout, steps) -> RunDriver:
    d = RunDriver(fused, n_pages)
    d.layout(*layout)
    for (lo, size), mask, seed, rearm, (rlo, rsize) in steps:
        d.run(lo, size, mask, seed)
        d.rearm(rearm, rlo, rsize)
    return d


def _assert_runs_equivalent(n_pages: int, layout, steps, sliced: int) -> None:
    """Run-indexed fused walk (slices from ``sliced`` pages on) against
    the fancy-indexed multipass walk on full state, plus the reference."""
    with min_run(sliced):
        fused = drive_runs(True, n_pages, layout, steps)
    with min_run(sys.maxsize):
        multi = drive_runs(False, n_pages, layout, steps)
    state = fused.h.state()  # drains the logs
    assert state == multi.h.state()
    fused.check_reference(state[1], state[2])


@settings(max_examples=80, deadline=None)
@given(
    layout=st.tuples(st.sampled_from(LAYOUTS), st.booleans()),
    steps=st.lists(RUN_STEP, min_size=1, max_size=8),
    sliced=st.sampled_from([1, 3]),
)
# A first-touch run ending at the last VPN and at GPFN 0, written again
# after a dirty re-arm.
@example(
    layout=("none", True),
    steps=[((40, N_PAGES - 40), "write", 0, "dirty", (0, N_PAGES)),
           ((40, N_PAGES - 40), "write", 0, "none", (0, 1))],
    sliced=1,
)
# Soft-dirty and userfaultfd write-protect faults part-way through a run
# on ascending GPFNs, then on read-faulted zero pages.
@example(
    layout=("pagewise", True),
    steps=[((10, 60), "write", 0, "wp+ufd", (20, 40)),
           ((0, N_PAGES), "write", 0, "none", (0, 1))],
    sliced=1,
)
@example(
    layout=("interleaved", False),
    steps=[((0, N_PAGES), "mixed", 7, "wp+ufd", (0, N_PAGES)),
           ((0, N_PAGES), "write", 0, "none", (0, 1))],
    sliced=1,
)
def test_run_streams_match_multipass_and_reference(layout, steps, sliced):
    _assert_runs_equivalent(N_PAGES, layout, steps, sliced)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_long_runs_at_production_threshold(layout):
    """The same comparison on runs past the production ``MIN_RUN``."""
    n = 3 * arrays.MIN_RUN
    steps = [
        ((0, n), "write", 0, "dirty", (0, n)),
        ((0, n), "write", 0, "wp+ufd", (n // 4, n // 2)),
        ((0, n), "write", 0, "dirty", (n // 2, n // 2)),
        ((n // 3, n - n // 3), "mixed", 5, "wp", (0, n)),
        ((0, n), "read", 0, "none", (0, 1)),
        ((0, n), "write", 0, "none", (0, 1)),
    ]
    _assert_runs_equivalent(n, (layout, layout != "none"), steps, arrays.MIN_RUN)
