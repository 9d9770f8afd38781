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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.emu import RefMachine
from repro.guest.kernel import GuestKernel
from repro.hw import vmcs as vmcsf
from repro.hw.pagetable import PTE_DIRTY, PTE_WRITABLE
from repro.hypervisor.hypervisor import Hypervisor

N_PAGES = 96
CAPACITY = 16  # small buffer => frequent full events


class Harness:
    """The production stack wired for raw log capture."""

    def __init__(self, fused: bool) -> None:
        self.clock = SimClock()
        hv = Hypervisor(self.clock, CostModel(), host_mem_mb=32)
        self.vm = hv.create_vm("vm0", mem_mb=8, pml_buffer_entries=CAPACITY)
        self.vm.mmu.fused = fused
        self.kernel = GuestKernel(self.vm)
        self.proc = self.kernel.spawn("app", n_pages=N_PAGES)
        self.proc.space.add_vma(N_PAGES)
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
#: Random batches rarely ascend beyond a few entries, so half the streams
#: are ascending-only: they reach the walk's no-dedup branch every batch.
STREAMS = st.one_of(BATCHES, st.lists(ASC_BATCH, min_size=1, max_size=12))


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
