"""Run-indexed batches never hand out simulator state.

A contiguous page run is applied to the page-table, EPT, TLB and frame
arrays through a slice (:func:`repro.arrays.as_index`), and a slice read
is a view.  Every array the run path returns must still be a fresh array:
a caller that keeps one, or writes to it, must not see or change the
simulator's tables.
"""

import numpy as np
import pytest

from repro.arrays import MIN_RUN, as_index
from repro.core.clock import SimClock
from repro.core.costs import CostModel
from repro.guest.kernel import GuestKernel
from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import PTE_DIRTY
from repro.hypervisor.hypervisor import Hypervisor

N_PAGES = 2 * MIN_RUN


def _state_arrays(hv, vm, proc) -> dict[str, np.ndarray]:
    space = proc.space
    return {
        "pt.gpfn": space.pt.gpfn,
        "pt.flags": space.pt.flags,
        "ept.hpfn": vm.ept.hpfn,
        "ept.flags": vm.ept.flags,
        "tlb": space.tlb._cached,
        "content": hv.host_mem._content,
        "host.free": hv.host_mem.allocator._free,
        "host.allocated": hv.host_mem.allocator._allocated,
        "guest.free": vm.guest_frames._free,
        "guest.allocated": vm.guest_frames._allocated,
    }


def _assert_fresh(out: np.ndarray, state: dict[str, np.ndarray], what: str):
    for name, arr in state.items():
        assert not np.shares_memory(out, arr), f"{what} aliases {name}"


@pytest.fixture()
def stack():
    hv = Hypervisor(SimClock(), CostModel(), host_mem_mb=64)
    vm = hv.create_vm("vm0", mem_mb=16)
    kernel = GuestKernel(vm)
    proc = kernel.spawn("app", n_pages=N_PAGES)
    proc.space.add_vma(N_PAGES)
    return hv, vm, kernel, proc


def test_walk_results_are_fresh(stack):
    hv, vm, kernel, proc = stack
    state = _state_arrays(hv, vm, proc)
    vpns = np.arange(N_PAGES, dtype=np.int64)
    r = kernel.access(proc, vpns, True)  # first touch: one VPN run
    gpfns = proc.space.pt.translate(vpns)
    # The run path was taken: VPNs, GPFNs (LIFO: descending) and HPFNs
    # are all runs long enough to slice.
    assert isinstance(as_index(vpns, N_PAGES), slice)
    assert as_index(gpfns, vm.ept.n_guest_frames).step == -1
    assert isinstance(as_index(vm.ept.translate(gpfns), hv.host_mem.n_frames), slice)
    assert r.newly_pte_dirty.size == r.newly_ept_dirty.size == N_PAGES
    _assert_fresh(r.newly_pte_dirty, state, "newly_pte_dirty")
    _assert_fresh(r.newly_ept_dirty, state, "newly_ept_dirty")
    assert not np.shares_memory(r.newly_pte_dirty, vpns)

    # Dirty transitions again after a re-arm (no faults this time).
    proc.space.pt.clear_flags(vpns, PTE_DIRTY)
    vm.ept.clear_dirty(gpfns)
    proc.space.tlb.invalidate(vpns)
    r = kernel.access(proc, vpns, True)
    assert r.newly_pte_dirty.size == r.newly_ept_dirty.size == N_PAGES
    _assert_fresh(r.newly_pte_dirty, state, "newly_pte_dirty")
    _assert_fresh(r.newly_ept_dirty, state, "newly_ept_dirty")


def test_table_reads_are_fresh(stack):
    hv, vm, kernel, proc = stack
    state = _state_arrays(hv, vm, proc)
    vpns = np.arange(N_PAGES, dtype=np.int64)
    kernel.access(proc, vpns, True)
    pt = proc.space.pt
    for order in (vpns, vpns[::-1].copy()):
        g = pt.translate(order)
        _assert_fresh(g, state, "PageTable.translate")
        h = vm.ept.translate(g)
        _assert_fresh(h, state, "Ept.translate")
        _assert_fresh(vm.ept.translate(g[::-1].copy()), state, "Ept.translate")
        _assert_fresh(proc.space.tlb.cached_mask(order), state, "Tlb.cached_mask")
        _assert_fresh(hv.host_mem.read(h), state, "PhysicalMemory.read")
    # A fresh result stays put when the tables change under it.
    g = pt.translate(vpns)
    kept = g.copy()
    pt.unmap(vpns)
    assert np.array_equal(g, kept)


def test_touch_result_is_fresh(stack):
    hv, vm, kernel, proc = stack
    state = _state_arrays(hv, vm, proc)
    g = np.arange(MIN_RUN, 2 * MIN_RUN, dtype=np.int64)
    for order in (g, g[::-1].copy()):
        vm.ept.clear_dirty(order)
        out = vm.ept.touch(order, np.ones(order.size, dtype=bool))
        assert out.tolist() == g.tolist()
        _assert_fresh(out, state, "Ept.touch")
        assert not np.shares_memory(out, order)


def test_frame_alloc_is_fresh():
    fa = FrameAllocator(4 * MIN_RUN)
    frames = fa.alloc(2 * MIN_RUN)
    assert as_index(frames, fa.n_frames).step == -1
    for arr in (fa._free, fa._allocated):
        assert not np.shares_memory(frames, arr)
    fa.free(frames)
    again = fa.alloc(2 * MIN_RUN)
    assert np.array_equal(again, frames)
    frames[:] = 0  # the caller owns its copy
    assert np.array_equal(fa._free[2 * MIN_RUN:], again)
