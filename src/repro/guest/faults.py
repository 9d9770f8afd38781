"""Guest kernel page-fault handling.

Implements :class:`repro.hw.mmu.FaultHandlers` for one process:

* **minor faults** — demand paging: allocate a guest frame, map the PTE.
  Same cost for every tracking technique (they all page in the same way),
  so it cancels out of overhead comparisons but keeps runs honest.
* **soft-dirty write-protect faults** — the /proc mechanism: re-set
  soft-dirty + writable, charge the M5 per-fault kernel cost plus a
  context switch (Formula 4's ``I(C_/proc, C_tked)``).
* **ufd faults** — routed to the process's registered
  :class:`~repro.guest.uffd.UserFaultFd`.
"""

from __future__ import annotations

import numpy as np

from repro.core.clock import SimClock, World
from repro.core.costs import (
    EV_CONTEXT_SWITCH,
    EV_PF_KERNEL,
    EV_PF_MINOR,
    CostModel,
)
from repro.errors import GuestError
from repro.guest.process import Process
from repro.guest.uffd import UfdMode, UserFaultFd
from repro.hw.memory import FrameAllocator
from repro.hw.pagetable import PTE_SOFT_DIRTY, PTE_WRITABLE, PTE_ZERO
from repro.retry import Retrier

__all__ = ["ProcessFaultHandler"]


class ProcessFaultHandler:
    """FaultHandlers implementation bound to one process."""

    def __init__(
        self,
        clock: SimClock,
        costs: CostModel,
        process: Process,
        guest_frames: FrameAllocator,
    ) -> None:
        self.clock = clock
        self.costs = costs
        self.process = process
        self.guest_frames = guest_frames
        self.n_minor = 0
        self.n_soft_dirty = 0
        # Transient allocator exhaustion behaves like direct reclaim:
        # back off (charged to kernel time) and retry the allocation.
        self._retrier = Retrier(clock, World.KERNEL)

    @property
    def n_alloc_retries(self) -> int:
        return self._retrier.n_retries

    # -- FaultHandlers protocol ----------------------------------------
    def handle_minor_fault(
        self, vpns: np.ndarray, write_mask: np.ndarray | None = None
    ) -> None:
        n = int(len(vpns))
        if n == 0:
            return
        vpns = np.asarray(vpns, dtype=np.int64)
        if write_mask is None:
            write_mask = np.ones(n, dtype=bool)
        write_mask = np.asarray(write_mask, dtype=bool)
        gpfns = self._retrier.call(lambda: self.guest_frames.alloc(n))
        pt = self.process.space.pt
        # Write faults install writable, soft-dirty mappings; read faults
        # install clean read-only zero-page mappings (Linux semantics —
        # the page only becomes dirty when actually written).
        if write_mask.all():
            # All writes (array sweeps, pre-faults): no split, so a VPN
            # run reaches the page table whole.
            pt.map(vpns, gpfns, writable=True, soft_dirty=True)
        else:
            wv, rv = vpns[write_mask], vpns[~write_mask]
            if wv.size:
                pt.map(wv, gpfns[write_mask], writable=True, soft_dirty=True)
            pt.map(rv, gpfns[~write_mask], writable=False, soft_dirty=False)
            pt.set_flags(rv, PTE_ZERO)
        self.n_minor += n
        self.clock.charge(
            n * self.costs.params.pf_minor_us, World.KERNEL, EV_PF_MINOR, n
        )

    def handle_ufd_miss_fault(
        self, vpns: np.ndarray, write_mask: np.ndarray | None = None
    ) -> np.ndarray:
        uffd = self.process.uffd
        if not isinstance(uffd, UserFaultFd) or not (uffd.mode & UfdMode.MISSING):
            return np.empty(0, dtype=np.int64)
        vpns = np.asarray(vpns, dtype=np.int64)
        if write_mask is None:
            write_mask = np.ones(vpns.shape, dtype=bool)
        write_mask = np.asarray(write_mask, dtype=bool)
        mask = uffd.miss_registered_mask(vpns)
        handled = vpns[mask]
        if handled.size:
            # The tracker resolves the miss (UFFDIO_COPY for writes,
            # UFFDIO_ZEROPAGE for reads): page becomes present; we
            # install the mapping on its behalf.
            self.handle_minor_fault(handled, write_mask[mask])
            self.n_minor -= int(handled.size)  # counted as ufd, not minor
            uffd.deliver_miss_faults(handled, write_mask[mask])
        return handled

    def handle_wp_fault(self, vpns: np.ndarray, ufd_mask: np.ndarray) -> None:
        vpns = np.asarray(vpns, dtype=np.int64)
        ufd_mask = np.asarray(ufd_mask, dtype=bool)
        ufd_vpns = vpns[ufd_mask]
        rest = vpns[~ufd_mask]
        if ufd_vpns.size:
            uffd = self.process.uffd
            if not isinstance(uffd, UserFaultFd):
                raise GuestError(
                    f"UFD-protected pages but no userfaultfd on pid "
                    f"{self.process.pid}"
                )
            uffd.deliver_write_faults(ufd_vpns)
        if rest.size:
            pt = self.process.space.pt
            # COW break of a zero-page mapping: the normal anonymous-write
            # path, identical under every technique.
            zero = pt.flag_mask(rest, PTE_ZERO)
            cow_vpns = rest[zero]
            if cow_vpns.size:
                self._handle_cow(cow_vpns)
            sd_vpns = rest[~zero]
            if sd_vpns.size:
                self._handle_soft_dirty(sd_vpns)

    # -- internals -------------------------------------------------------
    def _handle_cow(self, vpns: np.ndarray) -> None:
        n = int(vpns.size)
        pt = self.process.space.pt
        pt.set_flags(vpns, PTE_SOFT_DIRTY | PTE_WRITABLE)
        pt.clear_flags(vpns, PTE_ZERO)
        self.clock.charge(
            n * self.costs.params.pf_minor_us, World.KERNEL, EV_PF_MINOR, n
        )

    def _handle_soft_dirty(self, vpns: np.ndarray) -> None:
        n = int(vpns.size)
        pt = self.process.space.pt
        pt.set_flags(vpns, PTE_SOFT_DIRTY | PTE_WRITABLE)
        self.n_soft_dirty += n
        unit = self.costs.pf_kernel_unit_us(self.process.space.n_pages)
        self.clock.charge(unit * n, World.KERNEL, EV_PF_KERNEL, n)
        self.clock.charge(
            n * self.costs.params.context_switch_us,
            World.KERNEL,
            EV_CONTEXT_SWITCH,
            n,
        )
