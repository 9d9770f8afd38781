"""The oracle technique: perfect dirty information at zero cost.

The paper's estimation methodology (§VI-B) defines *oracle* as "a
hypothetical technique able to provide all dirty pages with no additional
cost" (``E(C_oracle) = 0``).  We implement it with the guest kernel's
zero-cost access-listener hook: every batch's newly-PTE-dirty VPNs are
recorded without charging the clock.  Runs under the oracle measure a
workload's *ideal* execution time, the baseline of every overhead figure.
"""

from __future__ import annotations

import numpy as np

from repro.core.tracking import DirtyPageTracker, Technique, register_technique
from repro.guest.process import Process
from repro.hw.mmu import MmuResult
from repro.hw.pagetable import PTE_DIRTY

__all__ = ["OracleTracker"]


@register_technique
class OracleTracker(DirtyPageTracker):
    technique = Technique.ORACLE

    def __init__(self, kernel, process) -> None:
        super().__init__(kernel, process)
        # Dirty set as a dense bool bitmap: recording a batch is one
        # vectorised scatter and collection one flatnonzero, instead of
        # per-page Python set churn (the oracle listener runs on every
        # access batch of every baseline measurement).
        self._dirty = np.zeros(process.space.pt.n_pages, dtype=bool)

    def _on_access(self, process: Process, result: MmuResult) -> None:
        if process.pid == self.process.pid and result.newly_pte_dirty.size:
            self._dirty[result.newly_pte_dirty] = True

    def _do_start(self) -> None:
        # Arm: the listener sees PTE dirty 0 -> 1 transitions, so clear
        # the bits (free: the oracle is costless by definition).
        mapped = self.process.space.pt.mapped_vpns()
        if mapped.size:
            self.process.space.pt.clear_flags(mapped, PTE_DIRTY)
            # SMP: every vCPU may cache the downgraded translations; the
            # oracle invalidates them all directly (costless — no charged
            # shootdown IPIs).
            self.process.space.invalidate_all(mapped)
        self.kernel.add_access_listener(self._on_access)

    def _do_collect(self) -> np.ndarray:
        # flatnonzero yields ascending VPNs — same order the sorted set
        # produced.
        out = np.flatnonzero(self._dirty).astype(np.int64)
        self._dirty[:] = False
        # Re-arm PTE dirty transitions (free: the oracle is costless).
        if out.size:
            self.process.space.pt.clear_flags(out, PTE_DIRTY)
            self.process.space.invalidate_all(out)
        return out

    def _do_stop(self) -> None:
        self.kernel.remove_access_listener(self._on_access)
        self._dirty[:] = False
