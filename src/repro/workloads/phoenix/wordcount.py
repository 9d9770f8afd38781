"""Phoenix *word-count*: count word occurrences in a text file.

Streams the data file while scattering writes across a hash-table region
(roughly the same size as the file, per Table III's footprints) — the
highest write-page diversity of the Phoenix set, which is what stresses
per-page tracking techniques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arrays import unique_sorted
from repro.core.calibration import PAGES_PER_MB
from repro.workloads.base import MemoryContext
from repro.workloads.phoenix.common import PhoenixApp

__all__ = ["WordCount"]


@dataclass
class WordCount(PhoenixApp):
    name: str = "word-count"
    compute_factor: float = 10.0
    #: Distinct hash pages dirtied per input page streamed.
    writes_per_input_page: float = 0.5

    def _run(self, ctx: MemoryContext) -> None:
        (datafile_mb,) = self._require("datafile_mb")
        file_pages = min(
            int(datafile_mb * PAGES_PER_MB), self.footprint_pages - 16
        )
        hash_pages = max(8, self.footprint_pages - file_pages - 8)
        data = ctx.alloc_region(file_pages, "text")
        table = ctx.alloc_region(hash_pages, "hash-table")
        rng = np.random.default_rng(0x5EED)

        def scatter_counts(lo: int, hi: int) -> None:
            n_writes = max(1, int((hi - lo) * self.writes_per_input_page))
            idx = rng.integers(0, table.n_pages, size=n_writes)
            ctx.write(table, unique_sorted(idx))
            self._touch_cost(ctx, n_writes, 0.5)

        self._sequential_read(ctx, data, self.compute_factor, scatter_counts)
