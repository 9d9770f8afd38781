"""The benchmark's two workloads, each a seeded list of checked operations.

An operation is one call into the program's public API: a registry call
(``repro.experiments.runner.run_experiment``) or a harness call
(``run_microbench``).  It fails if it raises or if its output check fails.
sweep-quick lets the seed order the operations; array-sweep lets it draw
sizes inside fixed octaves whose total is fixed, so every seed does about
the same amount of host work, and runs them in a fixed order because the
program keeps every stack that attached OoH alive until the pass ends,
which makes peak RSS depend on the order in which large stacks run.

Every pass starts with an empty experiment memo-cache, because users pay
its fill on every ``runner`` invocation, and every operation builds fresh
simulated stacks, so TLB, walk-cache and PML state start empty.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core.calibration import mb_to_pages
from repro.core.ooh import OohModule
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.harness import run_microbench
from repro.experiments.runner import EXPERIMENTS, run_experiment

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Registry experiments whose time is the fleet layer's.
FLEET_EXPERIMENTS = ("fleet", "overcommit")


class PassLog:
    """Operations attempted and failed during one pass."""

    def __init__(self, tracer=None, probe=None) -> None:
        self.tracer = tracer
        self.probe = probe  # called, untimed, before each operation
        self.attempted = 0
        self.failures: dict[str, str] = {}  # op name -> first failure
        self.op_s: dict[str, float] = {}  # op name -> host seconds, in order

    def run(self, op: str, fn, *args, inner: str | None = None, **kwargs):
        """Call ``fn`` as one operation; return its result, or None if it
        raised (the exception is the operation's failure)."""
        self.attempted += 1
        if self.probe is not None:
            self.probe()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span("experiments.op"):
                if inner is None:
                    return fn(*args, **kwargs)
                with self.tracer.span(inner):
                    return fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed operation
            traceback.print_exc()
            self.failures.setdefault(op, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.op_s[op] = time.perf_counter() - t0

    def check(self, op: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.setdefault(op, detail)

    @property
    def failed(self) -> int:
        return len(self.failures)


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------
# sweep-quick: the whole registry at --quick
# ---------------------------------------------------------------------
def sweep_quick_inputs(seed: int) -> dict:
    order = list(np.random.default_rng(seed).permutation(sorted(EXPERIMENTS)))
    return {"order": [str(n) for n in order],
            "digests": json.loads(DIGESTS_PATH.read_text())}


def sweep_quick_pass(inputs: dict, log: PassLog) -> None:
    for name in inputs["order"]:
        inner = "fleet.experiment" if name in FLEET_EXPERIMENTS else None
        out = log.run(name, run_experiment, name, quick=True, inner=inner)
        if out is not None:
            log.check(name, text_digest(out.text) == inputs["digests"].get(name),
                      "rendered text differs from the recorded digest")


# ---------------------------------------------------------------------
# array-sweep: the Listing 1 array parser, one size per octave
# ---------------------------------------------------------------------
#: Array sizes of a pass (MiB): the paper's largest, 1 GiB, and one size
#: in each octave from 64 to 512 MiB.  The 64 and 128 MiB octaves are
#: drawn freely and the 256 MiB one takes the rest of ``ARRAY_LOWER_MB``,
#: so the total page count is the same for every seed.  Host cost per
#: page grows with array size, so the largest array is not drawn: drawn,
#: it made wall time and peak RSS differ by up to 7% between seeds.
ARRAY_LARGEST_MB = 1024
ARRAY_LOWER_MB = 672
ARRAY_TECHNIQUES = ("proc", "ufd", "spml", "epml")
MICROBENCH_PASSES = 2  # run_microbench's default


def array_sweep_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(lo, 2 * lo)) for lo in (64, 128)]
    sizes += [ARRAY_LOWER_MB - sum(sizes), ARRAY_LARGEST_MB]
    return {"sizes": sizes}


def array_sweep_pass(inputs: dict, log: PassLog) -> None:
    for mb in inputs["sizes"]:
        ref = log.run(f"{mb}MB/oracle", run_microbench, "oracle", mem_mb=mb)
        if ref is not None:
            log.check(f"{mb}MB/oracle",
                      ref.n_dirty == MICROBENCH_PASSES * mb_to_pages(mb),
                      "oracle missed pages of a full-array sweep")
        for t in ARRAY_TECHNIQUES:
            op = f"{mb}MB/{t}"
            r = log.run(op, run_microbench, t, mem_mb=mb)
            if r is not None:
                log.check(op, ref is not None and r.n_dirty == ref.n_dirty,
                          f"n_dirty {r.n_dirty} != oracle's "
                          f"{None if ref is None else ref.n_dirty}")


WORKLOADS = {
    "sweep-quick": (sweep_quick_inputs, sweep_quick_pass),
    "array-sweep": (array_sweep_inputs, array_sweep_pass),
}


def reset() -> None:
    """Return the process to the state a fresh ``runner`` invocation has.

    ``OohModule._instances`` is a weak-keyed map whose values (the
    modules) hold their keys (the kernels), so every stack that attached
    OoH stays alive for the life of the process.  Clearing it here bounds
    that retention to one pass, as in a one-shot invocation; without it
    peak RSS would grow with the number of passes a run fits in.
    """
    EXPERIMENT_CACHE.clear()
    OohModule._instances.clear()
    gc.collect()


def in_reference_order(inputs: dict) -> dict:
    """``inputs`` with the operations in the registry's own order, the one
    ``runner all`` uses (a no-op for workloads the seed does not order)."""
    if "order" not in inputs:
        return inputs
    return {**inputs, "order": sorted(inputs["order"])}


def run_pass(workload: str, inputs: dict, tracer=None, probe=None) -> PassLog:
    """One pass of ``workload``; call :func:`reset` first."""
    log = PassLog(tracer, probe)
    WORKLOADS[workload][1](inputs, log)
    return log
