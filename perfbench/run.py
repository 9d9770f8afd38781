"""Host-time benchmark of the OoH simulator, end to end and per layer.

    python3 perfbench/run.py --workload sweep-quick --seed 1 --seconds 35 --trace 0

Run from the repository root.  With ``--trace 0`` it times passes of the
workload with tracing off, scales each operation's time by a load probe
sampled around it (:class:`LoadProbe`), and reports the ``end_to_end``
metrics of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced
and traced passes and reports the ``per_layer`` metrics, including the
tracing overhead.  Every operation's output is checked.  The last stdout line is
the result as one JSON object; ``perfbench/out/`` gets the same result
with the run's provenance (and, when traced, the spans of one pass).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import knobs  # noqa: E402  (pins REPRO_* before repro is imported)

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5
#: The reference host, on which the load probe's cache-resident part takes
#: 1 ms and its memory-bound part 10 ms; end-to-end times are scaled to it.
PROBE_REF_CACHE_S = 0.001
PROBE_REF_MEMORY_S = 0.010


class LoadProbe:
    """Measures how much other load on the host slows the program.

    Other tenants' load slows passes by up to 3x for minutes at a time;
    user time rises with wall time, so it cannot be subtracted.  It slows
    cache-resident code (a shared core) and memory-bound code (shared
    memory bandwidth) by different amounts at different times, so one
    sample times both: 32 sums over a 1 MiB array, which stays in the
    CPU's caches, then two over a 64 MiB one, which does not, with garbage
    collection off so that no collection of the program's objects lands in
    it.  The sample is the mean of the two parts' slowdowns against the
    reference host.  Samples are taken between operations, never inside a
    timed one, and each operation is scaled by the two around it: a single
    sample is noisy, and the load moves within a pass.
    """

    def __init__(self) -> None:
        import numpy as np

        self.cache_buf = np.ones(1 << 17, dtype=np.int64)
        self.memory_buf = np.ones(8 << 20, dtype=np.int64)
        self.samples: list[float] = []

    def __call__(self) -> None:
        gc.disable()
        t0 = time.perf_counter()
        for _ in range(32):
            self.cache_buf.sum()
        t1 = time.perf_counter()
        self.memory_buf.sum()
        self.memory_buf.sum()
        t2 = time.perf_counter()
        gc.enable()
        self.samples.append(((t1 - t0) / PROBE_REF_CACHE_S
                             + (t2 - t1) / PROBE_REF_MEMORY_S) / 2)

    def scale(self, times: list[float]) -> list[float]:
        """Scale each of ``times`` to the reference host: ``times[i]`` was
        measured between samples ``i`` and ``i + 1`` and is divided by
        their mean.  Clears the samples."""
        s = self.samples
        if len(s) != len(times) + 1:
            raise ValueError(f"{len(times)} times need {len(times) + 1} "
                             f"probe samples, not {len(s)}")
        scaled = [t * 2 / (s[i] + s[i + 1])
                  for i, t in enumerate(times)]
        s.clear()
        return scaled


def measure_setup(probe: LoadProbe) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe()
        got = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                             capture_output=True, text=True, check=True,
                             timeout=60)
        probe()
        samples += probe.scale([float(got.stdout.strip().splitlines()[-1])])
    return statistics.median(samples)


class Totals:
    """Operation counts over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, log) -> None:
        self.attempted += log.attempted
        self.failures += [f"{op}: {why}" for op, why in log.failures.items()]


def timed_pass(workload: str, inputs: dict, totals: Totals,
               tracer=None, probe=None) -> tuple[float, dict[str, float]]:
    """Wall seconds of one pass and of each of its operations; the
    operations are added to ``totals``.  A ``probe`` is sampled before each
    operation and once after the last."""
    import workloads

    workloads.reset()
    t0 = time.perf_counter()
    log = workloads.run_pass(workload, inputs, tracer, probe)
    wall = time.perf_counter() - t0
    if probe is not None:
        probe()
    totals.add(log)
    return wall, log.op_s


def traced_pass(workload: str, inputs: dict, totals: Totals, **tracer_args):
    """One pass under a fresh tracer; returns (wall seconds, tracer,
    per-layer metrics of the pass)."""
    from layers import Tracer

    from repro.experiments.cache import EXPERIMENT_CACHE

    tracer = Tracer(**tracer_args)
    with tracer.installed():
        wall, _ = timed_pass(workload, inputs, totals, tracer)
    return wall, tracer, tracer.metrics(
        EXPERIMENT_CACHE.hits, EXPERIMENT_CACHE.misses, pass_s=wall)


def end_to_end(args, inputs: dict, totals: Totals) -> dict:
    import workloads

    # Peak RSS is that of a one-shot invocation: set-up plus one pass with
    # the operations in the registry's order, before any timed pass; it
    # would otherwise depend on the seed's operation order (see workloads).
    # The pass is traced, keeping no spans, to count the guest pages it
    # submits, which are the same in any order.
    _, _, layers = traced_pass(
        args.workload, workloads.in_reference_order(inputs), totals,
        max_spans=0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pages = layers["guest.kernel.access.pages"] + layers[
        "guest.kernel.access_plan.pages"]
    probe = LoadProbe()
    setup_s = measure_setup(probe)
    walls, passes = [], []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        wall, op_s = timed_pass(args.workload, inputs, totals, probe=probe)
        walls.append(wall)
        passes.append(probe.scale(list(op_s.values())))
    # Every pass runs the same operations in the same order.
    wall = sum(statistics.median(op) for op in zip(*passes))
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls)
          + "; their operations scaled to the reference host: "
          + " ".join(f"{sum(p):.3f}" for p in passes))
    return {
        "wall_s": wall,
        "sim_pages_per_s": pages / wall,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def per_layer(args, inputs: dict, totals: Totals) -> tuple[dict, object]:
    plain, traced, rows = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_pass(args.workload, inputs, totals)[0])
        wall, tracer, row = traced_pass(args.workload, inputs, totals)
        traced.append(wall)
        rows.append(row)
    print(f"pairs {len(traced)}: untraced "
          + " ".join(f"{w:.3f}" for w in plain) + " traced "
          + " ".join(f"{w:.3f}" for w in traced))
    # median_low: a value some pass measured, so counts stay whole numbers.
    metrics = {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_pct"] = (
        statistics.median(traced) / statistics.median(plain) - 1) * 100
    wall = statistics.median(traced)
    outside = metrics["trace.unattributed_s"]
    print(f"traced wall in named spans: {1 - outside / wall:.1%}; in spans "
          f"below experiments.op: "
          f"{1 - (outside + metrics['experiments.op.self_s']) / wall:.1%}")
    return metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    overridden = knobs.prepare()
    spec = json.loads((knobs.ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    import workloads

    inputs = workloads.WORKLOADS[args.workload][0](args.seed)
    totals = Totals()
    if args.trace:
        values, tracer = per_layer(args, inputs, totals)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args, inputs, totals)
        wanted = spec["end_to_end"]
    result = {
        "correct": not totals.failures,
        "attempted": totals.attempted,
        "failed": len(totals.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {
        "provenance": knobs.provenance(
            overridden, workload=args.workload, seed=args.seed,
            seconds=args.seconds, trace=args.trace, inputs=repr(inputs)),
        "result": result,
        "failures": totals.failures,
    }
    if args.trace:
        record["spans"] = {"fields": ["id", "name", "start", "end", "parent"],
                           "total": tracer.n_spans, "kept": tracer.spans}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str))

    print("provenance " + json.dumps(record["provenance"], default=str))
    for failure in totals.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"error_rate {len(totals.failures) / totals.attempted:g} "
          f"({len(totals.failures)}/{totals.attempted} operations)")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
