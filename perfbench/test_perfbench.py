"""Checks on the benchmark: its layer predictions as exact counts, its
output checks against deliberately corrupted results, and its command-line
contract.  No timing is asserted.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run
import workloads

from repro.core.tracking import DirtyPageTracker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3


def traced(workload: str) -> dict:
    inputs = workloads.WORKLOADS[workload][0](SEED)
    totals = run.Totals()
    _, _, layers = run.traced_pass(workload, inputs, totals)
    assert totals.failures == []
    return layers


@pytest.fixture(scope="module")
def two_passes() -> dict:
    """Per-layer metrics of two traced passes of every workload."""
    return {w: (traced(w), traced(w)) for w in workloads.WORKLOADS}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_is_produced(two_passes):
    first, _ = two_passes["sweep-quick"]
    missing = {m["name"] for m in SPEC["per_layer"]} - set(first) - {
        "trace.overhead_pct"}  # computed from untraced/traced pass pairs
    assert missing == set()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(two_passes, workload):
    """Memo misses, call and page counts and every sim.* count are the same
    on every pass: each pass starts from an empty cache and cold stacks."""
    first, second = two_passes[workload]
    counts = [k for k in first
              if k.endswith((".calls", ".pages", ".hits", ".misses",
                             "_replays", "_ratio")) or k.startswith("sim.")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_boehm_bypassed(two_passes):
    layers, _ = two_passes["array-sweep"]
    boehm = {k: v for k, v in layers.items()
             if k.startswith("trackers.boehm.") and k.endswith(".calls")}
    assert len(boehm) == 3 and set(boehm.values()) == {0}
    assert layers["sim.gc_cycles"] == 0


def test_memo_hits(two_passes):
    """Only the registry sweep shares harness runs between experiments."""
    hits = {w: p[0]["experiments.memo.hits"] for w, p in two_passes.items()}
    assert hits["sweep-quick"] > 0
    assert hits["array-sweep"] == 0


def test_sweep_quick_calls_every_layer(two_passes):
    """sweep-quick is the one workload that reaches every layer, the Boehm
    collector, CRIU and the serverless instances included."""
    layers, _ = two_passes["sweep-quick"]
    idle = [k for k, v in layers.items() if k.endswith(".calls") and v == 0]
    assert idle == []


def test_array_sweep_one_attach_per_operation(two_passes):
    layers, _ = two_passes["array-sweep"]
    n_ops = 4 * (1 + len(workloads.ARRAY_TECHNIQUES))
    assert layers["core.tracker.start.calls"] == n_ops
    assert layers["core.ooh.attach.calls"] == 4 * 2  # spml and epml
    assert layers["trackers.criu.dump.calls"] == 0


def test_array_sweep_total_is_seed_independent():
    for seed in range(20):
        sizes = workloads.array_sweep_inputs(seed)["sizes"]
        assert sum(sizes) == workloads.ARRAY_LOWER_MB + workloads.ARRAY_LARGEST_MB
        assert [lo <= mb < 2 * lo for lo, mb in zip((64, 128, 256, 512), sizes)
                ] == [True] * 3 + [False]


def test_probe_brackets_every_operation():
    """The load probe is sampled before each operation and after the last,
    never inside one, and each operation is scaled by the mean of the two
    samples around it."""
    inputs = workloads.WORKLOADS["array-sweep"][0](SEED)
    totals = run.Totals()
    probe = run.LoadProbe()
    _, op_s = run.timed_pass("array-sweep", inputs, totals, probe=probe)
    assert len(probe.samples) == len(op_s) + 1 == totals.attempted + 1
    probe.samples[:] = [1.0, 3.0, 2.0]
    assert probe.scale([1.0, 2.0]) == pytest.approx([0.5, 0.8])
    assert probe.samples == []
    with pytest.raises(ValueError):
        probe.scale([1.0])


# ---------------------------------------------------------------------
# the checker catches corrupted results
# ---------------------------------------------------------------------
def _error_rate(workload: str, inputs: dict | None = None) -> float:
    inputs = inputs or workloads.WORKLOADS[workload][0](SEED)
    workloads.reset()
    log = workloads.run_pass(workload, inputs)
    return log.failed / log.attempted


@pytest.fixture
def spml_drops_one_vpn(monkeypatch):
    collect = DirtyPageTracker.collect

    def lossy(self):
        got = collect(self)
        return got[1:] if self.technique.value == "spml" and got.size else got

    monkeypatch.setattr(DirtyPageTracker, "collect", lossy)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_dropped_vpn_is_an_error(spml_drops_one_vpn, workload):
    assert _error_rate(workload) > 0


def test_wrong_recorded_digest_is_an_error():
    inputs = workloads.sweep_quick_inputs(SEED)
    good = inputs["digests"]["table5"]
    inputs["digests"]["table5"] = ("0" if good[0] != "0" else "1") + good[1:]
    assert _error_rate("sweep-quick", inputs) == 1 / len(inputs["order"])


def test_current_code_has_no_errors():
    for workload in workloads.WORKLOADS:
        assert _error_rate(workload) == 0


# ---------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------
def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "array-sweep",
         "--seed", "1", "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_last_line_is_the_result(trace, section):
    got = _cli(HERE.parent, "--trace", trace)
    assert got.returncode == 0, got.stderr
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = _cli(tmp_path, "--trace", "0")
    assert got.returncode != 0
    assert "correct" not in got.stdout
