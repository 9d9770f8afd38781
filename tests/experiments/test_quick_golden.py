"""Golden output of ``runner all --quick``, and its identity across the
perf knobs.

Every experiment of the registry runs at ``--quick`` in a fresh
interpreter whose ``REPRO_*`` variables are cleared and set to the
defaults, so the CI legs that export ``REPRO_VCPUS=4`` or
``REPRO_TRACE=1`` do not change what is compared.  The sha256 of each
experiment's rendered text must equal the committed golden, with the
perf knobs at their defaults and with each one turned off: a perf path
may change host time, never simulated output.  The same holds for
``runner all --jobs 2``, which spreads the experiment families over two
worker processes, each with its own memo cache.

Regenerating after an intentional output change::

    REPRO_REGOLDEN=1 PYTHONPATH=src python -m pytest tests/experiments/test_quick_golden.py

then review the golden diff like any other code change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "quick_sha256.json"
SRC = Path(__file__).resolve().parents[2] / "src"

#: The program's defaults for every knob that can change a run.
DEFAULTS = {
    "REPRO_TRACE": "0",
    "REPRO_VCPUS": "1",
    "REPRO_FUSED_MMU": "1",
    "REPRO_WALK_CACHE": "1",
    "REPRO_EXPERIMENT_CACHE": "1",
    "REPRO_CHAOS_SEED": "1234",
}

_SWEEP = """
import hashlib, json
from repro.experiments.runner import EXPERIMENTS, run_experiment
print(json.dumps({
    name: hashlib.sha256(run_experiment(name, quick=True).text.encode()).hexdigest()
    for name in sorted(EXPERIMENTS)
}, indent=1, sort_keys=True))
"""

#: The same digests through ``runner all --jobs 2``'s parallel path.
_SWEEP_JOBS = """
import hashlib, json
from repro.experiments.runner import EXPERIMENTS, _run_parallel
texts = _run_parallel(sorted(EXPERIMENTS), quick=True, jobs=2)
print(json.dumps({
    name: hashlib.sha256(texts[name].encode()).hexdigest()
    for name in sorted(EXPERIMENTS)
}, indent=1, sort_keys=True))
"""


def _quick_digests(knobs: dict[str, str], script: str = _SWEEP) -> str:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(DEFAULTS)
    env.update(knobs)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "knobs",
    [{}, {"REPRO_FUSED_MMU": "0"}, {"REPRO_WALK_CACHE": "0"}],
    ids=["default", "multipass-mmu", "no-walk-cache"],
)
def test_quick_sweep_matches_golden(knobs):
    got = _quick_digests(knobs)
    if os.environ.get("REPRO_REGOLDEN") == "1" and not knobs:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(got)
        pytest.skip(f"regenerated {GOLDEN}")
    _assert_golden(got)


def test_quick_sweep_jobs2_matches_golden():
    _assert_golden(_quick_digests({}, _SWEEP_JOBS))


def _assert_golden(got: str) -> None:
    assert GOLDEN.is_file(), f"missing {GOLDEN}; regenerate with REPRO_REGOLDEN=1"
    want = json.loads(GOLDEN.read_text())
    got_map = json.loads(got)
    assert sorted(got_map) == sorted(want)
    changed = [name for name in want if got_map[name] != want[name]]
    assert not changed, f"rendered output changed for: {changed}"
