"""Record the sha256 of every registry experiment's ``--quick`` text into
``digests.json``, the reference the sweep-quick workload checks against.

    python3 perfbench/record_digests.py

Run it only when a change is meant to alter simulated output, and say so
with the change.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import knobs  # noqa: E402

knobs.prepare()

from workloads import DIGESTS_PATH, text_digest  # noqa: E402

from repro.experiments.cache import EXPERIMENT_CACHE  # noqa: E402
from repro.experiments.runner import EXPERIMENTS, run_experiment  # noqa: E402

EXPERIMENT_CACHE.clear()
digests = {name: text_digest(run_experiment(name, quick=True).text)
           for name in sorted(EXPERIMENTS)}
DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
print(f"wrote {len(digests)} digests to {DIGESTS_PATH.name}")
