"""Print the seconds one fresh process needs for the program's set-up:
importing the experiment registry and building the first simulated stack
(one host and the paper's 5 GB single-vCPU VM).

    python3 perfbench/setup_probe.py
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import knobs  # noqa: E402

knobs.prepare()

import repro.experiments.runner  # noqa: E402,F401
from repro.experiments.harness import build_stack  # noqa: E402

build_stack()
print(time.perf_counter() - T0)
