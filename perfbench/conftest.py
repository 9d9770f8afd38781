"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import knobs  # noqa: E402

knobs.prepare()
