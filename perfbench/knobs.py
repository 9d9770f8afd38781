"""Pinned program settings, source location and run provenance.

Call :func:`prepare` before importing anything from ``repro``: some
``REPRO_*`` variables are read at import time, ``REPRO_TRACE=1`` alone
silently disables segment replay, and ``REPRO_EXPERIMENT_CACHE=0`` roughly
triples sweep-quick.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

#: The checkout the benchmark lives in; the program is its ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Every ``REPRO_*`` variable is cleared, then these are set to the
#: program's defaults, so an inherited shell setting cannot skew a run.
#: The serverless, fleet and overcommit sizes stay unset (defaults).
PINNED = {
    "REPRO_TRACE": "0",
    "REPRO_VCPUS": "1",
    "REPRO_FUSED_MMU": "1",
    "REPRO_WALK_CACHE": "1",
    "REPRO_EXPERIMENT_CACHE": "1",
    "REPRO_CHAOS_SEED": "1234",
}

#: Set too, before numpy is imported.  With transparent huge pages in
#: ``madvise`` mode numpy asks for them on large arrays, and whether it
#: gets them depends on how fragmented the host's memory is at the time:
#: a Boehm GC workload's peak RSS moved between 121 and 140 MB from one
#: set of runs to the next.  Without them it is the same in every run.
NUMPY_PINNED = {"NUMPY_MADVISE_HUGEPAGE": "0"}


def pin_environment() -> list[str]:
    """Clear every ``REPRO_*`` variable and set :data:`PINNED` and
    :data:`NUMPY_PINNED`; return the names of the inherited variables that
    were overridden."""
    inherited = sorted(k for k in os.environ if k.startswith("REPRO_"))
    overridden = [k for k in inherited if os.environ[k] != PINNED.get(k)]
    overridden += [k for k, v in NUMPY_PINNED.items()
                   if os.environ.get(k, v) != v]
    for k in inherited:
        del os.environ[k]
    os.environ.update(PINNED)
    os.environ.update(NUMPY_PINNED)
    return overridden


def prepare() -> list[str]:
    """Pin the environment and import ``repro`` from ``ROOT/src``, or exit
    with an error if it is not there; return :func:`pin_environment`'s
    overridden variables."""
    overridden = pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, not {src}")
    return overridden


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return got.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(overridden: list[str], **run: object) -> dict:
    import numpy

    return {
        **run,
        "knobs": {k: v for k, v in sorted(os.environ.items())
                  if k.startswith("REPRO_") or k in NUMPY_PINNED},
        "overridden": overridden,
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
