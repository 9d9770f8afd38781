"""Sort-based set primitives for page-number arrays.

Since numpy 2.3 the argument-less ``np.unique`` of an integer array goes
through a hash table (``_unique_hash``) and then sorts the result; on the
page sets this simulator handles that is 5-40x slower than one
``np.sort`` plus an adjacent-difference mask.  ``ufunc.at`` (unbuffered
scatter) is slower still.  Every page set in ``repro`` is deduplicated
and counted through the two helpers below instead; a tier-1 test
(``tests/test_arrays.py``) rejects new call sites of the slow paths.

Both helpers are meant for integer (and bool) arrays.  For those they
give exactly what numpy gives: same values, same ascending order, same
dtype.
"""

from __future__ import annotations

import numpy as np

__all__ = ["add_counts", "unique_sorted"]


def _first_of_run(s: np.ndarray) -> np.ndarray:
    """Mask of the elements of sorted ``s`` that differ from their
    predecessor (the first element of each run of equal values)."""
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


def unique_sorted(a) -> np.ndarray:
    """``np.unique(a)`` by sort + adjacent difference: the distinct
    elements of ``a`` (flattened), ascending, in ``a``'s dtype."""
    s = np.sort(np.asarray(a).ravel())
    return s[_first_of_run(s)]


def add_counts(target: np.ndarray, idx, delta: int) -> np.ndarray:
    """``np.add.at(target, idx, delta)``; returns ``np.unique(idx)``.

    One sort of ``idx`` yields both the distinct indices and how often
    each occurs, so the scatter becomes a plain fancy-index add.
    Indices must be non-negative (no wrap-around aliasing).
    """
    s = np.sort(np.asarray(idx).ravel())
    if s.size == 0:
        return s
    starts = np.flatnonzero(_first_of_run(s))
    # Run lengths: distance from each run's start to the next one's.
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:]
    counts[-1] = s.size
    counts -= starts
    counts *= delta
    uniq = s[starts]
    target[uniq] += counts
    return uniq
