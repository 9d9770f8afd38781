"""Sort-based set primitives and run indexing for page-number arrays.

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

The page walk indexes its tables with page-number arrays that are
usually contiguous runs (an array sweep touches ascending VPNs, the LIFO
frame allocator hands out descending frame runs).  A fancy index of a
16K-page batch costs 20-30 us; the equivalent slice costs 1-5 us.
:func:`as_index` turns a run into that slice, and :func:`gather` reads
through either kind of index without ever returning a view.
"""

from __future__ import annotations

import numpy as np

__all__ = ["add_counts", "as_index", "checked_index", "gather", "unique_sorted"]


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


#: Shortest index array :func:`as_index` inspects.  Proving a run costs
#: one ordered compare of the whole array plus about 2 us of fixed
#: overhead; at 1024 int64 indices that about equals what one gather and
#: one scatter save by slicing (2.5 + 2.9 us fancy against 0.2 + 0.5 us
#: sliced, numpy 2.4), and shorter runs would lose time.
MIN_RUN = 1024


def as_index(a: np.ndarray, n: int) -> np.ndarray | slice:
    """A slice selecting what ``a`` selects from an axis of length ``n``.

    ``a`` is a 1-D integer index array.  When it is a strict +1 run
    (``k, k+1, ...``) or a strict -1 run (``k, k-1, ...``) inside
    ``[0, n)`` and at least :data:`MIN_RUN` long, the result is the
    equivalent ascending or reversed slice; otherwise ``a`` itself, so
    an index that leaves ``[0, n)`` still raises or wraps as a fancy
    index does.  Either way ``x[as_index(a, len(x))]`` equals ``x[a]``,
    and scattering through it stores the same values in the same places.

    A run's first and last elements are its min and max, so the range
    check costs two scalar compares; a non-run is told apart by its
    endpoints alone unless they span exactly ``a.size - 1``.  A slice
    read is a view: copy it (or use :func:`gather`) before handing it out.
    """
    size = a.size
    if size < MIN_RUN:
        return a
    first, last = int(a[0]), int(a[-1])
    # Endpoints ``size - 1`` apart plus a strict order in between leave
    # no room for a step other than 1.
    if last - first == size - 1:
        if first < 0 or last >= n or not bool((a[1:] > a[:-1]).all()):
            return a
        return slice(first, last + 1)
    if first - last == size - 1:
        if last < 0 or first >= n or not bool((a[1:] < a[:-1]).all()):
            return a
        # A run ending at index 0 stops before the start: stop=None.
        return slice(first, last - 1 if last else None, -1)
    return a


def checked_index(a: np.ndarray, n: int) -> np.ndarray | slice | None:
    """:func:`as_index`, or ``None`` when an index of ``a`` lies outside
    ``[0, n)``.  A run is range-checked by its endpoints; any other array
    by its min and max."""
    idx = as_index(a, n)
    if isinstance(idx, slice) or a.size == 0 or (a.min() >= 0 and a.max() < n):
        return idx
    return None


def gather(x: np.ndarray, idx: np.ndarray | slice) -> np.ndarray:
    """``x[idx]`` as an array that shares no memory with ``x``.

    A fancy index already returns a fresh array; only a slice (a view)
    needs the copy.
    """
    out = x[idx]
    return out.copy() if isinstance(idx, slice) else out
