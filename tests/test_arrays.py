"""Tests for the sort-based set primitives and the run detector in
``repro.arrays``, plus a guard that keeps numpy's slow set paths out of
``src/repro``."""

import ast
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import arrays
from repro.arrays import add_counts, as_index, checked_index, gather, unique_sorted

_INT_DTYPES = [np.int64, np.uint64, np.int32]


@settings(max_examples=200, deadline=None)
@given(
    a=st.sampled_from(_INT_DTYPES).flatmap(
        lambda dt: hnp.arrays(
            dt,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
            elements=hnp.from_dtype(np.dtype(dt)),
        )
    )
)
def test_unique_sorted_matches_np_unique(a):
    got = unique_sorted(a)
    want = np.unique(a)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "a",
    [
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.uint64),
        np.array([5], dtype=np.int32),
        np.array([[3, -1, 3], [-7, -1, 0]], dtype=np.int64),
        np.array([2**64 - 1, 0, 2**63, 2**64 - 1], dtype=np.uint64),
        np.array([True, False, True]),
        [4, 4, 1],
    ],
    ids=["empty-i64", "empty-u64", "one-i32", "2d-negative", "u64-high", "bool", "list"],
)
def test_unique_sorted_edge_cases(a):
    got, want = unique_sorted(a), np.unique(a)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=50),
    data=st.data(),
    delta=st.sampled_from([1, -1]),
)
def test_add_counts_matches_add_at(n, data, delta):
    idx = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), max_size=120)), dtype=np.int64
    )
    base = np.asarray(
        data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    got, want = base.copy(), base.copy()
    np.add.at(want, idx, delta)
    uniq = add_counts(got, idx, delta)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert uniq.dtype == idx.dtype
    assert np.array_equal(uniq, np.unique(idx))


# ----------------------------------------------------------------------
# as_index: a run becomes a slice, anything else stays a fancy index
# ----------------------------------------------------------------------
@contextmanager
def min_run(n: int):
    """Let :func:`as_index` slice runs from length ``n`` on, so short
    arrays reach the run branches (``sys.maxsize``: never slice)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrays, "MIN_RUN", n)
        yield


def _check_equivalent(a: np.ndarray, n: int) -> np.ndarray | slice:
    """``x[as_index(a, n)]`` reads and writes exactly what ``x[a]`` does
    on an array of length ``n``, raising where it raises."""
    idx = as_index(a, n)
    x = np.arange(100, 100 + n, dtype=np.int64)
    try:
        want = x[a]
    except IndexError:
        with pytest.raises(IndexError):
            x[idx]
        return idx
    assert np.array_equal(x[idx], want)
    assert np.array_equal(gather(x, idx), want)
    vals = np.arange(-1, -1 - a.size, -1, dtype=np.int64)
    got_x, want_x = x.copy(), x.copy()
    got_x[idx] = vals
    want_x[a] = vals
    assert np.array_equal(got_x, want_x)
    return idx


def _run(first: int, size: int, step: int) -> np.ndarray:
    return np.arange(first, first + step * size, step, dtype=np.int64)


_RUN_MIN = [1, 2, 4]  # MIN_RUN values that let short arrays reach the runs


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 64),
    size=st.integers(0, 80),
    first=st.integers(-70, 140),
    step=st.sampled_from([1, -1]),
    mr=st.sampled_from(_RUN_MIN),
)
@example(n=8, size=5, first=4, step=-1, mr=1)  # -1 run ending at index 0
@example(n=8, size=8, first=7, step=-1, mr=4)  # the whole axis, reversed
@example(n=8, size=3, first=5, step=1, mr=1)  # +1 run ending at n - 1
@example(n=8, size=2, first=0, step=-1, mr=1)  # starts in range, leaves it
def test_as_index_runs(n, size, first, step, mr):
    """+1 and -1 runs, in range or not: lengths 0, 1 and 2 included, and
    -1 runs ending at index 0 (``first == size - 1``)."""
    a = _run(first, size, step)
    with min_run(mr):
        idx = _check_equivalent(a, n)
    in_range = size and min(a[0], a[-1]) >= 0 and max(a[0], a[-1]) < n
    assert isinstance(idx, slice) == bool(size >= mr and in_range)


@settings(max_examples=300, deadline=None)
@given(
    a=hnp.arrays(
        np.int64,
        st.integers(0, 40),
        elements=st.integers(-50, 50),
    ),
    n=st.integers(1, 50),
    mr=st.sampled_from(_RUN_MIN),
)
def test_as_index_random_arrays(a, n, mr):
    """Random int64 arrays: duplicates, negatives, out-of-range values;
    ``checked_index`` refuses exactly the arrays with an index outside
    ``[0, n)``."""
    with min_run(mr):
        idx = _check_equivalent(a, n)
        checked = checked_index(a, n)
    if isinstance(idx, slice):
        step = 1 if a.size == 1 else int(a[1] - a[0])
        assert np.array_equal(a, _run(int(a[0]), a.size, step))
    outside = bool(a.size) and (a.min() < 0 or a.max() >= n)
    assert (checked is None) == outside
    if not outside:
        assert checked is idx or checked == idx


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(3, 60),
    data=st.data(),
    step=st.sampled_from([1, -1]),
    kind=st.sampled_from(["gap", "duplicate", "swap"]),
)
def test_as_index_near_runs_stay_fancy(size, data, step, kind):
    """A run with one gap (endpoints one too far apart), one duplicate
    or two swapped neighbours (endpoints exactly right) is not a run."""
    first = size + 2 if step < 0 else 0
    a = _run(first, size, step)
    i = data.draw(st.integers(1, size - 2))
    if kind == "gap":
        a[i:] += step
    elif kind == "duplicate":
        a[i] = a[i - 1]
    else:
        a[i], a[i + 1] = a[i + 1], a[i]
    with min_run(1):
        idx = _check_equivalent(a, 2 * size + 4)
    assert idx is a


def test_as_index_default_min_run():
    """Production threshold: shorter runs stay fancy, longer ones slice,
    including a -1 run ending at index 0."""
    k = arrays.MIN_RUN
    assert _check_equivalent(_run(5, k - 1, 1), 2 * k) is not None
    assert not isinstance(as_index(_run(5, k - 1, 1), 2 * k), slice)
    assert _check_equivalent(_run(5, k, 1), 2 * k) == slice(5, 5 + k)
    assert _check_equivalent(_run(k - 1, k, -1), k) == slice(k - 1, None, -1)
    assert _check_equivalent(_run(k, k, -1), k + 1) == slice(k, 0, -1)
    with min_run(sys.maxsize):
        assert not isinstance(as_index(_run(0, k, 1), k), slice)


def test_gather_never_returns_a_view():
    x = np.arange(4096, dtype=np.int64)
    for idx in (slice(10, 2000), slice(2000, None, -1), np.array([3, 1, 2])):
        out = gather(x, idx)
        assert np.array_equal(out, x[idx])
        assert not np.shares_memory(out, x)


# ----------------------------------------------------------------------
# guard: no hash-path np.unique, np.union1d or ufunc.at in src/repro
# ----------------------------------------------------------------------
_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _slow_set_calls(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = ast.unparse(node.func)
        if name == "np.unique" and not any(
            (k.arg or "").startswith("return_") for k in node.keywords
        ):
            found.append((node.lineno, "np.unique without return_*"))
        elif name == "np.union1d":
            found.append((node.lineno, "np.union1d"))
        elif node.func.attr == "at" and name.startswith("np."):
            found.append((node.lineno, f"{name} (ufunc.at)"))
    return found


def test_guard_flags_each_slow_call():
    tree = ast.parse(
        "np.unique(a)\n"
        "np.unique(a, return_inverse=True)\n"
        "np.union1d(a, b)\n"
        "np.add.at(t, i, 1)\n"
        "np.logical_or.at(t, i, w)\n"
        "obj.at(3)\n"
    )
    assert [line for line, _ in _slow_set_calls(tree)] == [1, 3, 4, 5]


def test_src_uses_sort_based_set_primitives():
    """On numpy >= 2.3 the argument-less ``np.unique`` of an integer array
    hashes, and ``np.union1d`` calls it; ``ufunc.at`` is an unbuffered
    scatter.  Use ``repro.arrays`` instead."""
    offenders = []
    for path in sorted(_SRC.rglob("*.py")):
        if path == _SRC / "arrays.py":
            continue
        for line, what in sorted(_slow_set_calls(ast.parse(path.read_text()))):
            offenders.append(f"{path.relative_to(_SRC.parent)}:{line}: {what}")
    assert not offenders, "use repro.arrays instead:\n" + "\n".join(offenders)
