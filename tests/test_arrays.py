"""Tests for the sort-based set primitives in ``repro.arrays``, plus a
guard that keeps numpy's slow set paths out of ``src/repro``."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arrays import add_counts, unique_sorted

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
