"""Tests for the EPT second-level translation and dirty-bit semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import unique_sorted
from repro.errors import ConfigurationError, InvalidAddressError
from repro.hw.ept import EPT_ACCESSED, EPT_DIRTY, Ept


def test_map_translate():
    ept = Ept(16)
    ept.map([0, 1, 2], [100, 101, 102])
    assert list(ept.translate([2, 0])) == [102, 100]


def test_translate_unmapped_raises():
    ept = Ept(4)
    with pytest.raises(InvalidAddressError):
        ept.translate([0])


def test_touch_sets_accessed_and_dirty():
    ept = Ept(8)
    ept.map([0, 1], [10, 11])
    newly = ept.touch(np.array([0, 1]), np.array([False, True]))
    assert list(newly) == [1]
    assert (ept.flags[0] & EPT_ACCESSED) != 0
    assert (ept.flags[0] & EPT_DIRTY) == 0
    assert (ept.flags[1] & EPT_DIRTY) != 0


def test_touch_only_logs_zero_to_one_transition():
    """PML's defining property: a page already dirty is not re-logged."""
    ept = Ept(8)
    ept.map([0], [10])
    first = ept.touch(np.array([0]), np.array([True]))
    second = ept.touch(np.array([0]), np.array([True]))
    assert list(first) == [0]
    assert list(second) == []


def test_touch_deduplicates_within_batch():
    ept = Ept(8)
    ept.map([3], [13])
    newly = ept.touch(np.array([3, 3, 3]), np.array([True, True, True]))
    assert list(newly) == [3]


def test_clear_dirty_rearms_logging():
    ept = Ept(8)
    ept.map([0, 1], [10, 11])
    ept.touch(np.array([0, 1]), np.array([True, True]))
    assert set(ept.dirty_gpfns()) == {0, 1}
    n = ept.clear_dirty([0])
    assert n == 1
    assert set(ept.dirty_gpfns()) == {1}
    # Re-armed page logs again on the next write.
    newly = ept.touch(np.array([0]), np.array([True]))
    assert list(newly) == [0]


def test_clear_dirty_all():
    ept = Ept(8)
    ept.map([0, 1, 2], [10, 11, 12])
    ept.touch(np.array([0, 1, 2]), np.array([True, True, False]))
    assert ept.clear_dirty() == 2
    assert ept.dirty_gpfns().size == 0


def test_out_of_range_gpfn():
    ept = Ept(4)
    with pytest.raises(InvalidAddressError):
        ept.map([4], [0])


def test_zero_frames_rejected():
    with pytest.raises(ConfigurationError):
        Ept(0)


def test_length_mismatch():
    ept = Ept(4)
    with pytest.raises(ValueError):
        ept.map([0, 1], [5])
    ept.map([0, 1], [5, 6])
    with pytest.raises(ValueError):
        ept.touch(np.array([0, 1]), np.array([True]))


def _touch_reference(ept, gpfns, writes):
    """``Ept.touch`` as it is specified: A on all, D on writes, and the
    0->1 D transitions deduplicated with ``unique_sorted``."""
    ept.flags[gpfns] |= EPT_ACCESSED
    written = gpfns[writes]
    newly = written[(ept.flags[written] & EPT_DIRTY) == 0]
    ept.flags[written] |= EPT_DIRTY
    return unique_sorted(newly).astype(np.int64)


def _run_touch_pair(gpfns, writes, dirty_before):
    n = 64
    got, want = Ept(n), Ept(n)
    for e in (got, want):
        e.map(np.arange(n), np.arange(100, 100 + n))
        e.flags[dirty_before] |= EPT_DIRTY
    out = got.touch(gpfns, writes)
    ref = _touch_reference(want, gpfns, writes)
    assert out.dtype == np.int64
    assert out.tolist() == ref.tolist()
    assert got.flags.tolist() == want.flags.tolist()
    return out


@pytest.mark.parametrize(
    "gpfns",
    [
        [],
        [5],
        [3, 4, 9, 20],  # ascending
        [20, 9, 4, 3],  # descending (LIFO frames under an ascending batch)
        [9, 3, 20, 4],  # mixed
        [4, 4, 9, 9, 3],  # duplicates
        [9, 9],
        [9, 4, 4],  # descending prefix, then a repeat
        [3, 9, 9],  # ascending prefix, then a repeat
    ],
)
@pytest.mark.parametrize("mask", ["all-write", "all-read", "alternate"])
def test_touch_matches_unique_sorted_reference(gpfns, mask):
    g = np.array(gpfns, dtype=np.int64)
    w = {
        "all-write": np.ones(g.size, dtype=bool),
        "all-read": np.zeros(g.size, dtype=bool),
        "alternate": np.arange(g.size) % 2 == 0,
    }[mask]
    out = _run_touch_pair(g, w, dirty_before=[4])
    assert (np.diff(out) > 0).all()


@settings(max_examples=200, deadline=None)
@given(
    gpfns=st.lists(st.integers(0, 63), max_size=40),
    order=st.sampled_from(["asis", "ascending", "descending"]),
    data=st.data(),
)
def test_touch_property_matches_reference(gpfns, order, data):
    """Any batch order — strict runs either way, repeats, shuffles —
    returns the sorted distinct 0->1 transitions and sets the same bits."""
    if order == "ascending":
        gpfns = sorted(set(gpfns))
    elif order == "descending":
        gpfns = sorted(set(gpfns), reverse=True)
    g = np.array(gpfns, dtype=np.int64)
    w = np.array(
        data.draw(st.lists(st.booleans(), min_size=g.size, max_size=g.size)),
        dtype=bool,
    )
    dirty_before = data.draw(st.lists(st.integers(0, 63), max_size=10))
    _run_touch_pair(g, w, dirty_before)


def test_touch_result_is_not_a_view_of_caller_data():
    ept = Ept(8)
    ept.map(np.arange(8), np.arange(10, 18))
    g = np.array([1, 2, 3], dtype=np.int64)
    out = ept.touch(g, np.ones(3, dtype=bool))
    g[:] = 0
    assert out.tolist() == [1, 2, 3]
