"""Unit + property tests for the shared ring buffer."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ringbuffer import RingBuffer
from repro.errors import ConfigurationError
from repro.faults import injector as finj
from repro.faults.plan import FaultSite


def test_push_and_pop_fifo_order():
    rb = RingBuffer(8)
    rb.push([1, 2, 3])
    rb.push([4])
    assert list(rb.pop_all()) == [1, 2, 3, 4]
    assert len(rb) == 0


def test_peek_does_not_consume():
    rb = RingBuffer(4)
    rb.push([7, 8])
    assert list(rb.peek_all()) == [7, 8]
    assert list(rb.pop_all()) == [7, 8]


def test_wraparound():
    rb = RingBuffer(4)
    rb.push([1, 2, 3])
    rb.pop_all()
    rb.push([4, 5, 6])  # wraps around the end of the backing array
    assert list(rb.pop_all()) == [4, 5, 6]


def test_overflow_drops_oldest_and_counts():
    rb = RingBuffer(4)
    rb.push([1, 2, 3, 4])
    dropped = rb.push([5, 6])
    assert dropped == 2
    assert rb.total_dropped == 2
    assert list(rb.pop_all()) == [3, 4, 5, 6]


def test_push_larger_than_capacity_keeps_newest():
    rb = RingBuffer(4)
    rb.push([0])
    dropped = rb.push(np.arange(10))
    assert dropped == 7  # the pre-existing entry plus 6 overflowed new ones
    assert list(rb.pop_all()) == [6, 7, 8, 9]


def test_total_pushed_counts_everything():
    rb = RingBuffer(4)
    rb.push([1, 2])
    rb.push(np.arange(10))
    assert rb.total_pushed == 12


def test_zero_capacity_rejected():
    with pytest.raises(ConfigurationError):
        RingBuffer(0)


def test_empty_push_and_pop():
    rb = RingBuffer(4)
    assert rb.push([]) == 0
    assert rb.pop_all().size == 0


def test_clear():
    rb = RingBuffer(4)
    rb.push([1, 2, 3])
    rb.clear()
    assert len(rb) == 0
    assert rb.pop_all().size == 0


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=64),
    chunks=st.lists(
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=100),
        max_size=20,
    ),
)
def test_property_suffix_preserved(cap, chunks):
    """After any push sequence the buffer holds exactly the newest
    min(capacity, total) entries in order, and pushed == retained + dropped."""
    rb = RingBuffer(cap)
    reference: list[int] = []
    for chunk in chunks:
        rb.push(chunk)
        reference.extend(chunk)
    expected = reference[-cap:] if reference else []
    got = [int(x) for x in rb.peek_all()]
    assert got == expected[-len(got):] if got else expected == []
    assert got == reference[len(reference) - len(got):]
    assert rb.total_pushed == len(reference)
    assert rb.total_pushed == len(rb) + rb.total_dropped


class _ScriptedOverflow:
    """Stands in for the fault injector: each push's injected
    ``RING_OVERFLOW`` drop count comes from the test, not a RNG."""

    def __init__(self) -> None:
        self.next_drop = 0

    def drop_count(self, site: FaultSite, n: int) -> int:
        assert site is FaultSite.RING_OVERFLOW
        return min(self.next_drop, n)


_entry = st.integers(min_value=0, max_value=2**64 - 1)
_op = st.one_of(
    st.tuples(
        st.just("push"),
        st.lists(_entry, max_size=40),
        st.integers(min_value=0, max_value=8),
    ),
    st.tuples(st.just("pop"), st.none(), st.none()),
    st.tuples(st.just("peek"), st.none(), st.none()),
    st.tuples(st.just("clear"), st.none(), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(
    cap=st.integers(min_value=1, max_value=32),
    garbage=st.booleans(),
    ops=st.lists(_op, max_size=40),
)
def test_property_matches_deque_model(cap, garbage, ops):
    """The ring behaves as a ``deque(maxlen=cap)`` across wrap-around,
    organic overflow and injected drops of the oldest entries, whatever
    the backing memory held before the first push."""
    rb = RingBuffer(cap)
    if garbage:
        # The backing array is uninitialised: reads must never see it.
        rb._buf[:] = np.random.default_rng(cap).integers(
            0, 2**64 - 1, size=cap, dtype=np.uint64, endpoint=True
        )
    model: deque[int] = deque(maxlen=cap)
    pushed = dropped = 0
    fake = _ScriptedOverflow()
    prev = finj.activate(fake)
    try:
        for kind, chunk, inject in ops:
            if kind == "push":
                organic = max(0, len(model) + len(chunk) - cap)
                model.extend(chunk)
                # An empty push returns before the injection point.
                injected = min(inject, len(model)) if chunk else 0
                for _ in range(injected):
                    model.popleft()
                fake.next_drop = inject
                assert rb.push(chunk) == organic + injected
                pushed += len(chunk)
                dropped += organic + injected
            elif kind == "pop":
                assert rb.pop_all().tolist() == list(model)
                model.clear()
            elif kind == "peek":
                out = rb.peek_all()
                assert out.dtype == np.uint64
                assert out.tolist() == list(model)
            else:
                rb.clear()
                model.clear()
            assert len(rb) == len(model)
            assert rb.total_pushed == pushed
            assert rb.total_dropped == dropped
    finally:
        finj.activate(prev)
    assert rb.peek_all().tolist() == list(model)
