"""Tests for the paper-derived calibration data and size curves."""

import numpy as np
import pytest

from repro.core import calibration
from repro.core.calibration import (
    PAGES_PER_MB,
    SizeCurve,
    mb_to_pages,
    size_curves,
)
from repro.errors import ConfigurationError


def test_pages_per_mb():
    assert PAGES_PER_MB == 256
    assert mb_to_pages(1) == 256
    assert mb_to_pages(1024) == 262144


def test_all_table_vb_metrics_have_seven_points():
    for name, vals in calibration.TABLE_VB_MS.items():
        assert len(vals) == len(calibration.TABLE_VB_SIZES_MB), name


def test_curves_match_published_points_exactly():
    curves = size_curves()
    # M16 at 1 GB is 594.187 ms (paper Table Vb)
    got = curves["m16_pt_walk_user"].total(mb_to_pages(1024))
    assert got == pytest.approx(594.187 * 1000.0)
    # M17 at 250 MB is 1211 ms
    got = curves["m17_reverse_map"].total(mb_to_pages(250))
    assert got == pytest.approx(1211.0 * 1000.0)


def test_curve_interpolates_between_points():
    curves = size_curves()
    c = curves["m5_pf_kernel"]
    lo = c.total(mb_to_pages(500))
    hi = c.total(mb_to_pages(1024))
    mid = c.total(mb_to_pages(700))
    assert lo < mid < hi


def test_curve_extrapolates_below_range_proportionally():
    c = size_curves()["m6_pf_user"]
    half = c.total(mb_to_pages(1) // 2)
    full = c.total(mb_to_pages(1))
    assert half == pytest.approx(full / 2)


def test_curve_extrapolates_above_range_with_last_slope():
    c = size_curves()["m16_pt_walk_user"]
    at_1g = c.total(mb_to_pages(1024))
    at_2g = c.total(mb_to_pages(2048))
    slope = (c.total_us[-1] - c.total_us[-2]) / (c.pages[-1] - c.pages[-2])
    expected = at_1g + slope * (mb_to_pages(2048) - mb_to_pages(1024))
    assert at_2g == pytest.approx(expected)


def test_curve_vectorised_evaluation():
    c = size_curves()["m15_clear_refs"]
    xs = np.array([mb_to_pages(1), mb_to_pages(10), mb_to_pages(1024)])
    out = c.total(xs)
    assert isinstance(out, np.ndarray)
    assert out[0] == pytest.approx(32.0)  # 0.032 ms in us
    assert out[2] == pytest.approx(2234.0)


def test_unit_cost_divides_total():
    c = size_curves()["m18_rb_copy"]
    n = mb_to_pages(100)
    assert c.unit(n) == pytest.approx(float(c.total(n)) / n)
    assert c.unit(0) == 0.0


def test_reverse_map_is_superlinear():
    """The paper's M17 grows super-linearly (pagemap scan per address)."""
    c = size_curves()["m17_reverse_map"]
    assert c.unit(mb_to_pages(1024)) > 2 * c.unit(mb_to_pages(1))


def test_size_curve_validation():
    with pytest.raises(ConfigurationError):
        SizeCurve("bad", np.array([1.0]), np.array([1.0]))
    with pytest.raises(ConfigurationError):
        SizeCurve("bad", np.array([2.0, 1.0]), np.array([1.0, 2.0]))


def test_table_va_values():
    assert calibration.TABLE_VA_US["m1_context_switch"] == pytest.approx(0.315)
    assert calibration.TABLE_VA_US["m7_vmread"] == pytest.approx(0.936)
    assert calibration.TABLE_VA_US["m8_vmwrite"] == pytest.approx(0.801)
    assert calibration.PML_BUFFER_ENTRIES == 512


def _curve_points(c: SizeCurve) -> list[int]:
    """Page counts below, at, between and above the measured points."""
    lo, hi = int(c.pages[0]), int(c.pages[-1])
    pts = [0, 1, lo // 2, lo - 1, hi + 1, 2 * hi, 10 * hi + 7]
    for a, b in zip(c.pages[:-1], c.pages[1:]):
        pts += [int(a), (int(a) + int(b)) // 2, int(b) - 1]
    return pts + [hi]


@pytest.mark.parametrize("name", sorted(calibration.TABLE_VB_MS))
def test_total_memo_is_bit_equal_to_uncached(name):
    """An int page count returns exactly the uncached float, on the first
    call (which fills the memo) and on every repeat (which reads it)."""
    c = size_curves()[name]
    for n in _curve_points(c):
        want = c._total(n)
        assert type(want) is float
        first = c.total(n)
        again = c.total(n)
        assert type(first) is float and type(again) is float
        assert first == want and again == want, n
        assert c.unit(n) == (want / n if n > 0 else 0.0)


@pytest.mark.parametrize("name", sorted(calibration.TABLE_VB_MS))
def test_total_memo_skips_numpy_inputs(name):
    c = size_curves()[name]
    n = int(c.pages[2]) + 3
    scalar = c.total(np.int64(n))
    assert scalar == c._total(n)
    out = c.total(np.array([n, 2 * n]))
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [c._total(n), c._total(2 * n)]
    assert c._memo == {}
    c.total(n)
    assert list(c._memo) == [n]


def test_memo_is_per_curve_and_out_of_repr():
    a, b = size_curves()["m5_pf_kernel"], size_curves()["m5_pf_kernel"]
    a.total(1000)
    assert "_memo" not in repr(a)
    assert a._memo and not b._memo
