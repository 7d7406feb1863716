import random
from math import gcd

import pytest

from cosmetic.homology import (
    RATIONAL_LONGITUDE,
    LinkSurgeryData,
    WatsonData,
    deduced_filling_orders,
    h1_order_watson,
    link_surgery_h1,
    solve_framing_shift,
)
from cosmetic.slopes import Slope, canonicalize_slope


def test_watson_examples():
    assert RATIONAL_LONGITUDE == Slope(0, 1)
    assert h1_order_watson(WatsonData(2, 0), Slope(3, 1)) == 6
    assert h1_order_watson(WatsonData(1, 0), Slope(0, 1)) == 0
    assert h1_order_watson(WatsonData(1, 0), Slope(5, 2)) == 5


def test_watson_shift_moves_the_longitude():
    """Filling -1/1 after a framing change by n gives |H_1| = |n - 1|."""
    minus_one = canonicalize_slope(-1, 1)
    for shift in (-7, -3, 0, 1, 2, 5, 9):
        got = h1_order_watson(WatsonData(1, shift), minus_one)
        assert got == abs(shift - 1)


def test_watson_data_validation():
    with pytest.raises(ValueError):
        WatsonData(0, 0)
    assert WatsonData(3, 4).shift == 4


def _random_slope(rng):
    while True:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        if (a, b) != (0, 0) and gcd(a, b) == 1:
            return canonicalize_slope(a, b)


def test_link_surgery_examples():
    assert link_surgery_h1(LinkSurgeryData(Slope(1, 1), Slope(1, 1), 0)) == 1
    assert link_surgery_h1(LinkSurgeryData(Slope(2, 1), Slope(7, 3), 0)) == 14
    assert link_surgery_h1(LinkSurgeryData(Slope(1, 1), Slope(1, 1), 1)) == 0
    assert link_surgery_h1(LinkSurgeryData(Slope(2, 1), Slope(3, 1), 1)) == 5


def test_link_surgery_symmetric_and_splits_when_unlinked():
    rng = random.Random(11)
    for _ in range(300):
        s1, s2 = _random_slope(rng), _random_slope(rng)
        lk = rng.randint(-5, 5)
        assert link_surgery_h1(LinkSurgeryData(s1, s2, lk)) == \
            link_surgery_h1(LinkSurgeryData(s2, s1, lk))
        assert link_surgery_h1(LinkSurgeryData(s1, s2, 0)) == abs(s1.a * s2.a)


def test_whitehead_determinant_sweeps():
    """One component pinned, the other swept: |H_1| is linear in the numerator."""
    for a in range(-20, 21):
        for b in range(1, 6):
            if gcd(a, b) != 1:
                continue
            moving = canonicalize_slope(a, b)
            pinned_two = LinkSurgeryData(Slope(2, 1), moving, 0)
            assert link_surgery_h1(pinned_two) == 2 * abs(a)
            pinned_five = LinkSurgeryData(canonicalize_slope(-5, 2), moving, 0)
            assert link_surgery_h1(pinned_five) == 5 * abs(a)


def test_solve_framing_shift():
    assert solve_framing_shift(4) == {5, -3}
    assert solve_framing_shift(8) == {9, -7}
    assert solve_framing_shift(0) == {1}
    assert solve_framing_shift(1) == {2, 0}
    with pytest.raises(ValueError):
        solve_framing_shift(-1)


def test_deduced_orders_for_ambiguous_framings():
    zero = Slope(0, 1)
    assert deduced_filling_orders(solve_framing_shift(4), zero) == {3, 5}
    assert deduced_filling_orders(solve_framing_shift(4), canonicalize_slope(-5, 4)) == {15, 17}
    assert deduced_filling_orders(solve_framing_shift(8), zero) == {7, 9}
    assert deduced_filling_orders(solve_framing_shift(8), canonicalize_slope(-4, 3)) == {23, 25}


def test_deduced_orders_disjoint_across_shift_sets():
    slopes = [Slope(0, 1), canonicalize_slope(-5, 4), canonicalize_slope(-4, 3)]
    for s in slopes:
        from_four = deduced_filling_orders({5, -3}, s)
        from_eight = deduced_filling_orders({9, -7}, s)
        assert not (from_four & from_eight)


def test_replace_cannot_build_invalid_watson_data():
    data = WatsonData(2, 0)
    assert data._replace(shift=3) == WatsonData(2, 3)
    with pytest.raises(ValueError):
        data._replace(c_m=0)
