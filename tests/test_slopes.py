import random
from fractions import Fraction

import pytest

from cosmetic.slopes import (
    Slope,
    canonicalize_slope,
    format_rational,
    parse_rational,
    reframe_slope,
    slope_distance,
)


def test_canonical_examples():
    assert canonicalize_slope(-1, -2) == Slope(1, 2)
    assert canonicalize_slope(0, -3) == Slope(0, 1)
    assert canonicalize_slope(6, 4) == Slope(3, 2)
    assert canonicalize_slope(1, 0) == Slope(1, 0)
    assert canonicalize_slope(-5, 2) == Slope(5, -2)


def test_canonicalize_rejects_zero():
    with pytest.raises(ValueError):
        canonicalize_slope(0, 0)
    with pytest.raises(ValueError):
        Slope(0, 0)


def test_slope_type_enforces_canonical_form():
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(-1, 2)
    with pytest.raises(ValueError):
        Slope(0, -1)
    assert Slope(1, -5).b == -5  # a > 0, b may be negative


def test_canonicalize_idempotent():
    for a in range(-12, 13):
        for b in range(-12, 13):
            if (a, b) == (0, 0):
                continue
            s = canonicalize_slope(a, b)
            assert canonicalize_slope(s.a, s.b) == s


def test_parse_and_str_round_trip():
    for text in ("1/0", "0/1", "5/2", "3/-4", "7"):
        s = Slope.parse(text)
        assert Slope.parse(str(s)) == s
    assert Slope.parse("-5/4") == Slope(5, -4)
    assert Slope.parse("6/4") == Slope(3, 2)
    assert Slope.parse("7") == Slope(7, 1)
    assert str(Slope(0, 1)) == "0/1"


def test_distance_examples():
    assert slope_distance(Slope(1, 2), Slope(1, 3)) == 1
    assert slope_distance(Slope(5, 2), Slope(5, 3)) == 5
    assert slope_distance(Slope(2, 1), canonicalize_slope(-5, 2)) == 9
    assert slope_distance(Slope(1, 0), Slope(0, 1)) == 1


def test_distance_symmetric_and_definite():
    slopes = {
        canonicalize_slope(a, b)
        for a in range(-6, 7)
        for b in range(-6, 7)
        if (a, b) != (0, 0)
    }
    for r in slopes:
        for s in slopes:
            d = slope_distance(r, s)
            assert d == slope_distance(s, r)
            assert (d == 0) == (r == s)


def _random_unimodular(rng):
    while True:
        m = [rng.randint(-10, 10) for _ in range(4)]
        if abs(m[0] * m[3] - m[1] * m[2]) == 1:
            return m


def test_distance_invariant_under_basis_change():
    """Applying one determinant +-1 matrix to both slopes preserves distance."""
    rng = random.Random(20250811)
    slopes = [
        Slope(1, 0), Slope(0, 1), Slope(5, 2), Slope(5, 3),
        Slope(2, 1), Slope(7, -3), Slope(3, 8),
    ]
    for _ in range(200):
        m00, m01, m10, m11 = _random_unimodular(rng)
        for r in slopes:
            for s in slopes:
                r2 = canonicalize_slope(m00 * r.a + m01 * r.b,
                                        m10 * r.a + m11 * r.b)
                s2 = canonicalize_slope(m00 * s.a + m01 * s.b,
                                        m10 * s.a + m11 * s.b)
                assert slope_distance(r2, s2) == slope_distance(r, s)


def test_reframe_examples():
    assert reframe_slope(Slope(0, 1), 5) == Slope(5, 1)
    assert reframe_slope(canonicalize_slope(-1, 1), 5) == Slope(4, 1)
    for shift in (5, -3, 9, -7):
        got = reframe_slope(canonicalize_slope(-1, 1), shift)
        assert got == canonicalize_slope(shift - 1, 1)
    assert reframe_slope(Slope(5, 2), 0) == Slope(5, 2)


def test_reframe_round_trip():
    for a in range(-8, 9):
        for b in range(-8, 9):
            if (a, b) == (0, 0):
                continue
            s = canonicalize_slope(a, b)
            for f in range(-5, 6):
                assert reframe_slope(reframe_slope(s, f), -f) == s


def test_rational_formatting():
    assert format_rational(Fraction(-1, 14)) == "-1/14"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(0) == "0/1"
    assert parse_rational("5/15") == Fraction(1, 3)
    assert parse_rational("-2") == Fraction(-2)


def test_replace_cannot_build_an_invalid_slope():
    slope = Slope(3, 2)
    assert slope._replace(b=1) == Slope(3, 1)
    for fields in ({"b": 3}, {"a": -3}, {"a": 0, "b": 0}):
        with pytest.raises(ValueError):
            slope._replace(**fields)
