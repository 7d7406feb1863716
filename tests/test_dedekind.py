from fractions import Fraction
from math import gcd

import pytest

from cosmetic.dedekind import (
    _fast_normalized,
    dedekind_sum_direct,
    dedekind_sum_fast,
    sawtooth,
    scaled_dedekind_sum,
)


def test_sawtooth_values():
    assert sawtooth(5) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)
    assert sawtooth(Fraction(7, 3)) == Fraction(-1, 6)


def test_sawtooth_odd_and_periodic():
    for den in range(1, 13):
        for num in range(-30, 31):
            x = Fraction(num, den)
            assert sawtooth(-x) == -sawtooth(x)
            assert sawtooth(x + 1) == sawtooth(x)


def test_direct_matches_sawtooth_definition():
    """The integer-arithmetic form is literally the defining sum
    sign(p) * sum_{0<k<|p|} ((k/p)) ((kq/p)), for p of either sign and q
    in every residue class, from -|p|/2 up."""
    for p in [*range(-60, 0), *range(1, 61)]:
        for q in range(-(abs(p) // 2), abs(p) - abs(p) // 2):
            if gcd(q, p) != 1:
                continue
            naive = sum(
                (sawtooth(Fraction(k, p)) * sawtooth(Fraction(k * q, p))
                 for k in range(1, abs(p))),
                Fraction(0),
            )
            assert dedekind_sum_direct(q, p) == (naive if p > 0 else -naive)


def test_golden_values_mod_7():
    assert dedekind_sum_direct(5, 7) == Fraction(-1, 14)
    assert dedekind_sum_direct(6, 7) == Fraction(-5, 14)
    assert dedekind_sum_direct(1, 7) == Fraction(5, 14)
    assert dedekind_sum_direct(2, 7) == Fraction(1, 14)


def test_small_and_closed_form_values():
    assert dedekind_sum_direct(0, 1) == 0
    assert dedekind_sum_direct(1, 1) == 0
    assert dedekind_sum_direct(1, 2) == 0
    assert dedekind_sum_direct(2, 5) == 0
    assert dedekind_sum_direct(3, 5) == 0
    # s(1, p) = (p - 1)(p - 2) / 12p, an independent closed form
    for p in range(1, 40):
        assert dedekind_sum_direct(1, p) == Fraction((p - 1) * (p - 2), 12 * p)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        dedekind_sum_direct(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum_fast(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum_fast(1, 0)


def test_fast_equals_direct_small():
    for p in range(1, 61):
        for q in range(-p, 2 * p):
            if gcd(q, p) != 1:
                continue
            assert dedekind_sum_fast(q, p) == dedekind_sum_direct(q, p)


def test_odd_in_p():
    for p in range(2, 40):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            assert dedekind_sum_fast(q, -p) == -dedekind_sum_fast(q, p)
            assert dedekind_sum_direct(q, -p) == -dedekind_sum_direct(q, p)


def test_periodic_in_q():
    for p in range(1, 201):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            s = dedekind_sum_fast(q, p)
            assert dedekind_sum_fast(q + p, p) == s
            assert dedekind_sum_fast(q - 3 * p, p) == s


def test_odd_in_q():
    for p in range(1, 201):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            assert dedekind_sum_fast(-q, p) == -dedekind_sum_fast(q, p)


def test_reciprocity():
    for p in range(1, 81):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            lhs = dedekind_sum_fast(q, p) + dedekind_sum_fast(p, q)
            rhs = Fraction(-1, 4) + (
                Fraction(p, q) + Fraction(q, p) + Fraction(1, p * q)
            ) / 12
            assert lhs == rhs


def test_integer_walk_is_twelve_p_times_the_direct_sum():
    # T(q, p) = 12 p s(q, p) for every coprime 0 <= q < p < 300, walked
    # without the cache; T(0, 1) = 0.
    walk = _fast_normalized.__wrapped__
    assert walk(0, 1) == 0
    for p in range(2, 300):
        for q in range(1, p):
            if gcd(q, p) == 1:
                assert walk(q, p) == 12 * p * dedekind_sum_direct(q, p)


def test_equal_sums_satisfy_the_jabuka_robins_wang_congruence():
    # s(q, p) = s(q', p) implies p | (q - q')(q q' - 1) (Jabuka-Robins-Wang,
    # Int. J. Number Theory 7, 2011).  The converse fails, so this is a
    # test of the sums and never a filter.
    pairs = 0
    for p in range(1, 300):
        residues_by_sum = {}
        for q in range(p):
            if gcd(q, p) == 1:
                residues_by_sum.setdefault(scaled_dedekind_sum(q, p),
                                           []).append(q)
        for qs in residues_by_sum.values():
            for i, q in enumerate(qs):
                for q_prime in qs[i + 1:]:
                    assert (q - q_prime) * (q * q_prime - 1) % p == 0
                    pairs += 1
    assert pairs == 16387
