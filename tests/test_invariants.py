import json
import random
from fractions import Fraction
from math import gcd

import pytest

from cosmetic.dedekind import dedekind_sum_fast
from cosmetic.invariants import (
    AlexanderPolynomial,
    LensSpace,
    alexander_second_derivative_at_1,
    casson_lens,
    casson_surgery,
    cosmetic_dedekind_obstruction,
)
from cosmetic.obstructions import reason
from cosmetic.slopes import Slope, canonicalize_slope


def test_lens_space_normalizes_q():
    assert LensSpace(7, 8) == LensSpace(7, 1)
    assert LensSpace(5, -2) == LensSpace(5, 3)
    assert LensSpace(1, 17) == LensSpace(1, 0)
    with pytest.raises(ValueError):
        LensSpace(4, 2)
    with pytest.raises(ValueError):
        LensSpace(0, 1)


def test_casson_lens_values():
    assert casson_lens(LensSpace(1, 0)) == 0
    assert casson_lens(LensSpace(7, 1)) == Fraction(-5, 28)
    assert casson_lens(LensSpace(5, 2)) == 0
    assert casson_lens(LensSpace(5, 3)) == 0


def test_casson_lens_is_half_dedekind_sum():
    for p in range(1, 101):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            assert casson_lens(LensSpace(p, q)) == -dedekind_sum_fast(q, p) / 2
            # and only the residue of q matters
            assert casson_lens(LensSpace(p, q + 3 * p)) == casson_lens(LensSpace(p, q))


def test_casson_surgery_examples():
    assert casson_surgery(Fraction(0), 2, Slope(1, 1)) == 1
    for q in range(1, 11):
        assert casson_surgery(Fraction(0), 2, canonicalize_slope(1, q)) == q
    assert casson_surgery(Fraction(0), 2, canonicalize_slope(1, -3)) == -3
    shifted = casson_surgery(Fraction(3, 7), 0, Slope(5, 2))
    assert shifted == Fraction(3, 7) + casson_lens(LensSpace(5, 2))


def test_casson_surgery_blind_to_surviving_pairs():
    """With vanishing second derivative, 5/q and 5/(q+1) surgeries agree
    whenever q = 2 (mod 5): both lens corrections are zero."""
    lam = Fraction(-2, 3)
    for q in range(2, 100, 5):
        a = casson_surgery(lam, 0, canonicalize_slope(5, q))
        b = casson_surgery(lam, 0, canonicalize_slope(5, q + 1))
        assert a == b == lam


def test_surgery_input_validation():
    with pytest.raises(ValueError):
        casson_surgery(Fraction(0), 0, Slope(0, 1))


def test_alexander_examples():
    unknot = AlexanderPolynomial.from_coefficients({0: 1})
    assert alexander_second_derivative_at_1(unknot) == 0
    trefoil = AlexanderPolynomial.from_json('{"-1": 1, "0": -1, "1": 1}')
    assert alexander_second_derivative_at_1(trefoil) == 2
    figure_eight = AlexanderPolynomial.from_json('{"-1": 1, "0": -3, "1": 1}')
    assert alexander_second_derivative_at_1(figure_eight) == 2


def test_alexander_round_trip():
    poly = AlexanderPolynomial.from_coefficients({-2: 1, -1: -3, 0: 5, 1: -3, 2: 1})
    text = json.dumps({str(k): v for k, v in poly.as_dict().items()})
    assert AlexanderPolynomial.from_json(text) == poly
    assert alexander_second_derivative_at_1(poly) == 2 * (4 * 1 - 3)


def test_alexander_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        AlexanderPolynomial.from_coefficients({0: -3, 1: 1})
    with pytest.raises(ValueError):
        AlexanderPolynomial.from_coefficients({-1: 1, 0: 1, 1: 1})


def test_alexander_second_derivative_always_even():
    rng = random.Random(97)
    for _ in range(300):
        degree = rng.randint(1, 6)
        upper = {k: rng.randint(-4, 4) for k in range(1, degree + 1)}
        coeffs = dict(upper)
        coeffs.update({-k: a for k, a in upper.items()})
        total = sum(coeffs.values())
        coeffs[0] = (1 if rng.random() < 0.5 else -1) - total
        poly = AlexanderPolynomial.from_coefficients(coeffs)
        d2 = alexander_second_derivative_at_1(poly)
        assert d2 % 2 == 0
        assert d2 == 2 * sum(k * k * a for k, a in upper.items())


def test_dedekind_obstruction_verdicts():
    passing = cosmetic_dedekind_obstruction(5, 2, 3)
    assert passing.passed
    assert passing.witness == {"s_q": "0/1", "s_q_prime": "0/1"}
    failing = cosmetic_dedekind_obstruction(7, 5, 6)
    assert not failing.passed
    assert failing.witness == {"s_q": "-1/14", "s_q_prime": "-5/14"}
    assert reason(7, 5, 6, failing) == "s(5, 7) = -1/14 but s(6, 7) = -5/14"
    trivial = cosmetic_dedekind_obstruction(1, 4, 9)
    assert trivial.passed


def test_dedekind_obstruction_symmetric():
    for p in range(1, 31):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            for q2 in range(q, q + 9):
                if gcd(q2, p) != 1:
                    continue
                a = cosmetic_dedekind_obstruction(p, q, q2)
                b = cosmetic_dedekind_obstruction(p, q2, q)
                assert a.passed == b.passed


def test_replace_cannot_build_an_invalid_lens_space():
    lens = LensSpace(7, 1)
    assert lens._replace(q=8) == LensSpace(7, 1)  # reduced mod p again
    with pytest.raises(ValueError):
        lens._replace(q=14)
    with pytest.raises(ValueError):
        lens._replace(p=0)


def test_replace_cannot_build_an_invalid_alexander_polynomial():
    poly = AlexanderPolynomial.from_coefficients({-1: 1, 0: -1, 1: 1})
    assert poly._replace(coefficients=((1, 1), (0, -1), (-1, 1))) == poly
    for coefficients in (((1, 1), (0, -1)), ((0, 2),), ((0, True),)):
        with pytest.raises(ValueError):
            poly._replace(coefficients=coefficients)
