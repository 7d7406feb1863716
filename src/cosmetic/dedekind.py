"""Dedekind sums, computed two independent ways.

The Dedekind sum of a coprime pair (q, p), p != 0, is

    s(q, p) = sign(p) * sum_{k=1}^{|p|-1} ((k/p)) ((k q/p))

where ((x)) is the sawtooth: x - floor(x) - 1/2 for x not an integer,
and 0 at integers.

`dedekind_sum_direct` evaluates the defining sum term by term in O(p)
integer arithmetic and is the oracle everything else is checked against.
`dedekind_sum_fast` runs the Euclidean algorithm through the reciprocity
law and takes O(log p) exact rational operations.  The two must agree on
every input; a test sweeps the full coprime range up to p = 300.

Sums are exact `fractions.Fraction` values throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


def sawtooth(x):
    """The sawtooth ((x)): x - floor(x) - 1/2, but 0 at integers.

    Odd and 1-periodic.  Accepts anything Fraction accepts.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def _check_pair(q, p):
    if p == 0:
        raise ValueError("Dedekind sum s(q, p) needs p != 0")
    if gcd(q, p) != 1:
        raise ValueError(f"Dedekind sum s({q}, {p}) needs gcd(q, p) = 1")


def dedekind_sum_direct(q, p):
    """The defining O(p) sum.  Reference implementation.

    For 0 < k < |p| with p not dividing k*q, the k-th term is

        ((k/|p|)) ((kq/|p|)) = (2k - |p|) (2(kq mod |p|) - |p|) / (4 p^2),

    so the whole sum is accumulated as one integer over the common
    denominator 4 p^2.  That keeps this the literal direct sum while
    staying fast enough to sweep tens of thousands of pairs in tests.
    """
    _check_pair(q, p)
    ap = abs(p)
    num = 0
    for k in range(1, ap):
        r = (k * q) % ap
        if r == 0:
            continue
        num += (2 * k - ap) * (2 * r - ap)
    sign = 1 if p > 0 else -1
    return sign * Fraction(num, 4 * p * p)


@lru_cache(maxsize=4096)
def _fast_normalized(q, p):
    # s(q, p) for 0 <= q < p, gcd(q, p) = 1, via reciprocity:
    #   s(q, p) + s(p, q) = -1/4 + (p/q + q/p + 1/(pq)) / 12
    # together with s(p, q) = s(p mod q, q).  One Euclidean step per loop.
    total = Fraction(0)
    sign = 1
    while q > 0:
        total += sign * (Fraction(p * p + q * q + 1, 12 * p * q) - Fraction(1, 4))
        p, q, sign = q, p % q, -sign
    return total


def dedekind_sum_fast(q, p):
    """s(q, p) in O(log p) exact steps via the reciprocity law.

    Reduces q mod |p| first (the sum is periodic in q) and pulls the
    sign of p out front (s is odd in the p slot under p -> -p).  Agrees
    with dedekind_sum_direct everywhere.
    """
    _check_pair(q, p)
    ap = abs(p)
    sign = 1 if p > 0 else -1
    return sign * _fast_normalized(q % ap, ap)
