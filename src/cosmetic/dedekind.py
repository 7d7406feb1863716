"""Dedekind sums, computed two independent ways.

The Dedekind sum of a coprime pair (q, p), p != 0, is

    s(q, p) = sign(p) * sum_{k=1}^{|p|-1} ((k/p)) ((k q/p))

where ((x)) is the sawtooth: x - floor(x) - 1/2 for x not an integer,
and 0 at integers.

`direct_numerator` evaluates the defining sum in O(p) integer steps, as
4 p^2 s(q, p) = 4 sum_k k r_k - p^2 (|p| - 1) with r_k = kq mod |p|: the
oracle everything else is checked against (`dedekind_sum_direct` is s).
`dedekind_sum_fast` walks the Euclidean algorithm through the reciprocity
law (Rademacher-Grosswald; Knuth, TAOCP 3.3.3), which times 12 p q reads

    T(q, p) = 12 p s(q, p) = (p^2 + q^2 + 1 - 3 p q - p T(p mod q, q)) / q

for 0 < q < p coprime, with T(0, 1) = 0: O(log p) exact integer steps.
The two agree on every input (a test sweeps all coprime pairs up to p =
300).  `sawtooth` and `dedekind_sum_*` return exact Fractions, and import
`fractions` only when called; the two sum cores return plain integers.
"""

from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import mod, mul


def sawtooth(x):
    """The sawtooth ((x)): x - floor(x) - 1/2, but 0 at integers.

    Odd and 1-periodic.  Accepts anything Fraction accepts.
    """
    from fractions import Fraction
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


def _check_pair(q, p):
    if p == 0:
        raise ValueError("Dedekind sum s(q, p) needs p != 0")
    if gcd(q, p) != 1:
        raise ValueError(f"Dedekind sum s({q}, {p}) needs gcd(q, p) = 1")


def direct_numerator(q, p):
    """4 p^2 s(q, p), by the defining O(p) sum.  Reference implementation.

    With r_k = kq mod |p|, the k-th term is (2k - |p|)(2 r_k - |p|) / 4p^2
    for 0 < k < |p|.  As r_k runs over 1..|p|-1 once (q is a unit), the
    numerators add up to 4 sum k r_k - p^2 (|p| - 1), summed in C.
    """
    _check_pair(q, p)
    ap, q = abs(p), q % abs(p)  # q = 0 only for |p| = 1: an empty sum
    r = map(mod, range(q, q * ap, q or 1), repeat(ap))
    num = 4 * sum(map(mul, range(1, ap), r)) - ap * ap * (ap - 1)
    return num if p > 0 else -num


def dedekind_sum_direct(q, p):
    """s(q, p) = direct_numerator(q, p) / 4 p^2, a Fraction."""
    from fractions import Fraction
    return Fraction(direct_numerator(q, p), 4 * p * p)


@lru_cache(maxsize=4096)
def _fast_normalized(q, p):
    # T(q, p) for 0 <= q < p coprime: down the Euclidean chain to
    # T(0, 1) = 0, then back up it by the recurrence.
    chain = []
    while q:
        chain.append((q, p))
        p, q = q, p % q
    t = 0
    for q, p in reversed(chain):
        t = (p * p + q * q + 1 - 3 * p * q - p * t) // q
    return t


def scaled_dedekind_sum(q, p):
    """T(q, p) = 12 |p| s(q, p); s is periodic in q and odd in p."""
    _check_pair(q, p)
    t = _fast_normalized(q % abs(p), abs(p))
    return t if p > 0 else -t


def dedekind_sum_fast(q, p):
    """s(q, p) = T(q, p) / 12 |p|, by the O(log p) integer recurrence."""
    from fractions import Fraction
    return Fraction(scaled_dedekind_sum(q, p), 12 * abs(p))


def sum_text(t, p):
    """s = T / 12|p| for T = T(q, p), in lowest terms, written "n/d"."""
    g = gcd(t, 12 * abs(p))
    return f"{t // g}/{12 * abs(p) // g}"
