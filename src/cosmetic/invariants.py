"""Casson invariants of lens spaces and of surgeries on knots.

The Casson invariant of a lens space is a Dedekind sum in disguise:

    lambda(L(p, q)) = -s(q, p) / 2.

For p/q surgery on a knot K in an integer homology sphere Y the surgery
formula gives

    lambda(Y_K(p/q)) = lambda(Y) + lambda(L(p, q)) + (q / 2p) * Delta''(1)

with Delta the symmetrized Alexander polynomial of K.  Two surgeries
p/q, p/q' on the same knot therefore produce equal Casson invariants iff

    s(q, p) - s(q', p) = ((q - q') / p) * Delta''(1),

and since a truly cosmetic pair also forces Delta''(1) = 0, the usable
obstruction is the clean equality s(q, p) = s(q', p).  That is
`cosmetic_dedekind_obstruction`.
"""

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .dedekind import dedekind_sum_fast, scaled_dedekind_sum, sum_text
from .obstructions import dedekind_verdict


_INTEGER = re.compile(r"[+-]?[0-9]+")


class LensSpace(namedtuple("LensSpace", "p q")):
    """L(p, q) with p >= 1, q reduced mod p into [1, p-1]; L(1, 0) is S^3.

    The constructor reduces q mod p itself, so LensSpace(7, 8) equals
    LensSpace(7, 1).  Non-coprime pairs are rejected.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, p, q):
        if p < 1:
            raise ValueError("lens space needs p >= 1")
        reduced = q % p if p > 1 else 0
        if p > 1 and gcd(reduced, p) != 1:
            raise ValueError(f"L({p}, {q}) needs gcd(p, q) = 1")
        return tuple.__new__(cls, (p, reduced))

    def __str__(self):
        return f"L({self.p},{self.q})"


class AlexanderPolynomial(namedtuple("AlexanderPolynomial", "coefficients")):
    """A symmetrized Alexander polynomial sum a_k t^k.

    Stored as a sorted tuple of (exponent, coefficient) pairs with zero
    coefficients dropped.  Valid input is symmetric (a_k = a_{-k}) and
    normalized up to the usual sign ambiguity: the value at t = 1 is +1
    or -1.  (The figure-eight polynomial t - 3 + t^{-1} has value -1;
    its negative has value +1; both describe the same knot.)
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, coefficients):
        terms = {}
        for k, a in coefficients:
            for value, what in ((k, "exponent"), (a, "coefficient")):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ValueError(f"Alexander polynomial {what} must be "
                                     f"an integer, not {value!r}")
            if a != 0:
                terms[k] = terms.get(k, 0) + a
        for k, a in terms.items():
            if terms.get(-k, 0) != a:
                raise ValueError(
                    f"Alexander polynomial must be symmetric; "
                    f"a_{k} = {a} but a_{-k} = {terms.get(-k, 0)}"
                )
        if abs(sum(terms.values())) != 1:
            raise ValueError(
                "Alexander polynomial must be normalized to value +-1 at t = 1"
            )
        return tuple.__new__(cls, (tuple(sorted(terms.items())),))

    @classmethod
    def from_coefficients(cls, mapping):
        """Build from a mapping exponent -> coefficient.  Exponents may be
        strings of integers, as JSON keys are; nothing else is converted."""
        return cls(tuple(
            (int(k) if isinstance(k, str) and _INTEGER.fullmatch(k) else k, a)
            for k, a in mapping.items()
        ))

    @classmethod
    def from_json(cls, text):
        """Read the JSON map form, e.g. '{"-1": 1, "0": -3, "1": 1}'."""
        import json
        try:
            mapping = json.loads(text)
        except RecursionError:
            raise ValueError("Alexander polynomial JSON is nested too "
                             "deeply") from None
        if not isinstance(mapping, dict):
            raise ValueError("Alexander polynomial must be a JSON object "
                             "mapping exponents to coefficients")
        return cls.from_coefficients(mapping)

    def as_dict(self):
        return {k: a for k, a in self.coefficients}


def casson_lens(lens):
    """lambda(L(p, q)) = -s(q, p)/2, exactly.  Zero for S^3 = L(1, 0)."""
    return -dedekind_sum_fast(lens.q, lens.p) / 2


def casson_surgery(lambda_y, delta2, slope):
    """Casson invariant of p/q surgery via the surgery formula.

    lambda_y is the Casson invariant of the ambient homology sphere,
    delta2 the second derivative of the knot's Alexander polynomial at 1,
    and slope the surgery coefficient p/q, which needs p >= 1.  Returns
    lambda(Y) + lambda(L(p, q)) + (q / 2p) * Delta''(1), all exact.
    """
    p, q = slope.a, slope.b
    if p < 1:
        raise ValueError("surgery slope must have p >= 1")
    return (
        Fraction(lambda_y)
        + casson_lens(LensSpace(p, q))
        + Fraction(q, 2 * p) * delta2
    )


def alexander_second_derivative_at_1(alexander):
    """Delta''(1) = sum_k k(k-1) a_k; always even by symmetry.

    Symmetry pairs the k and -k terms into 2 k^2 a_k, so the result is
    2 * sum_{k>0} k^2 a_k.
    """
    return sum(k * (k - 1) * a for k, a in alexander.coefficients)


def cosmetic_dedekind_obstruction(p, q, q_prime):
    """Casson obstruction for the pair p/q, p/q': does s(q, p) = s(q', p)?

    A truly cosmetic pair has Delta''(1) = 0, so the surgery formula
    reduces the equality of Casson invariants to equality of the two
    Dedekind sums, compared as integers over 12 p.  The witness records
    both values either way."""
    t_q, t_q_prime = scaled_dedekind_sum(q, p), scaled_dedekind_sum(q_prime, p)
    return dedekind_verdict(t_q, t_q_prime, sum_text(t_q, p),
                            sum_text(t_q_prime, p))
