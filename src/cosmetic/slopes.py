"""Exact arithmetic with surgery slopes on a torus boundary.

A slope is an unoriented primitive class a*mu + b*lambda in H_1 of the
boundary torus, recorded as a coprime integer pair (a, b) up to overall
sign.  We fix the sign so that a > 0, with the rational longitude itself
written 0/1.  The meridian is 1/0.

Everything here is exact: coefficients are arbitrary-precision integers
and rational values are `fractions.Fraction`.  No floats anywhere.
"""

from collections import namedtuple
from fractions import Fraction
from math import gcd


def parse_rational(text):
    """Parse "n/d" (or a bare integer "n") into an exact rational."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def format_rational(x):
    """Render an exact rational as "n/d", denominator always shown."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


class Slope(namedtuple("Slope", "a b")):
    """A canonical slope a/b: gcd(a, b) = 1 and a > 0, or (a, b) = (0, 1).

    Construct through canonicalize_slope() or Slope.parse() unless the
    pair is already in canonical form; the constructor (and so
    `_replace`) rejects anything else, so canonical form is an invariant
    of the type.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, a, b):
        if a == 0 and b == 0:
            raise ValueError("0/0 is not a slope")
        if gcd(a, b) != 1:
            raise ValueError(f"slope {a}/{b} is not primitive")
        if a < 0 or (a == 0 and b < 0):
            raise ValueError(
                f"slope {a}/{b} is not sign-canonical; use canonicalize_slope"
            )
        return tuple.__new__(cls, (a, b))

    def __str__(self):
        return f"{self.a}/{self.b}"

    @classmethod
    def parse(cls, text):
        """Read "a/b" (or a bare integer "a", meaning a/1), canonicalizing."""
        text = text.strip()
        if "/" in text:
            a_str, b_str = text.split("/", 1)
            return canonicalize_slope(int(a_str), int(b_str))
        return canonicalize_slope(int(text), 1)


def canonicalize_slope(a, b):
    """Reduce an integer pair to the canonical representative of its slope.

    Divides out the gcd (so non-primitive input like (6, 4) is accepted
    and becomes 3/2) and normalizes the sign to a > 0, or to (0, 1) for
    the longitude.  (0, 0) is rejected.
    """
    if a == 0 and b == 0:
        raise ValueError("0/0 is not a slope")
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return Slope(a, b)


def slope_distance(r, s):
    """Geometric intersection number of two slopes: |a_r*b_s - b_r*a_s|.

    Symmetric, and zero exactly when the slopes coincide.  Invariant
    under any determinant +-1 change of basis of H_1 of the torus
    applied to both arguments.
    """
    return abs(r.a * s.b - r.b * s.a)


def reframe_slope(s, shift):
    """Rewrite the slope s in a framing shifted by the integer `shift`.

    The change of longitude lambda -> lambda + shift * mu sends a/b to
    (a + b*shift)/b, which is then canonicalized.  Applying shift f
    followed by -f is the identity.
    """
    return canonicalize_slope(s.a + s.b * shift, s.b)
