"""First homology of Dehn fillings, in two flavours.

For a one-cusped manifold M whose rational longitude is the slope 0/1,
the order of H_1 of the filling M(s) is a linear function of s:

    |H_1(M(s))| = c_M * Delta(s, 0/1)

for a constant c_M >= 1 depending only on M, with 0 meaning infinite H_1
(the filling along the rational longitude itself).  When a surgery
description uses a different framing, the slope is first rewritten by an
integer framing shift; solving for that shift from the order of one
known lens filling, and then propagating it to the other known fillings,
is how the two ambiguous census manifolds get excluded.

For surgery on a two-component link with framings a1/b1, a2/b2 and
linking number lk, the order of H_1 is the linking-matrix determinant

    |det [[a1, b2*lk], [b1*lk, a2]]| = |a1*a2 - b1*b2*lk^2|.

The lk = 0 case (Whitehead-style links) gives |a1*a2|, which is what the
determinant sweeps in the tests use.  The general-lk form follows the
same presentation-matrix recipe but only lk = 0 is exercised by the
shipped census.
"""

from collections import namedtuple

from .slopes import Slope, reframe_slope, slope_distance

RATIONAL_LONGITUDE = Slope(0, 1)


class WatsonData(namedtuple("WatsonData", "c_m shift")):
    """The linear model |H_1(M(s))| = c_m * Delta(s', 0/1), s' = s reframed.

    `shift` is the integer change of longitude that converts the slope
    from the framing the surgery description uses into the one where the
    rational longitude reads 0/1.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, c_m, shift):
        if c_m < 1:
            raise ValueError("the homology constant c_m must be >= 1")
        return tuple.__new__(cls, (c_m, shift))


class LinkSurgeryData(
        namedtuple("LinkSurgeryData", "framing1 framing2 linking_number")):
    """Framings a1/b1, a2/b2 on a two-component link with linking number lk."""

    __slots__ = ()


def h1_order_watson(data, s):
    """Order of H_1 of the filling along s; 0 means infinite.

    Reframes s, then returns c_m times the distance to the rational
    longitude, i.e. c_m * |numerator of the reframed slope|.
    """
    reframed = reframe_slope(s, data.shift)
    return data.c_m * slope_distance(reframed, RATIONAL_LONGITUDE)


def link_surgery_h1(data):
    """|H_1| of surgery on a two-component link: |a1*a2 - b1*b2*lk^2|.

    0 means infinite.  Symmetric in the two components, and equal to
    |a1*a2| whenever the linking number vanishes.
    """
    a1, b1 = data.framing1.a, data.framing1.b
    a2, b2 = data.framing2.a, data.framing2.b
    lk = data.linking_number
    return abs(a1 * a2 - b1 * b2 * lk * lk)


def solve_framing_shift(lens_order):
    """Integer shifts x with |x - 1| = lens_order, i.e. {order+1, 1-order}.

    If filling the slope -1/1 in the surgery framing produces a lens
    space of the given order, the shift x satisfies |(-1) + x| = order,
    so x is order + 1 or 1 - order; order 0 pins x = 1.
    """
    if lens_order < 0:
        raise ValueError("a homology order is a non-negative integer")
    return {lens_order + 1, 1 - lens_order}


def deduced_filling_orders(shift_candidates, s, c_m=1):
    """Possible |H_1(M(s))| over a set of candidate framing shifts."""
    return {
        h1_order_watson(WatsonData(c_m, x), s)
        for x in shift_candidates
    }
