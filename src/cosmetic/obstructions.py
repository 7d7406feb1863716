"""Residue-class obstructions to a truly cosmetic exceptional pair.

A candidate pair of surgeries p/q and p/q' (same p, q' > q) on a knot in
an integer homology sphere has to clear several independent arithmetic
filters before it can be truly cosmetic:

* parity: both slopes must actually be slopes, gcd(q, p) = gcd(q', p) = 1;
* linking congruence: the lens-type linking forms of the filled manifolds
  agree only if q = q' * u^2 (mod p) for some unit u;
* Dedekind equality: equal Casson invariants force s(q, p) = s(q', p)
  (see invariants.cosmetic_dedekind_obstruction);
* distance cap: each exceptional geometry bounds the intersection number
  p * |q - q'| of the two slopes.

Each filter reports an ObstructionVerdict carrying the numbers that
replay the conclusion by hand; `reason` renders a failing one as text.
"""

from collections import namedtuple
from collections.abc import Mapping
from enum import Enum
from functools import lru_cache
from math import gcd


class GeometryClass(Enum):
    """The exceptional (non-hyperbolic) geometries a filling can have, in
    the order of the classification's cases: the four numbered ones, then
    finite fundamental group, which ends up empty."""

    REDUCIBLE = "reducible"
    SEIFERT_TOROIDAL = "seifert_toroidal"
    SMALL_SEIFERT_INFINITE = "small_seifert_infinite"
    TOROIDAL_IRREDUCIBLE_NON_SEIFERT = "toroidal_irreducible_non_seifert"
    FINITE_PI1 = "finite_pi1"


# Canonical filter order for verdict trails and report columns.  Parity
# always runs; the other three can be switched off in bulk sweeps.
FILTER_ORDER = ("distance", "parity", "congruence", "dedekind")
SELECTABLE_FILTERS = ("distance", "congruence", "dedekind")


def _normalize_filters(filters):
    if filters == "all" or filters is None:
        return SELECTABLE_FILTERS
    filters = set(filters)
    unknown = sorted(filters - set(FILTER_ORDER))
    if unknown:
        raise ValueError(
            f"unknown filter {unknown[0]!r}; choose from "
            f"{', '.join(SELECTABLE_FILTERS)} (parity always runs)"
        )
    return tuple(name for name in SELECTABLE_FILTERS if name in filters)


# Largest slope distance any exceptional filling allows; p * gap beyond
# this cannot be truly cosmetic.
EXCEPTIONAL_DISTANCE_BOUND = 8

# The classification's cases, in GeometryClass order: the largest slope
# distance a truly cosmetic pair can realize in each, and its title.
# Reducible and Seifert-with-essential-torus fillings force distance 1;
# a toroidal irreducible non-Seifert filling forces distance at most 3,
# as does finite fundamental group.
CASES = {
    GeometryClass.REDUCIBLE: (1, "reducible filling"),
    GeometryClass.SEIFERT_TOROIDAL: (1, "toroidal Seifert fibred filling"),
    GeometryClass.SMALL_SEIFERT_INFINITE: (
        EXCEPTIONAL_DISTANCE_BOUND,
        "small Seifert fibred filling with infinite fundamental group"),
    GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT: (
        3, "toroidal irreducible non-Seifert filling"),
    GeometryClass.FINITE_PI1: (3, "finite fundamental group"),
}


def distance_cap(geometry):
    """Largest Delta(p/q, p/q') a truly cosmetic pair with this geometry allows."""
    return CASES[geometry][0]


_new = tuple.__new__  # skips the checks of __new__ for the filters' own values


class Witness(Mapping, tuple):
    """A verdict's witness, which the pairs of a residue class share: a
    read-only mapping of numbers in a tuple, one subclass per shape (its
    keys).  Witness(...) takes dict's arguments and picks the shape."""

    __slots__ = ()
    __hash__, __len__, __ne__ = None, tuple.__len__, object.__ne__  # a dict's
    __class__ = property(type)  # no assignment gives it another shape

    def __new__(cls, *args, **kwargs):
        fields = dict(*args, **kwargs)
        shape = _SHAPES[frozenset(fields)]  # a KeyError: no such shape
        return _new(shape, map(fields.get, shape._keys))

    __getitem__ = lambda self, key: getattr(self, self._keys[key])
    __iter__ = lambda self: iter(self._keys)
    _asdict = lambda self: dict(zip(self._keys, tuple.__iter__(self)))
    __eq__ = lambda self, other: self._asdict() == other
    __repr__ = lambda self: repr(self._asdict())
    __reduce__ = lambda self: (Witness, (self._asdict(),))  # pickle, copy


def _shape(name, keys):
    # The Witness with these keys, read by their namedtuple's C getters.
    row = namedtuple(name, keys)  # held: collecting it would empty vars(row)
    return type(Witness)(name, (Witness,), {
        "__slots__": (), "__module__": __name__,
        "_keys": dict(zip(keys, keys)),  # a KeyError for any other key
        **{key: getattr(row, key) for key in keys}})


_SHAPES = {frozenset(keys): _shape(name, keys) for name, keys in (
    ("DeltaWitness", ("delta",)), ("UnitWitness", ("unit",)),
    ("UnitSquaresWitness", ("unit_squares",)),
    ("DedekindWitness", ("s_q", "s_q_prime")), ("EmptyWitness", ()))}
(DeltaWitness, UnitWitness, UnitSquaresWitness, DedekindWitness,
 EmptyWitness) = _SHAPES.values()


class ObstructionVerdict(
        namedtuple("ObstructionVerdict", "filter_name passed witness")):
    """Outcome of one filter on one candidate pair.

    `witness` (a Witness of its filter's shape, from the filters) holds the
    numbers that replay the outcome: the slope distance, the two Dedekind
    sums, the unit squares of a failing congruence, the unit u with
    q = q' * u^2 (mod p) of a passing one.  A failing verdict always
    carries one (a failing parity's is empty); `reason` renders its text.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, filter_name, passed, witness=None):
        if not passed and witness is None:
            raise ValueError("a failing verdict must carry a witness")
        return tuple.__new__(cls, (filter_name, passed, witness))


# Sweeps visit p in sorted order, so a few entries suffice and memory
# depends on p, not on how many moduli a sweep holds.
@lru_cache(maxsize=32)
def _unit_squares(p):
    # {u^2 mod p: the smallest unit u with that square}, the squares in
    # ascending order, by one O(p) scan, and the failing congruence
    # verdict of p, whose witness holds the squares.  Every caller shares
    # all three and only reads the dict; no caller can edit the others.
    roots = {0: 0} if p == 1 else {}
    for u in range(1, p):
        if gcd(u, p) == 1:
            roots.setdefault(u * u % p, u)
    squares = tuple(sorted(roots))
    return roots, squares, _new(ObstructionVerdict, (
        "congruence", False, _new(UnitSquaresWitness, (squares,))))


def unit_squares_mod(p):
    """The set {u^2 mod p : u a unit mod p}; {0} when p = 1.

    A subgroup of the unit group, of index at most 2; for an odd prime p
    it has exactly (p - 1)/2 elements.
    """
    if p < 1:
        raise ValueError("modulus must be a positive integer")
    return set(_unit_squares(p)[1])


def _check_pair(p, q, q_prime):
    # Integers only, as in the sweeps: a bool or a float is refused.
    for name, value in (("p", p), ("q", q), ("q'", q_prime)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
    if p < 1:
        raise ValueError("p must be a positive integer")


def linking_congruence(p, q, q_prime):
    """Do the linking forms of p/q and p/q' surgery agree?

    The filled manifolds carry linking forms of lens type, and an
    orientation-preserving homeomorphism forces q = q' * u^2 (mod p) for
    some unit u; that unit is returned as the witness.  Swapping q and
    q' gives the inverse unit as witness.  Everything passes for p = 1
    (witness unit 0, the residue of any integer mod 1).

    Both q and q' must be coprime to p.
    """
    _check_pair(p, q, q_prime)
    if gcd(q, p) != 1 or gcd(q_prime, p) != 1:
        raise ValueError("linking congruence needs gcd(q, p) = gcd(q', p) = 1")
    return congruence_verdict(p, q, q_prime, pow(q, -1, p),
                              pow(q_prime, -1, p))


def congruence_verdict(p, q, q_prime, q_inverse, q_prime_inverse):
    """linking_congruence from q^-1 and q'^-1 mod p.  The witness is the
    smallest root of q / q' (or the inverse of that of q' / q) on a
    residue-ordered side, so swapping q and q' inverts it.  Every failing
    congruence of p is one shared verdict, whose witness holds the tuple
    of unit squares."""
    roots, _, failed = _unit_squares(p)
    if q % p <= q_prime % p:
        u = roots.get(q * q_prime_inverse % p)
    else:
        v = roots.get(q_prime * q_inverse % p)
        u = None if v is None else pow(v, -1, p)
    return failed if u is None else _new(ObstructionVerdict, (
        "congruence", True, _new(UnitWitness, (u,))))


def dedekind_verdict(t_q, t_q_prime, s_q, s_q_prime):
    """cosmetic_dedekind_obstruction from T = 12 p s and s's text."""
    return _new(ObstructionVerdict, ("dedekind", t_q == t_q_prime,
                                     _new(DedekindWitness, (s_q, s_q_prime))))


def reason(p, q, q_prime, verdict):
    """The text of a failing verdict of the pair p/q, p/q', rendered from
    its witness and the pair: the reports' detail and JSON "reason".  A
    failing parity recomputes its gcds; it has no text (None) for a
    coprime pair with neither slope the meridian."""
    return _reason(p, q, q_prime, verdict, q, q_prime)


def _literal(value):
    return format(value).replace("{", "{{").replace("}", "}}")


def reason_template(p, q, q_prime, verdict):
    """reason() as a str.format template with slots {0}, {1} for q, q',
    the same for every pair of the class (p, q mod p, gap, whether 0 is a
    slope) with this verdict; a witness's braces are doubled."""
    name, passed, witness = verdict
    if name != "congruence":  # its text shows none of its unit squares
        witness = {key: _literal(value) for key, value in witness.items()}
    return _reason(p, q, q_prime, (name, passed, witness), "{0}", "{1}")


def _reason(p, q, q_prime, verdict, x, y):  # x, y are shown for q, q'
    name, _, witness = verdict
    if name == "distance":
        return (f"slope distance {witness['delta']} exceeds the exceptional "
                f"bound {EXCEPTIONAL_DISTANCE_BOUND}")
    if name == "parity":
        g, h = gcd(q, p), gcd(q_prime, p)
        if g != 1 and h != 1:
            return (f"gcd({x}, {p}) = {g} and gcd({y}, {p}) = {h}, "
                    "so not a slope pair")
        if g != 1 or h != 1:
            x, g = (x, g) if g != 1 else (y, h)
            return f"gcd({x}, {p}) = {g}, so not a slope pair"
        if 0 in (q, q_prime):  # reached only for p = 1
            return ("1/0 is the meridian, whose filling is the trivial "
                    "surgery, so not a cosmetic pair")
        return None
    if name == "congruence":
        return f"no unit square maps {y} to {x} mod {p}"
    return (f"s({x}, {p}) = {witness['s_q']} but s({y}, {p}) = "
            f"{witness['s_q_prime']}")


_PARITY_PASSED = ObstructionVerdict("parity", True)
_PARITY_FAILED = ObstructionVerdict("parity", False, Witness())


def parity_verdict(q, q_prime, g, h):
    """parity_filter given g = gcd(q, p), h = gcd(q', p): a shared verdict."""
    if g == h == 1 and 0 not in (q, q_prime):
        return _PARITY_PASSED
    return _PARITY_FAILED


def parity_filter(p, q, q_prime):
    """Are p/q and p/q' both genuine nontrivial slopes?

    Fails when gcd(q, p) != 1 or gcd(q', p) != 1.  This is what empties
    the moduli p = 6 and p = 8 (and half of p = 2): one of q, q + gap
    always shares a factor with p.  It also fails when q or q' is 0:
    for p > 1 that is a gcd failure, and for p = 1 the slope is the
    meridian 1/0, whose filling is the trivial surgery.
    """
    _check_pair(p, q, q_prime)
    return parity_verdict(q, q_prime, gcd(q, p), gcd(q_prime, p))
