"""The census of candidate exteriors and why each one is ruled out.

A truly cosmetic pair of toroidal surgeries at distance >= 4 would make
the knot exterior one of the fourteen hyperbolic census manifolds with
toroidal fillings that far apart (M1 .. M14), and at distances 6, 7, 8
one of the Whitehead-link surgery exteriors W(1), W(2), W(-5), W(-5/2).
`zhs_exterior_filter` decides, from recorded homology facts plus the
homology calculus in `homology`, whether a census manifold can be the
exterior of a knot in an integer homology sphere with such a pair.  All
eighteen are excluded; the verdict carries a reason a reader can replay.

Each kind of homology fact has one row in `_FACTS`: its fields, the check
of their values (both made when the census loads) and the rule that turns
the fact into a reason.  A `cited_exclusion` restates a published result
and is marked cited; the other kinds (filling and quotient homology, the
framing shift, the Whitehead determinant, the Alexander polynomial)
recompute the exclusion.

The census ships as a versioned JSON file next to this module and can be
overridden (--census-file in the CLI) for experiments.
"""

import json
from collections import namedtuple
from functools import lru_cache
from importlib import resources

from . import CrossCheckError
from .homology import deduced_filling_orders, solve_framing_shift
from .invariants import AlexanderPolynomial, alexander_second_derivative_at_1
from .slopes import Slope, canonicalize_slope

CENSUS_SCHEMA_VERSION = 1

# Distances between the paired toroidal fillings, straight from the
# census: 4 and 5 for the M-manifolds, 6 through 8 for the Whitehead
# exteriors.  Checked at load time so a hand-edited file cannot drift.
EXPECTED_DISTANCES = {
    "M1": 4, "M2": 4, "M3": 5, "M4": 4, "M5": 5, "M6": 4, "M7": 5,
    "M8": 5, "M9": 4, "M10": 5, "M11": 5, "M12": 5, "M13": 4, "M14": 4,
    "W(1)": 8, "W(2)": 6, "W(-5)": 8, "W(-5/2)": 7,
}

EXPECTED_IDS = tuple(EXPECTED_DISTANCES)

_TWO_TORUS_IDS = frozenset({"M1", "M2", "M3", "M14"})


class KnownFilling(namedtuple("KnownFilling",
                              "slope kind description order lens",
                              defaults=(None, None))):
    """One recorded filling: its slope in the census framing and what it is."""

    __slots__ = ()


class CensusRecord(namedtuple("CensusRecord", "id boundary_tori "
                              "toroidal_pair_distance known_fillings "
                              "homology_facts")):
    __slots__ = ()

    def lens_fillings(self):
        return [f for f in self.known_fillings if f.kind == "lens"]

    def toroidal_fillings(self):
        return [f for f in self.known_fillings if f.kind == "toroidal"]


class ExteriorVerdict(namedtuple("ExteriorVerdict", "excluded reason cited")):
    """Can this census manifold be the exterior in question?

    `cited` marks exclusions resting on an external classification
    result rather than on arithmetic recomputed here.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # for _replace

    def __new__(cls, excluded, reason=None, cited=False):
        if excluded and not reason:
            raise ValueError("an exclusion must state its reason")
        return tuple.__new__(cls, (excluded, reason, cited))


_RECORD_FIELDS = {"id": str, "boundary_tori": int,
                  "toroidal_pair_distance": int, "known_fillings": list,
                  "homology_facts": list}
_JSON_TYPES = {str: "string", int: "integer", list: "list", dict: "object"}


def _require(raw, fields, where, optional=False):
    # Each name of `fields` present (unless optional) with the JSON type
    # it maps to; a JSON true or false is not an integer.
    if not isinstance(raw, dict):
        raise ValueError(f"{where} is not a JSON object")
    for name, kind in fields.items():
        if name not in raw:
            if optional:
                continue
            raise ValueError(f"{where} has no {name!r} field")
        if type(raw[name]) is not kind:
            raise ValueError(
                f"{where}: {name!r} is not a JSON {_JSON_TYPES[kind]}")


def _parse_filling(raw, where):
    _require(raw, {"slope": str, "kind": str}, where)
    _require(raw, {"description": str, "order": int, "lens": list}, where,
             optional=True)
    lens = tuple(raw["lens"]) if "lens" in raw else None
    try:
        slope = Slope.parse(raw["slope"])
    except ValueError as exc:
        raise ValueError(f"{where} slope: {exc}") from None
    return KnownFilling(
        slope=slope,
        kind=raw["kind"],
        description=raw.get("description", ""),
        order=raw.get("order"),
        lens=lens,
    )


def _validate_record(record):
    rid = record.id
    if rid not in EXPECTED_DISTANCES:
        raise ValueError(f"unknown census id {rid!r}")
    if record.toroidal_pair_distance != EXPECTED_DISTANCES[rid]:
        raise ValueError(
            f"{rid}: toroidal pair distance {record.toroidal_pair_distance} "
            f"does not match the census value {EXPECTED_DISTANCES[rid]}"
        )
    expected_tori = 2 if rid in _TWO_TORUS_IDS else 1
    if record.boundary_tori != expected_tori:
        raise ValueError(
            f"{rid}: expected {expected_tori} boundary tori, "
            f"got {record.boundary_tori}"
        )
    for filling in record.lens_fillings():
        if (not filling.lens or filling.order is None
                or filling.order != filling.lens[0]):
            raise ValueError(
                f"{rid}: lens filling {filling.description!r} must "
                "record order equal to the first lens parameter"
            )
    for index, fact in enumerate(record.homology_facts):
        kind = fact.get("kind") if isinstance(fact, dict) else None
        if type(kind) is not str or kind not in _FACTS:
            raise ValueError(
                f"{rid}: homology fact {index} has unknown kind {kind!r}"
            )
        where = f"{rid}: homology fact {index} ({kind})"
        fields, check, _ = _FACTS[kind]
        _require(fact, fields, where)
        try:
            check(record, fact)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def load_census(path=None):
    """Load and validate the census; returns an id -> record mapping.

    With no path, reads the JSON file shipped inside the package.
    """
    try:
        if path is None:
            text = resources.files(__package__).joinpath(
                "census.json").read_text(encoding="utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        data = json.loads(text)
    except RecursionError:
        raise ValueError("census file is nested too deeply") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        form = "UTF-8" if isinstance(exc, UnicodeDecodeError) else "JSON"
        raise ValueError(f"census file {path or 'census.json'} is not valid "
                         f"{form}: {exc}") from None
    _require(data, {"schema_version": int, "records": list}, "census file")
    if data["schema_version"] != CENSUS_SCHEMA_VERSION:
        raise ValueError(
            f"census schema_version {data['schema_version']!r} "
            f"is not {CENSUS_SCHEMA_VERSION}"
        )
    census = {}
    for index, raw in enumerate(data["records"]):
        _require(raw, _RECORD_FIELDS, f"census record {index}")
        rid = raw["id"]
        record = CensusRecord(
            id=rid,
            boundary_tori=raw["boundary_tori"],
            toroidal_pair_distance=raw["toroidal_pair_distance"],
            known_fillings=tuple(
                _parse_filling(f, f"{rid}: known filling {i}")
                for i, f in enumerate(raw["known_fillings"])
            ),
            homology_facts=tuple(raw["homology_facts"]),
        )
        if record.id in census:
            raise ValueError(f"duplicate census id {record.id!r}")
        _validate_record(record)
        census[record.id] = record
    return census


@lru_cache(maxsize=1)
def _default_census():
    return load_census()


def census_lookup(census_id, census=None):
    """Fetch one census record by id, e.g. "M8" or "W(-5/2)"."""
    if census is None:
        census = _default_census()
    try:
        return census[census_id]
    except KeyError:
        known = ", ".join(census)
        raise KeyError(f"no census record {census_id!r}; known ids: {known}")


@lru_cache(maxsize=64)
def _cosmetic_h1_orders(delta):
    # |H_1| values a truly cosmetic pair at this slope distance can give
    # the filled manifold: the p of every surviving residue family with
    # p * gap = delta.  {1} at distances 6 and 7; {1, 2} at distance 8.
    from .engine import surviving_families

    orders = set()
    for p in range(1, delta + 1):
        if delta % p:
            continue
        gap = delta // p
        if any(f.gap == gap for f in surviving_families(p)):
            orders.add(p)
    return frozenset(orders)


def _check_statement(record, fact):
    if not fact["statement"]:
        raise ValueError("'statement' is empty")


def _check_group(record, fact):
    # The group in invariant-factor form, which is what the rules read.
    torsion = fact["torsion"]
    if fact["betti"] < 0:
        raise ValueError(f"'betti' {fact['betti']} is negative")
    if not all(type(t) is int and t >= 2 for t in torsion) or any(
            b % a for a, b in zip(torsion, torsion[1:])):
        raise ValueError(f"'torsion' {torsion!r} is not a list of invariant "
                         "factors (integers >= 2, each dividing the next)")


def _render_group(fact):
    parts = ["Z"] * fact["betti"] + [f"Z/{t}" for t in fact["torsion"]]
    return " + ".join(parts) if parts else "0"


def _infinite_filling(record, fact):
    if fact["betti"] > 0:
        return (f"the {fact['filling']} filling has H_1 = "
                f"{_render_group(fact)}, which is infinite; a filling along "
                "a cosmetic slope p/q with p >= 1 is a rational homology "
                "sphere")
    return None


def _noncyclic_quotient(record, fact):
    if len(fact["torsion"]) >= 2:
        return (f"H_1 of {fact['filling']} surjects onto "
                f"{_render_group(fact)}, but a knot exterior in a homology "
                "sphere has H_1 = Z, all of whose quotients are cyclic")
    return None


_MINUS_ONE = canonicalize_slope(-1, 1)


def _check_framing_shift(record, _fact):
    lens = record.lens_fillings()
    if len(lens) != 1 or len(record.toroidal_fillings()) != 2:
        raise ValueError("the framing-shift exclusion needs one lens filling "
                         "and the two toroidal fillings on record")
    if lens[0].slope != _MINUS_ONE:
        raise ValueError("the framing-shift argument expects the lens "
                         "filling at slope -1 in the census framing")
    if lens[0].order < 0:
        raise ValueError(f"the lens filling's order {lens[0].order} is "
                         "negative")


def _framing_shift_exclusion(record, _fact):
    lens = record.lens_fillings()
    toroidal = record.toroidal_fillings()
    shifts = solve_framing_shift(lens[0].order)
    orders = [
        deduced_filling_orders(shifts, filling.slope) for filling in toroidal
    ]
    if orders[0] & orders[1]:
        return None
    return (f"the lens filling {lens[0].description} (order {lens[0].order}) "
            f"pins the framing shift to {sorted(shifts)}; the toroidal "
            f"fillings then have |H_1| in {sorted(orders[0])} and "
            f"{sorted(orders[1])}, disjoint sets, so they are never "
            "orientation-preservingly homeomorphic")


def _check_coefficient(record, fact):
    if Slope.parse(fact["fixed_slope"]).a == 0:
        raise ValueError(f"'fixed_slope' {fact['fixed_slope']!r} has "
                         "numerator 0")


def _whitehead_determinant_exclusion(record, fact):
    fixed = Slope.parse(fact["fixed_slope"])
    c = abs(fixed.a)
    delta = record.toroidal_pair_distance
    allowed = _cosmetic_h1_orders(delta)
    if any(h % c == 0 for h in allowed):
        return None
    return (f"every filling is surgery on the Whitehead link with one "
            f"coefficient {fact['fixed_slope']}, so |H_1| is a multiple of "
            f"{c}; a truly cosmetic exceptional pair at distance {delta} "
            f"forces |H_1| in {sorted(allowed)}")


def _check_polynomial(record, fact):
    AlexanderPolynomial.from_coefficients(fact["coefficients"])


def _alexander_exclusion(record, fact):
    poly = AlexanderPolynomial.from_coefficients(fact["coefficients"])
    d2 = alexander_second_derivative_at_1(poly)
    if d2 != 0:
        return (f"{fact['statement']} That knot has Alexander second "
                f"derivative {d2} != 0 at t = 1, while a truly cosmetic "
                "pair forces it to vanish")
    return None


# Each kind of homology fact: the JSON fields the loader checks, with
# their types; the check of their values, also made at load; and the rule
# that turns a loaded fact into an exclusion reason, or None when the fact
# rules nothing out.
_GROUP_FIELDS = {"filling": str, "betti": int, "torsion": list}
_FACTS = {
    "cited_exclusion": ({"statement": str}, _check_statement,
                        lambda record, fact: fact["statement"]),
    "filling_homology": (_GROUP_FIELDS, _check_group, _infinite_filling),
    "quotient_homology": (_GROUP_FIELDS, _check_group, _noncyclic_quotient),
    "framing_shift_exclusion": ({}, _check_framing_shift,
                                _framing_shift_exclusion),
    "whitehead_surgery_determinant": ({"fixed_slope": str},
                                      _check_coefficient,
                                      _whitehead_determinant_exclusion),
    "alexander_polynomial": ({"coefficients": dict, "statement": str},
                             _check_polynomial, _alexander_exclusion),
}


def zhs_exterior_filter(record):
    """Can this census manifold be a knot exterior in an integer homology
    sphere whose recorded toroidal filling pair is truly cosmetic?

    Works through the record's homology facts in order and returns the
    first conclusive exclusion, or a `possible` verdict if nothing
    recorded rules it out.  Every shipped record is excluded.
    """
    for fact in record.homology_facts:
        kind = fact["kind"]
        if type(kind) is not str or kind not in _FACTS:
            raise ValueError(f"{record.id}: unknown homology fact kind {kind!r}")
        reason = _FACTS[kind][2](record, fact)
        if reason is not None:
            return ExteriorVerdict(True, reason,
                                   cited=kind == "cited_exclusion")
    return ExteriorVerdict(excluded=False)


def verify_census_exclusions(census=None):
    """Check that every expected census record is present and excluded.

    This is what backs the toroidal distance cap: a surviving census
    manifold would mean a toroidal truly cosmetic pair at distance >= 4
    is still on the table.  Raises CrossCheckError if any record is
    missing or not excluded; returns the number checked.
    """
    if census is None:
        census = _default_census()
    missing = [rid for rid in EXPECTED_IDS if rid not in census]
    if missing:
        raise CrossCheckError(
            f"census is missing records: {', '.join(missing)}"
        )
    not_excluded = [
        rid for rid in EXPECTED_IDS
        if not zhs_exterior_filter(census[rid]).excluded
    ]
    if not_excluded:
        raise CrossCheckError(
            "census records not excluded as cosmetic-knot exteriors: "
            + ", ".join(not_excluded)
        )
    return len(EXPECTED_IDS)
