"""The census of candidate exteriors and why each one is ruled out.

A truly cosmetic pair of toroidal surgeries at distance >= 4 would make
the knot exterior one of the fourteen hyperbolic census manifolds with
toroidal fillings that far apart (M1 .. M14), and at distances 6, 7, 8
one of the Whitehead-link surgery exteriors W(1), W(2), W(-5), W(-5/2).
`zhs_exterior_filter` decides, from recorded homology facts plus the
homology calculus in `homology`, whether a census manifold can be the
exterior of a knot in an integer homology sphere with such a pair.  All
eighteen are excluded; the verdict carries a reason a reader can replay.

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

# The fields zhs_exterior_filter reads from each kind of homology fact,
# with their types.
_FACT_FIELDS = {
    "cited_exclusion": {"statement": str},
    "filling_homology": {"filling": str, "betti": int, "torsion": list},
    "quotient_homology": {"filling": str, "betti": int, "torsion": list},
    "framing_shift_exclusion": {},
    "whitehead_surgery_determinant": {"fixed_slope": str},
    "alexander_polynomial": {"coefficients": dict, "statement": str},
}


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
    return KnownFilling(
        slope=Slope.parse(raw["slope"]),
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
    for filling in record.known_fillings:
        if filling.kind == "lens":
            if filling.lens is None or filling.order != filling.lens[0]:
                raise ValueError(
                    f"{rid}: lens filling {filling.description!r} must "
                    "record order equal to the first lens parameter"
                )
    for index, fact in enumerate(record.homology_facts):
        kind = fact.get("kind") if isinstance(fact, dict) else None
        if type(kind) is not str or kind not in _FACT_FIELDS:
            raise ValueError(
                f"{rid}: homology fact {index} has unknown kind {kind!r}"
            )
        _require(fact, _FACT_FIELDS[kind],
                 f"{rid}: homology fact {index} ({kind})")


def load_census(path=None):
    """Load and validate the census; returns an id -> record mapping.

    With no path, reads the JSON file shipped inside the package.
    """
    if path is None:
        text = resources.files(__package__).joinpath("census.json").read_text()
    else:
        with open(path) as handle:
            text = handle.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("census file is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"census file {path or 'census.json'} is not valid "
                         f"JSON: {exc}") from None
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


def _render_group(betti, torsion):
    parts = ["Z"] * betti + [f"Z/{t}" for t in torsion]
    return " + ".join(parts) if parts else "0"


_MINUS_ONE = canonicalize_slope(-1, 1)


def _framing_shift_exclusion(record):
    lens = record.lens_fillings()
    toroidal = record.toroidal_fillings()
    if len(lens) != 1 or len(toroidal) != 2:
        raise ValueError(
            f"{record.id}: framing-shift exclusion needs one lens filling "
            "and the two toroidal fillings on record"
        )
    if lens[0].slope != _MINUS_ONE:
        raise ValueError(
            f"{record.id}: the framing-shift argument expects the lens "
            "filling at slope -1 in the census framing"
        )
    shifts = solve_framing_shift(lens[0].order)
    orders = [
        deduced_filling_orders(shifts, filling.slope) for filling in toroidal
    ]
    if orders[0] & orders[1]:
        return None
    return ExteriorVerdict(
        excluded=True,
        reason=(
            f"the lens filling {lens[0].description} (order {lens[0].order}) "
            f"pins the framing shift to {sorted(shifts)}; the toroidal "
            f"fillings then have |H_1| in {sorted(orders[0])} and "
            f"{sorted(orders[1])}, disjoint sets, so they are never "
            "orientation-preservingly homeomorphic"
        ),
    )


def _whitehead_determinant_exclusion(record, fact):
    fixed = Slope.parse(fact["fixed_slope"])
    c = abs(fixed.a)
    delta = record.toroidal_pair_distance
    allowed = _cosmetic_h1_orders(delta)
    if any(h % c == 0 for h in allowed):
        return None
    return ExteriorVerdict(
        excluded=True,
        reason=(
            f"every filling is surgery on the Whitehead link with one "
            f"coefficient {fact['fixed_slope']}, so |H_1| is a multiple of "
            f"{c}; a truly cosmetic exceptional pair at distance {delta} "
            f"forces |H_1| in {sorted(allowed)}"
        ),
    )


def zhs_exterior_filter(record):
    """Can this census manifold be a knot exterior in an integer homology
    sphere whose recorded toroidal filling pair is truly cosmetic?

    Works through the record's homology facts in order and returns the
    first conclusive exclusion, or a `possible` verdict if nothing
    recorded rules it out.  Every shipped record is excluded.
    """
    for fact in record.homology_facts:
        kind = fact["kind"]
        if kind == "cited_exclusion":
            return ExteriorVerdict(True, fact["statement"], cited=True)
        if kind == "filling_homology":
            if fact["betti"] > 0:
                group = _render_group(fact["betti"], fact["torsion"])
                return ExteriorVerdict(
                    excluded=True,
                    reason=(
                        f"the {fact['filling']} filling has H_1 = {group}, "
                        "which is infinite; a filling along a cosmetic slope "
                        "p/q with p >= 1 is a rational homology sphere"
                    ),
                )
        elif kind == "quotient_homology":
            if len(fact["torsion"]) >= 2:
                group = _render_group(fact["betti"], fact["torsion"])
                return ExteriorVerdict(
                    excluded=True,
                    reason=(
                        f"H_1 of {fact['filling']} surjects onto {group}, "
                        "but a knot exterior in a homology sphere has "
                        "H_1 = Z, all of whose quotients are cyclic"
                    ),
                )
        elif kind == "framing_shift_exclusion":
            verdict = _framing_shift_exclusion(record)
            if verdict is not None:
                return verdict
        elif kind == "whitehead_surgery_determinant":
            verdict = _whitehead_determinant_exclusion(record, fact)
            if verdict is not None:
                return verdict
        elif kind == "alexander_polynomial":
            poly = AlexanderPolynomial.from_coefficients(fact["coefficients"])
            d2 = alexander_second_derivative_at_1(poly)
            if d2 != 0:
                return ExteriorVerdict(
                    excluded=True,
                    reason=(
                        f"{fact['statement']} That knot has Alexander second "
                        f"derivative {d2} != 0 at t = 1, while a truly "
                        "cosmetic pair forces it to vanish"
                    ),
                )
        else:
            raise ValueError(f"{record.id}: unknown homology fact kind {kind!r}")
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
