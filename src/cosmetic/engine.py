"""Residue-class sweep engine for truly cosmetic exceptional pairs.

A candidate pair p/q, p/q' with q' = q + gap only depends on (p, q mod p,
gap) as far as the arithmetic filters are concerned, so the whole
exceptional regime p * gap <= 8 collapses to finitely many residue
families.  `classify_candidates` runs every family for one p through the
distance, parity, linking-congruence and Dedekind filters;
`replicate_theorem` assembles the survivors for p = 1..8 into the
case-by-case classification table; `enumerate_pairs` sweeps concrete
(q, q') pairs in bulk, in one process.  A sweep reads q once per residue
q mod p and runs the filters once per residue class of each p; every
later pair of a class shares its verdicts, since a witness holds only
numbers and never a text that names q.  A family is the pair at its
smallest positive q, so families and concrete pairs share one record
type, `PairVerdict`.

`cosmetic.oracle` re-derives every verdict in the verify pass.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from math import gcd

from . import CrossCheckError
from .dedekind import scaled_dedekind_sum, sum_text
from .obstructions import (
    EXCEPTIONAL_DISTANCE_BOUND,
    FILTER_ORDER,
    DeltaWitness,
    GeometryClass,
    ObstructionVerdict,
    _normalize_filters,
    congruence_verdict,
    dedekind_verdict,
    distance_cap,
    parity_verdict,
)
from .oracle import _verified, verify_families, verify_pairs

# The abstract's last claim: toroidal truly cosmetic surgeries on integer
# homology spheres are integer homology spheres, so these keep only p = 1.
_TOROIDAL_CASES = (GeometryClass.SEIFERT_TOROIDAL,
                   GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT)

FINITE_PI1_NOTE = (
    "no surviving family: a truly cosmetic pair with a finite fundamental "
    "group filling forces p = 1 and a Poincare sphere or S^3 surgery, and "
    "such knots have Alexander second derivative 2 != 0 at t = 1 (cited, "
    "not recomputed here)"
)


class PairVerdict(
        namedtuple("PairVerdict", "p q q_prime verdicts surviving")):
    """One pair p/q, p/q' with its filter trail.

    As a residue family it stands for every pair q = q_residue (mod p),
    q' = q + gap: the trail is computed at the smallest positive q and
    applies to the whole family.  A surviving family always has
    p * gap <= 8.
    """

    __slots__ = ()

    @property
    def gap(self):
        return self.q_prime - self.q

    @property
    def delta(self):
        """Slope distance p * |q - q'|, shared by the whole family."""
        return self.p * self.gap

    @property
    def q_residue(self):
        return self.q % self.p

    def describe(self):
        """The residue family this pair stands for, in words."""
        if self.p == 1:
            return f"p = 1, any q, q' = q + {self.gap}"
        return (
            f"p = {self.p}, q = {self.q_residue} (mod {self.p}), "
            f"q' = q + {self.gap}"
        )


class ClassificationTable(
        namedtuple("ClassificationTable", "sections notes evaluated")):
    """Surviving families arranged by the geometry of the filling.

    `sections` maps each geometry class, in case order, to the surviving
    families whose slope distance its cap allows; `notes` maps the
    sections that are empty for a reason worth stating to that reason;
    `evaluated` is the full list of families considered, obstructed ones
    included.
    """

    __slots__ = ()

    def families_for(self, geometry):
        return self.sections[geometry]

    def note_for(self, geometry):
        return self.notes.get(geometry)


class ClassifyResult(namedtuple("ClassifyResult", "p families")):
    """classify_candidates output plus the p it was run for."""

    __slots__ = ()

    @property
    def surviving(self):
        return tuple(f for f in self.families if f.surviving)


class EnumerationResult(
        namedtuple("EnumerationResult", "pairs filters max_gap warnings")):
    """A pair sweep and its settings; `pairs` may be a one-shot generator."""

    __slots__ = ()

    @property
    def surviving(self):
        if iter(self.pairs) is self.pairs:
            raise TypeError("a stream is read once: use run_enumeration")
        return tuple(pv for pv in self.pairs if pv.surviving)


class _Residues(dict):
    """Facts of each residue r = q mod p, built on first lookup: gcd(r, p)
    and, for a unit r, T(r, p) = 12 p s(r, p), the text of s, r^-1 mod p."""

    def __init__(self, p):
        self.p = p

    def __missing__(self, r):
        p, facts = self.p, (gcd(r, self.p), None, None, None)
        if facts[0] == 1:
            t = scaled_dedekind_sum(r, p)
            facts = 1, t, sum_text(t, p), pow(r, -1, p)
        self[r] = facts
        return facts


def _evaluate(p, q, q_prime, filters, residues):
    """Run the filter chain on one pair; returns its PairVerdict.

    `residues` is the _Residues table of p.  Parity always runs.
    Congruence and Dedekind are only defined for coprime pairs, so they
    are skipped (and the pair cannot survive) when parity fails.
    """
    verdicts = []
    if "distance" in filters:
        delta = p * (q_prime - q)
        verdicts.append(ObstructionVerdict(
            "distance", delta <= EXCEPTIONAL_DISTANCE_BOUND,
            tuple.__new__(DeltaWitness, (delta,))))
    g, t_q, s_q, q_inverse = residues[q % p]
    h, t_q_prime, s_q_prime, q_prime_inverse = residues[q_prime % p]
    parity = parity_verdict(q, q_prime, g, h)
    verdicts.append(parity)
    if parity.passed:
        if "congruence" in filters:
            verdicts.append(congruence_verdict(p, q, q_prime, q_inverse,
                                               q_prime_inverse))
        if "dedekind" in filters:
            verdicts.append(dedekind_verdict(t_q, t_q_prime, s_q, s_q_prime))
    surviving = True
    for v in verdicts:
        surviving = surviving and v[1]
    return tuple.__new__(PairVerdict, (p, q, q_prime, tuple(verdicts),
                                       surviving))


def classify_candidates(p):
    """Evaluate every residue family with modulus p in the exceptional range.

    Families run over gaps with p * gap <= 8 and residues 0 .. p-1, in
    (gap, residue) order, each with its full verdict trail and evaluated
    at its smallest positive q (p for residue 0).  For p in
    {3, 4, 6, 7, 8} no family survives; for p > 8 there is nothing to
    evaluate and the list is empty.
    """
    if type(p) is not int or p < 1:
        raise ValueError("p must be a positive integer")
    families, residues = [], _Residues(p)
    for gap in range(1, EXCEPTIONAL_DISTANCE_BOUND // p + 1):
        for residue in range(p):
            q = residue if residue else p
            families.append(_evaluate(p, q, q + gap, FILTER_ORDER, residues))
    return families


def surviving_families(p):
    """The families for this p that pass every filter."""
    return [f for f in classify_candidates(p) if f.surviving]


def run_classification(p, verify=True):
    """classify_candidates plus the independent oracle pass; CLI backend."""
    families = tuple(classify_candidates(p))
    if verify:
        verify_families(families)
    return ClassifyResult(p=p, families=families)


def replicate_theorem(verify=True):
    """Reproduce the case-by-case classification from the filters alone.

    Runs every residue family for p = 1..8 and intersects the survivors
    with each geometry's distance cap.  The outcome: reducible and
    Seifert-toroidal fillings leave only p = 1, q' = q + 1; the small
    Seifert case leaves p = 1 (any gap up to 8), p = 2 with gaps 2 and 4
    on odd q, and p = 5 with gap 1 on q = 2 (mod 5); the toroidal
    irreducible case leaves p = 1 with gap at most 3; finite fundamental
    group leaves nothing.  Deterministic, byte-for-byte.  The verify pass
    also raises CrossCheckError if either toroidal case keeps a p > 1.
    """
    evaluated = tuple(
        f
        for p in range(1, EXCEPTIONAL_DISTANCE_BOUND + 1)
        for f in classify_candidates(p)
    )
    if verify:
        verify_families(evaluated)
    survivors = [f for f in evaluated if f.surviving]
    sections = {}
    for geometry in GeometryClass:
        if geometry is GeometryClass.FINITE_PI1:
            sections[geometry] = ()
            continue
        cap = distance_cap(geometry)
        sections[geometry] = tuple(f for f in survivors if f.delta <= cap)
        stray = [f.describe() for f in sections[geometry] if f.p != 1]
        if verify and stray and geometry in _TOROIDAL_CASES:
            raise CrossCheckError(f"{geometry.value} keeps {stray[0]}, but "
                                  "toroidal truly cosmetic pairs have p = 1")
    notes = {GeometryClass.FINITE_PI1: FINITE_PI1_NOTE}
    return ClassificationTable(sections, notes, evaluated)


def _ascending(values, what):
    # Sorted and unique integers.  A range with a positive step already
    # is, so it is kept: memory stays flat in its length.
    if type(values) is range and values.step > 0:
        return values
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} values must be integers, not {v!r}")
    return sorted(set(values))


def _sweep_settings(p_values, q_values, filters, max_gap, jobs):
    ps, qs = _ascending(p_values, "p"), _ascending(q_values, "q")
    if ps and ps[0] < 1:
        raise ValueError("p must be a positive integer")
    if max_gap is None:
        max_gap = EXCEPTIONAL_DISTANCE_BOUND
    for name, value in (("max_gap", max_gap), ("jobs", jobs)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, not {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    return ps, qs, _normalize_filters(filters), max_gap


def enumerate_pairs(p_values, q_values, filters="all", max_gap=None, jobs=1):
    """Stream verdicts for every pair (p/q, p/q') with q < q' <= q + max_gap.

    Both q and q' are drawn from q_values.  Output order is lexicographic
    in (p, q, gap).  `filters` is "all" or an iterable drawn from
    distance/congruence/dedekind; parity always runs, and when it fails
    the remaining filters are reported as skipped.  `max_gap` (default
    EXCEPTIONAL_DISTANCE_BOUND) and `jobs` are ints of at least 1.  The
    sweep runs in this process: `jobs` never changes the output.
    For each p the filter chain runs once per residue class, on facts
    built once per residue q mod p (_Residues); every later pair of the
    class shares the class's first verdicts and surviving flag.  Each q
    walks only the q' above it up to q + max_gap, so a sparse q set costs
    its pairs, not its span.
    """
    ps, qs, chosen, max_gap = _sweep_settings(p_values, q_values, filters,
                                              max_gap, jobs)
    new = tuple.__new__
    for p in ps:
        # At p = 1 a pair holding q = 0 (the meridian) is a class of its
        # own.  Later records skip __new__'s checks: the first passed them.
        classes, residues = {}, _Residues(p)
        for i, q in enumerate(qs):
            for q_prime in qs[i + 1:bisect_right(qs, q + max_gap, i + 1)]:
                key = (q % p, q_prime - q, 0 in (q, q_prime))
                first = classes.get(key)
                if first is None:
                    classes[key] = first = _evaluate(p, q, q_prime, chosen,
                                                     residues)
                    yield first
                else:
                    yield new(PairVerdict, (p, q, q_prime, first[3], first[4]))


def _distance_warnings(ps, qs, chosen, max_gap):
    # Without the distance filter, warn if the sweep holds a pair with
    # p * gap > 8; the largest p needs the smallest such gap, and the
    # least q' at that gap or beyond is found by bisection.
    lowest = EXCEPTIONAL_DISTANCE_BOUND // ps[-1] + 1 if ps else max_gap + 1
    if "distance" in chosen or lowest > max_gap or not any(
        (j := bisect_left(qs, q + lowest, i + 1)) < len(qs)
        and qs[j] <= q + max_gap for i, q in enumerate(qs)
    ):
        return ()
    return ("pairs at slope distance beyond 8 were evaluated; they cannot "
            "be truly cosmetic (exceptional distance bound)",)


def stream_enumeration(p_values, q_values, filters="all", max_gap=None,
                       jobs=1, verify=True):
    """run_enumeration without holding the sweep; CLI backend.  Settings
    and warnings are decided up front; `pairs` yields each record once the
    oracle has checked it, and raises CrossCheckError on a disagreement."""
    ps, qs, chosen, max_gap = _sweep_settings(p_values, q_values, filters,
                                              max_gap, jobs)
    pairs = enumerate_pairs(ps, qs, chosen, max_gap, jobs)
    if verify:
        pairs = _verified(pairs, "pair", chosen)
    return EnumerationResult(pairs, chosen, max_gap,
                             _distance_warnings(ps, qs, chosen, max_gap))


def run_enumeration(p_values, q_values, filters="all", max_gap=None,
                    jobs=1, verify=True):
    """Materialize a verified enumerate_pairs sweep with its settings."""
    result = stream_enumeration(p_values, q_values, filters, max_gap, jobs,
                                verify)
    return result._replace(pairs=tuple(result.pairs))
