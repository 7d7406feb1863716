"""Residue-class sweep engine for truly cosmetic exceptional pairs.

A candidate pair p/q, p/q' with q' = q + gap only depends on (p, q mod p,
gap) as far as the arithmetic filters are concerned, so the whole
exceptional regime p * gap <= 8 collapses to finitely many residue
families.  `classify_candidates` runs every family for one p through the
distance, parity, linking-congruence and Dedekind filters;
`replicate_theorem` assembles the survivors for p = 1..8 into the
case-by-case classification table; `enumerate_pairs` sweeps concrete
(q, q') pairs in bulk, in one process.  A sweep reads q once per residue
q mod p, runs the filters once per residue class of each p and refills
per pair only the witness texts that name q.  A family is the pair at
its smallest positive q, so families and concrete pairs share one record
type, `PairVerdict`.

Every verdict the engine produces can be re-derived from first
principles: `verify_families` and `verify_pairs` recompute each filter
from its definitional oracle (the O(p) direct Dedekind sum, cosets of
the unit squares from one scan of the units) and raise CrossCheckError
on any disagreement.  One verify pass builds the oracles' facts once per
residue q mod p, apart from every table and cache of the engine.  The
CLI exits 2 on a mismatch.
"""

from collections import namedtuple
from math import gcd

from . import CrossCheckError
from .dedekind import direct_numerator, scaled_dedekind_sum, sum_text
from .obstructions import (
    EXCEPTIONAL_DISTANCE_BOUND,
    GeometryClass,
    ObstructionVerdict,
    congruence_reason,
    congruence_verdict,
    dedekind_reason,
    dedekind_verdict,
    distance_cap,
    distance_reason,
    parity_reason,
    parity_verdict,
)

# Canonical filter order for verdict trails and report columns.  Parity
# always runs; the other three can be switched off in bulk sweeps.
FILTER_ORDER = ("distance", "parity", "congruence", "dedekind")
SELECTABLE_FILTERS = ("distance", "congruence", "dedekind")

# The four numbered cases of the classification, in statement order,
# followed by the finite-fundamental-group case that ends up empty.
THEOREM_CASE_ORDER = (
    GeometryClass.REDUCIBLE,
    GeometryClass.SEIFERT_TOROIDAL,
    GeometryClass.SMALL_SEIFERT_INFINITE,
    GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT,
    GeometryClass.FINITE_PI1,
)

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
        return tuple(pv for pv in self.pairs if pv.surviving)


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
        passed = delta <= EXCEPTIONAL_DISTANCE_BOUND
        witness = {"delta": delta}
        if not passed:
            witness["reason"] = distance_reason(delta)
        verdicts.append(ObstructionVerdict("distance", passed, witness))
    g, t_q, s_q, q_inverse = residues[q % p]
    h, t_q_prime, s_q_prime, q_prime_inverse = residues[q_prime % p]
    parity = parity_verdict(p, q, q_prime, g, h)
    verdicts.append(parity)
    if parity.passed:
        if "congruence" in filters:
            verdicts.append(congruence_verdict(p, q, q_prime, q_inverse,
                                               q_prime_inverse))
        if "dedekind" in filters:
            verdicts.append(dedekind_verdict(p, q, q_prime, t_q, t_q_prime,
                                             s_q, s_q_prime))
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
    if p < 1:
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
    for geometry in THEOREM_CASE_ORDER:
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


_REASONS = {"parity": parity_reason, "congruence": congruence_reason,
            "dedekind": dedekind_reason}  # the failing reasons that name q


def _ascending(values):
    # Sorted and unique.  A range with a positive step already is, with
    # O(1) membership, so it is kept: memory stays flat in its length.
    if type(values) is range and values.step > 0:
        return values
    return sorted({int(v) for v in values})


def _sweep_settings(p_values, q_values, filters, max_gap, jobs):
    ps, qs = _ascending(p_values), _ascending(q_values)
    if ps and ps[0] < 1:
        raise ValueError("p must be a positive integer")
    if max_gap is None:
        max_gap = EXCEPTIONAL_DISTANCE_BOUND
    if max_gap < 1:
        raise ValueError("max_gap must be at least 1")
    chosen = _normalize_filters(filters)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return ps, qs, chosen, max_gap


def enumerate_pairs(p_values, q_values, filters="all", max_gap=None, jobs=1):
    """Stream verdicts for every pair (p/q, p/q') with q < q' <= q + max_gap.

    Both q and q' are drawn from q_values.  Output order is lexicographic
    in (p, q, gap).  `filters` is "all" or an iterable drawn from
    distance/congruence/dedekind; parity always runs, and when it fails
    the remaining filters are reported as skipped.  The sweep runs in
    this process: `jobs` must be at least 1 and never changes the output.
    For each p the filter chain runs once per residue class, on facts
    built once per residue q mod p (_Residues).  Later pairs share the
    class's first verdicts read-only; at its first reuse the class lists
    each failing verdict whose reason names q, with its formatter, and a
    later pair gets its own copy of those witnesses.
    """
    ps, qs, chosen, max_gap = _sweep_settings(p_values, q_values, filters,
                                              max_gap, jobs)
    members = qs if type(qs) is range else frozenset(qs)
    new = tuple.__new__
    for p in ps:
        # At p = 1 a pair holding q = 0 (the meridian) is a class of its
        # own.  Later records skip __new__'s checks: the first passed them.
        classes, residues = {}, _Residues(p)
        for q in qs:
            for gap in range(1, max_gap + 1):
                q_prime = q + gap
                if q_prime not in members:
                    continue
                key = (q % p, gap, 0 in (q, q_prime))
                entry = classes.get(key)
                if entry is None:
                    classes[key] = first = _evaluate(p, q, q_prime, chosen,
                                                     residues)
                    yield first
                    continue
                if type(entry) is PairVerdict:  # the class's first reuse
                    gcds = residues[key[0]][0], residues[q_prime % p][0]
                    entry = classes[key] = entry.verdicts, entry.surviving, [
                        (i, name, w, _REASONS[name], gcds if name == "parity"
                         else () if name == "congruence"
                         else (w["s_q"], w["s_q_prime"]))
                        for i, (name, passed, w) in enumerate(entry.verdicts)
                        if not (passed or name == "distance")]
                verdicts, surviving, refills = entry
                if refills:
                    verdicts = list(verdicts)
                    for i, name, w, reason, args in refills:
                        verdicts[i] = new(ObstructionVerdict, (name, False, {
                            **w, "reason": reason(p, q, q_prime, *args)}))
                    verdicts = tuple(verdicts)
                yield new(PairVerdict, (p, q, q_prime, verdicts, surviving))


def _distance_warnings(ps, qs, chosen, max_gap):
    # Without the distance filter, warn if the sweep holds a pair with
    # p * gap > 8; the largest p needs the smallest such gap.
    members = qs if type(qs) is range else frozenset(qs)
    lowest = EXCEPTIONAL_DISTANCE_BOUND // ps[-1] + 1 if ps else max_gap + 1
    if "distance" in chosen or not any(
        q + gap in members for gap in range(lowest, max_gap + 1) for q in qs
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


def _mismatch(verdict, want, fields):
    # Run once an inline check has failed.  Raises for a pass/fail other
    # than `want`, then for the first missing or wrong witness field (of
    # its type: True is not 1), else for any other key.  A field given as
    # None, as a passing verdict's reason, must be absent.
    name, passed, w = verdict
    if passed != want:
        raise CrossCheckError(
            f"{name} verdict says {'pass' if passed else 'fail'} but the "
            f"oracle says {'pass' if want else 'fail'}")
    fields = {key: value for key, value in fields.items() if value is not None}
    for key, value in fields.items():
        try:
            got = w[key]
        except (KeyError, TypeError):
            raise CrossCheckError(f"{name} witness has no {key!r}") from None
        if type(got) is not type(value) or got != value:
            raise CrossCheckError(f"{name} witness {key} is {got!r} but the "
                                  f"oracle gives {value!r}")
    extra = ([key for key in w if key not in fields]
             if isinstance(w, dict) else [w])
    if extra:
        raise CrossCheckError(f"{name} witness has an extra key {extra[0]!r}")


# The oracles below read q only through q mod p, so within one verify
# pass they are memoized per residue.  The memo is cleared whenever p
# changes, and it never shares state with the engine's caches.

def _coset_labels(p):
    # From one scan of the units of p: the unit squares, ascending, and at
    # each unit the least unit of its coset (q = q' u^2 iff labels agree).
    units = [u for u in range(1, p) if gcd(u, p) == 1]
    squares = sorted({u * u % p for u in units})
    labels = [0] * p
    for u in units:
        if not labels[u]:
            for square in squares:
                labels[u * square % p] = u
    return squares, labels


def _oracle_facts(memo, r, p, shapes):
    # For 0 <= r < p: gcd(r, p) and, for a unit r, the direct sum's text
    # (in lowest terms, so equal texts mean equal sums) and r's coset
    # label, each only if a trail may hold its filter.
    wanted = shapes[True] if shapes else FILTER_ORDER
    g, text, label = gcd(r, p), None, None
    if g == 1 and "dedekind" in wanted:
        num, den = direct_numerator(r, p), 4 * p * p
        k = gcd(num, den)
        text = f"{num // k}/{den // k}"
    if g == 1 and "congruence" in wanted:
        if "cosets" not in memo:
            memo["cosets"] = _coset_labels(p)
        label = memo["cosets"][1][r]
    return memo.setdefault(r, (g, text, label))


def _trail_shape(chosen, coprime):
    # The selected filters plus parity, in FILTER_ORDER; congruence and
    # Dedekind are undefined, so absent, after a parity failure.
    return [name for name in FILTER_ORDER[:4 if coprime else 2]
            if name in chosen or name == "parity"]


def _verify_one(record, shapes, memo):
    # Against the oracles' residue facts; _mismatch runs only to raise.
    p, q, q_prime, verdicts, surviving = record
    r, r_prime = q % p, q_prime % p
    g, s_q, label = memo.get(r) or _oracle_facts(memo, r, p, shapes)
    h, s_q_prime, label_prime = (memo.get(r_prime)
                                 or _oracle_facts(memo, r_prime, p, shapes))
    # Both p/q and p/q' primitive, and neither the meridian 1/0.
    coprime = 0 not in (q, q_prime) and g == h == 1
    names = [v.filter_name for v in verdicts]
    expected_names = (_trail_shape(names, coprime) if shapes is None
                      else shapes[coprime])
    if names != expected_names:
        raise CrossCheckError(f"trail has filters {names}, expected "
                              f"{expected_names}")
    delta, all_passed = p * (q_prime - q), True
    for v in verdicts:
        name, passed, w = v
        want = (delta <= EXCEPTIONAL_DISTANCE_BOUND if name == "distance"
                else coprime if name == "parity"
                else p == 1 or label == label_prime if name == "congruence"
                else s_q == s_q_prime)
        if passed != want:
            _mismatch(v, want, {})
        all_passed = all_passed and want
        # A witness holds its fields, plus, exactly when it fails, the
        # reason the shared formatter gives for the oracle's values.
        if name == "distance":
            reason = None if want else distance_reason(delta)
            if (type(w) is not dict or w.get("delta") != delta
                    or type(w["delta"]) is not int
                    or w.get("reason") != reason or len(w) != 2 - want):
                _mismatch(v, want, {"delta": delta, "reason": reason})
        elif name == "dedekind":
            reason = None if want else dedekind_reason(p, q, q_prime, s_q,
                                                       s_q_prime)
            if (type(w) is not dict or w.get("s_q") != s_q
                    or w.get("s_q_prime") != s_q_prime
                    or w.get("reason") != reason or len(w) != 3 - want):
                _mismatch(v, want, {"s_q": s_q, "s_q_prime": s_q_prime,
                                    "reason": reason})
        elif name == "congruence" and not want:
            reason = congruence_reason(p, q, q_prime)
            squares = memo["cosets"][0]
            if (type(w) is not dict or w.get("unit_squares") != squares
                    or w.get("reason") != reason or len(w) != 2):
                _mismatch(v, want, {"unit_squares": squares,
                                    "reason": reason})
            first = w["unit_squares"][0]  # equal lists: True == 1 slips by
            if type(first) is not int:
                raise CrossCheckError("congruence witness unit square "
                                      f"{first!r} is not an integer")
        elif name == "congruence":
            if type(w) is not dict or "unit" not in w:
                raise CrossCheckError("congruence witness has no 'unit'")
            u = w["unit"]
            if type(u) is not int:
                raise CrossCheckError(f"recorded congruence unit {u!r} is "
                                      "not an integer")
            if not ((u == 0) if p == 1 else 1 <= u < p and gcd(u, p) == 1
                    and (q - q_prime * u * u) % p == 0):
                raise CrossCheckError(f"recorded congruence unit {u} does "
                                      f"not satisfy q = q' u^2 (mod {p})")
            if len(w) != 1:
                _mismatch(v, want, {"unit": u})
        elif not want:
            reason = parity_reason(p, q, q_prime, g, h)
            if type(w) is not dict or w.get("reason") != reason or len(w) != 1:
                _mismatch(v, want, {"reason": reason})
        elif w:
            _mismatch(v, want, {})
    if surviving != all_passed:
        raise CrossCheckError("surviving flag is inconsistent with the trail")


def _verified(records, kind, filters):
    # Yields each record once the oracles agree with it; without `filters`
    # a trail's shape comes from its own filter names.  Mismatches get
    # their location here, so its text is built only on failure.
    shapes = None if filters is None else {
        coprime: _trail_shape(filters, coprime) for coprime in (False, True)
    }
    memo, memo_p = {}, None
    for record in records:
        if record.p != memo_p:
            memo.clear()
            memo_p = record.p
        try:
            _verify_one(record, shapes, memo)
        except CrossCheckError as exc:
            raise CrossCheckError(
                f"{kind} p={record.p} q={record.q} q'={record.q_prime}: {exc}"
            ) from None
        yield record


def verify_pairs(pairs, *, filters=None):
    """Re-derive every pair verdict from definitional oracles.

    Uses the O(p) direct Dedekind sum and, from one scan of the units of
    p, each unit's coset of the unit squares (q = q' u^2 for a unit u
    exactly when q and q' share a coset), apart from the residue table,
    reciprocity and square roots the engine ran with.  In one call each
    residue's gcd, direct sum and coset are built once.  Every pass/fail
    is recomputed, and so are the witness's delta, Dedekind values,
    congruence unit and unit squares, each of its type (True is not 1).
    A failing verdict's reason must be the text its formatter
    (distance_reason, parity_reason, congruence_reason, dedekind_reason)
    gives for the oracle's values and this pair's q and q'; the engine
    shares the formatters, so a bug in one is caught only by the report
    goldens.  Any other witness key is rejected.  With `filters` (as for
    enumerate_pairs) a trail must hold exactly those filters and parity,
    in FILTER_ORDER, with congruence and Dedekind absent after a parity
    failure; without it, any in-order subset that includes parity is
    accepted.  Raises CrossCheckError on the first disagreement; returns
    the number of pairs checked.
    """
    if filters is not None:
        filters = _normalize_filters(filters)
    return sum(1 for _ in _verified(pairs, "pair", filters))


def verify_families(families):
    """verify_pairs for residue families, which carry all four filters,
    so none survives beyond the exceptional distance bound."""
    return sum(1 for _ in _verified(families, "family", SELECTABLE_FILTERS))
