"""Definitional oracles that re-derive every verdict the engine produces.

`verify_pairs` and `verify_families` recompute each filter from its
definition: the O(p) direct Dedekind sum (Rademacher-Grosswald), and
cosets of the unit squares from one scan of the units of p.  They read
none of the engine's tables or caches, and this module never imports the
engine.  The oracles read q only through q mod p, so within one verify
pass they are memoized per residue; the memo is cleared whenever p
changes.  A trail whose witnesses are each None or their filter's
Witness shape, which no call can edit, is checked once per class (q mod
p, gap, whether 0 is a slope), p and surviving flag; any other trail,
per pair.  The CLI exits 2 on a mismatch.
"""

from math import gcd

from . import CrossCheckError
from .dedekind import direct_numerator
from .obstructions import (
    EXCEPTIONAL_DISTANCE_BOUND, FILTER_ORDER, SELECTABLE_FILTERS,
    DedekindWitness, DeltaWitness, EmptyWitness, ObstructionVerdict,
    UnitSquaresWitness, UnitWitness, Witness, _normalize_filters)


def _mismatch(verdict, want, fields):
    # Run when an inline check fails.  Raises for a flag that is not the
    # boolean `want`, then for the first missing or wrong witness field (of
    # its type: True is not 1), then for any other key; else returns False.
    name, passed, w = verdict
    if type(passed) is not bool:
        raise CrossCheckError(f"{name} verdict's passed flag {passed!r} is "
                              "not a boolean")
    if passed != want:
        raise CrossCheckError(
            f"{name} verdict says {'pass' if passed else 'fail'} but the "
            f"oracle says {'pass' if want else 'fail'}")
    for key, value in fields.items():
        try:
            got = w[key]
        except (KeyError, TypeError):
            raise CrossCheckError(f"{name} witness has no {key!r}") from None
        if type(got) is not type(value) or got != value:
            raise CrossCheckError(f"{name} witness {key} is {got!r} but the "
                                  f"oracle gives {value!r}")
    extra = ([key for key in w if key not in fields]
             if isinstance(w, (dict, Witness)) else [w])
    if extra:
        raise CrossCheckError(f"{name} witness has an extra key {extra[0]!r}")
    return False


def _coset_labels(p):
    # From one scan of the units of p: the unit squares, ascending, and at
    # each unit the least unit of its coset (q = q' u^2 iff labels agree).
    units = [u for u in range(1, p) if gcd(u, p) == 1]
    squares = tuple(sorted({u * u % p for u in units}))
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


def _verify_one(record, key, shapes, memo):
    # Against the oracles' residue facts.  `key` is (q mod p, gap, whether
    # 0 is a slope, surviving).  True if the trail is sealed: a tuple of
    # ObstructionVerdicts whose witnesses are None or their filter's shape.
    p, q, q_prime, verdicts, surviving = record
    (r, gap, meridian, _), r_prime = key, q_prime % p
    g, s_q, label = memo.get(r) or _oracle_facts(memo, r, p, shapes)
    h, s_q_prime, label_prime = (memo.get(r_prime)
                                 or _oracle_facts(memo, r_prime, p, shapes))
    # Both p/q and p/q' primitive, and neither the meridian 1/0.
    coprime = not meridian and g == h == 1
    names = [v.filter_name for v in verdicts]
    expected_names = (_trail_shape(names, coprime) if shapes is None
                      else shapes[coprime])
    if names != expected_names:
        raise CrossCheckError(f"trail has filters {names}, expected "
                              f"{expected_names}")
    delta, all_passed, sealed = p * gap, True, type(verdicts) is tuple
    for v in verdicts:
        name, passed, w = v
        want = (delta <= EXCEPTIONAL_DISTANCE_BOUND if name == "distance"
                else coprime if name == "parity"
                else p == 1 or label == label_prime if name == "congruence"
                else s_q == s_q_prime)
        if passed is not want:
            _mismatch(v, want, {})
        all_passed = all_passed and want
        sealed = sealed and type(v) is ObstructionVerdict
        # A witness holds exactly its filter's fields, and no text.
        if name == "distance":
            if (type(w) is not DeltaWitness or w.delta != delta
                    or type(w.delta) is not int):
                sealed = _mismatch(v, want, {"delta": delta})
        elif name == "dedekind":
            if (type(w) is not DedekindWitness or w.s_q != s_q
                    or w.s_q_prime != s_q_prime):
                sealed = _mismatch(v, want, {"s_q": s_q,
                                             "s_q_prime": s_q_prime})
        elif name == "congruence" and not want:
            squares = memo["cosets"][0]
            if type(w) is not UnitSquaresWitness or w.unit_squares != squares:
                sealed = _mismatch(v, want, {"unit_squares": squares})
            first = w["unit_squares"][0]  # equal tuples: True == 1 slips by
            if type(first) is not int:
                raise CrossCheckError("congruence witness unit square "
                                      f"{first!r} is not an integer")
        elif name == "congruence":
            try:
                u = w.unit if type(w) is UnitWitness else w["unit"]
            except (KeyError, TypeError):
                raise CrossCheckError("congruence witness has no 'unit'"
                                      ) from None
            if type(u) is not int:
                raise CrossCheckError(f"recorded congruence unit {u!r} is "
                                      "not an integer")
            if not ((u == 0) if p == 1 else 1 <= u < p and gcd(u, p) == 1
                    and (q - q_prime * u * u) % p == 0):
                raise CrossCheckError(f"recorded congruence unit {u} does "
                                      f"not satisfy q = q' u^2 (mod {p})")
            if type(w) is not UnitWitness:
                sealed = _mismatch(v, want, {"unit": u})
        elif (w is not None) if want else (type(w) is not EmptyWitness):
            sealed = _mismatch(v, want, {})  # parity: None or empty
    if surviving is not all_passed:
        raise CrossCheckError(
            "surviving flag is inconsistent with the trail"
            if type(surviving) is bool
            else f"surviving flag {surviving!r} is not a boolean")
    return sealed


def _verified(records, kind, filters):
    # Yields each record once the oracles agree with it; without `filters`
    # a trail's shape comes from its own filter names.  Mismatches get
    # their location here, so its text is built only on failure.
    shapes = None if filters is None else {
        coprime: _trail_shape(filters, coprime) for coprime in (False, True)
    }
    # A sealed trail, which no call can edit, needs one full check per
    # class and flag; `trails` holds it, so no other object takes its id.
    memo, trails, memo_p = {}, {}, None
    for record in records:
        p, q, q_prime, verdicts, surviving = record
        if p != memo_p:
            memo, trails, memo_p = {}, {}, p
        try:
            if not (type(p) is type(q) is type(q_prime) is int and 0 < p
                    and q < q_prime):
                raise CrossCheckError("not a pair p/q, p/q' with integers "
                                      "p >= 1 and q < q'")
            key = q % p, q_prime - q, 0 in (q, q_prime), surviving
            if type(surviving) is not bool or trails.get(key) is not verdicts:
                if _verify_one(record, key, shapes, memo):
                    trails[key] = verdicts
        except CrossCheckError as exc:
            raise CrossCheckError(
                f"{kind} p={p} q={q} q'={q_prime}: {exc}") from None
        yield record


def verify_pairs(pairs, *, filters=None):
    """Re-derive every pair verdict from definitional oracles.

    Uses the O(p) direct Dedekind sum and, from one scan of the units of
    p, each unit's coset of the unit squares (q = q' u^2 for a unit u
    exactly when q and q' share a coset), not the engine's residue table,
    reciprocity or square roots.  A record must be a pair p/q, p/q' of
    integers with p >= 1 and q < q'.  Every pass/fail and surviving flag
    is recomputed, and so are the witness's numbers, each of its type (a
    flag is a bool, so 1 is not True; True is not 1; a list is not the
    tuple of unit squares).  Any other witness key is rejected, a stored
    "reason" included: obstructions.reason renders reasons.  A failing
    parity witness is empty.  With `filters` (as for enumerate_pairs) a
    trail must hold exactly those filters and parity, in FILTER_ORDER,
    with congruence and Dedekind absent after a parity failure; without
    it, any in-order subset that includes parity is accepted.  A trail
    of Witness shapes is checked once per class and p, any other per
    pair.  Raises CrossCheckError on the first disagreement; returns the
    number of pairs checked.
    """
    if filters is not None:
        filters = _normalize_filters(filters)
    return sum(1 for _ in _verified(pairs, "pair", filters))


def verify_families(families):
    """verify_pairs for residue families, which carry all four filters,
    so none survives beyond the exceptional distance bound."""
    return sum(1 for _ in _verified(families, "family", SELECTABLE_FILTERS))
