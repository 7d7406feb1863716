"""Definitional oracles that re-derive every verdict the engine produces.

`verify_pairs` and `verify_families` recompute each filter from its
definition: the O(p) direct Dedekind sum (Rademacher-Grosswald), and
cosets of the unit squares from one scan of the units of p.  They read
none of the engine's tables or caches, and this module never imports the
engine.  The oracles read q only through q mod p, so within one verify
pass they are memoized per residue; the memo is cleared whenever p
changes.  A trail object of read-only Witness witnesses is checked once
per class (q mod p, gap, whether 0 is a slope), p and surviving flag; a
plain-dict trail is checked per pair.  A witness holds numbers only: a
reason text is rendered by the report and never stored, so a stored
"reason" key is an extra key.  The CLI exits 2 on a mismatch.
"""

from math import gcd

from . import CrossCheckError
from .dedekind import direct_numerator
from .obstructions import (
    EXCEPTIONAL_DISTANCE_BOUND,
    FILTER_ORDER,
    SELECTABLE_FILTERS,
    ObstructionVerdict,
    Witness,
    _normalize_filters,
)


def _mismatch(verdict, want, fields):
    # Run once an inline check has failed.  Raises for a pass/fail flag
    # that is not the boolean `want`, then for the first missing or wrong
    # witness field (of its type: True is not 1), else for any other key.
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
             if isinstance(w, dict) else [w])
    if extra:
        raise CrossCheckError(f"{name} witness has an extra key {extra[0]!r}")


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
    # Against the oracles' residue facts; _mismatch runs only to raise.
    # `key` is (q mod p, gap, whether 0 is a slope, surviving).  True if
    # the trail is a tuple of verdicts, each with a Witness or no witness.
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
    delta, all_passed = p * gap, True
    sealed = type(verdicts) is tuple
    for v in verdicts:
        name, passed, w = v
        want = (delta <= EXCEPTIONAL_DISTANCE_BOUND if name == "distance"
                else coprime if name == "parity"
                else p == 1 or label == label_prime if name == "congruence"
                else s_q == s_q_prime)
        if passed is not want:
            _mismatch(v, want, {})
        all_passed = all_passed and want
        read_only = type(w) is Witness
        mapping = read_only or type(w) is dict
        sealed &= (read_only or w is None) and type(v) is ObstructionVerdict
        # A witness holds exactly its filter's fields, and no text.
        if name == "distance":
            if (not mapping or w.get("delta") != delta
                    or type(w["delta"]) is not int or len(w) != 1):
                _mismatch(v, want, {"delta": delta})
        elif name == "dedekind":
            if (not mapping or w.get("s_q") != s_q
                    or w.get("s_q_prime") != s_q_prime or len(w) != 2):
                _mismatch(v, want, {"s_q": s_q, "s_q_prime": s_q_prime})
        elif name == "congruence" and not want:
            squares = memo["cosets"][0]
            if (not mapping or w.get("unit_squares") != squares
                    or len(w) != 1):
                _mismatch(v, want, {"unit_squares": squares})
            first = w["unit_squares"][0]  # equal tuples: True == 1 slips by
            if type(first) is not int:
                raise CrossCheckError("congruence witness unit square "
                                      f"{first!r} is not an integer")
        elif name == "congruence":
            if not mapping or "unit" not in w:
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
        elif w or not (want or mapping):  # parity: {} or no witness
            _mismatch(v, want, {})
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
    # A trail no one can edit, checked in full for a class and flag, needs
    # no second check; `trails` holds it, so no other object takes its id.
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
    exactly when q and q' share a coset), apart from the residue table,
    reciprocity and square roots the engine ran with.  In one call each
    residue's gcd, direct sum and coset are built once, and each trail
    object of read-only Witness witnesses is checked once per class and
    p; a plain-dict trail is checked per pair.  A record must be
    a pair p/q, p/q' of integers with p >= 1 and q < q'.  Every pass/fail
    and surviving flag is recomputed, and so are the witness's delta,
    Dedekind values, congruence unit and unit squares, each of its type
    (a flag is a bool, so 1 is not True; True is not 1; a list is not the
    tuple of unit squares).  Any other witness key is rejected, a stored
    "reason" included: reasons are rendered from these numbers
    (obstructions.reason) and never stored.  A failing parity witness is
    {}.  With `filters` (as for enumerate_pairs) a trail must hold
    exactly those filters and parity, in FILTER_ORDER, with congruence
    and Dedekind absent after a parity failure; without it, any in-order
    subset that includes parity is accepted.  Raises CrossCheckError on
    the first disagreement; returns the number of pairs checked.
    """
    if filters is not None:
        filters = _normalize_filters(filters)
    return sum(1 for _ in _verified(pairs, "pair", filters))


def verify_families(families):
    """verify_pairs for residue families, which carry all four filters,
    so none survives beyond the exceptional distance bound."""
    return sum(1 for _ in _verified(families, "family", SELECTABLE_FILTERS))
