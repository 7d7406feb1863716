import random
import subprocess
import sys
import tracemalloc
from functools import partial
from itertools import islice
from math import gcd

import pytest

from cosmetic import engine, obstructions, oracle
from cosmetic.cli import main
from cosmetic.engine import (
    EXCEPTIONAL_DISTANCE_BOUND,
    FILTER_ORDER,
    CrossCheckError,
    PairVerdict,
    classify_candidates,
    enumerate_pairs,
    replicate_theorem,
    run_classification,
    run_enumeration,
    stream_enumeration,
    surviving_families,
    verify_families,
    verify_pairs,
)
from cosmetic.invariants import cosmetic_dedekind_obstruction
from cosmetic.obstructions import (
    GeometryClass,
    ObstructionVerdict,
    Witness,
    linking_congruence,
    parity_filter,
    reason,
)
from cosmetic.report import emit_report


def _keys(families):
    return [(f.p, f.q_residue, f.gap) for f in families]


def test_constants():
    assert EXCEPTIONAL_DISTANCE_BOUND == 8
    assert FILTER_ORDER == ("distance", "parity", "congruence", "dedekind")


def test_family_enumeration_order():
    families = classify_candidates(2)
    assert _keys(families) == [
        (2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2),
        (2, 0, 3), (2, 1, 3), (2, 0, 4), (2, 1, 4),
    ]
    assert classify_candidates(9) == []
    assert classify_candidates(100) == []
    with pytest.raises(ValueError):
        classify_candidates(0)


def test_classify_rejects_a_modulus_that_is_not_an_int():
    # Bad input, not a failed cross-check: the oracle would reject the
    # families these would make.
    for p in (True, 2.0):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            classify_candidates(p)


def test_survivors_per_p():
    assert _keys(surviving_families(1)) == [(1, 0, g) for g in range(1, 9)]
    assert _keys(surviving_families(2)) == [(2, 1, 2), (2, 1, 4)]
    assert _keys(surviving_families(5)) == [(5, 2, 1)]
    for p in (3, 4, 6, 7, 8):
        assert surviving_families(p) == []


def test_family_descriptions():
    assert surviving_families(5)[0].describe() == "p = 5, q = 2 (mod 5), q' = q + 1"
    assert surviving_families(1)[0].describe() == "p = 1, any q, q' = q + 1"
    assert surviving_families(5)[0].delta == 5
    assert surviving_families(5)[0].q == 2
    assert surviving_families(1)[0].q == 1


def test_p2_survivors_have_zero_dedekind_sums():
    for family in surviving_families(2):
        verdicts = {v.filter_name: v for v in family.verdicts}
        assert verdicts["dedekind"].witness == {"s_q": "0/1", "s_q_prime": "0/1"}


def test_mod7_exclusion_shows_golden_values():
    families = {(f.q_residue, f.gap): f for f in classify_candidates(7)}
    trail = {v.filter_name: v for v in families[(5, 1)].verdicts}
    assert trail["parity"].passed
    assert trail["congruence"].passed
    assert not trail["dedekind"].passed
    assert trail["dedekind"].witness["s_q"] == "-1/14"
    assert trail["dedekind"].witness["s_q_prime"] == "-5/14"


def test_every_family_verdict_matches_oracles():
    families = []
    for p in range(1, 9):
        families.extend(classify_candidates(p))
    assert len(families) == 56
    assert verify_families(families) == 56


def test_verify_catches_forged_survival():
    family = surviving_families(5)[0]
    tampered = tuple(
        ObstructionVerdict("dedekind", False, {"reason": "forged"})
        if v.filter_name == "dedekind" else v
        for v in family.verdicts
    )
    bad = PairVerdict(family.p, family.q, family.q_prime, tampered, False)
    with pytest.raises(CrossCheckError):
        verify_families([bad])


def test_verify_checks_congruence_witness():
    pair = next(iter(enumerate_pairs([5], [2, 3])))
    assert pair.q == 2 and pair.q_prime == 3
    forged = tuple(
        ObstructionVerdict("congruence", True, {"unit": 4})
        if v.filter_name == "congruence" else v
        for v in pair.verdicts
    )
    bad = PairVerdict(pair.p, pair.q, pair.q_prime, forged, pair.surviving)
    with pytest.raises(CrossCheckError):
        verify_pairs([bad])
    # An integer witness field must be an int: True would print as true.
    (p7,) = run_enumeration([7], [1, 8]).pairs
    (p1,) = run_enumeration([1], [1, 2]).pairs
    (p3,) = run_enumeration([3], [1, 2]).pairs
    assert p3.verdicts[2].witness["unit_squares"] == (1,)
    for record, verdict in [
        *((pair, ObstructionVerdict("congruence", True, {"unit": unit}))
          for unit in (None, "1", 1.0)),
        (p7, ObstructionVerdict("congruence", True, {"unit": True})),
        (p1, ObstructionVerdict("distance", True, {"delta": True})),
        (p3, ObstructionVerdict("congruence", False, {
            "unit_squares": (True,)})),
        # Equal as a list, but a list is not the tuple of unit squares.
        (p3, ObstructionVerdict("congruence", False, {"unit_squares": [1]})),
    ]:
        with pytest.raises(CrossCheckError):
            verify_pairs([_swapped(record, verdict)])


def test_theorem_table_sections():
    table = replicate_theorem()
    assert _keys(table.families_for(GeometryClass.REDUCIBLE)) == [(1, 0, 1)]
    assert _keys(table.families_for(GeometryClass.SEIFERT_TOROIDAL)) == [(1, 0, 1)]
    small = _keys(table.families_for(GeometryClass.SMALL_SEIFERT_INFINITE))
    assert small == [(1, 0, g) for g in range(1, 9)] + [(2, 1, 2), (2, 1, 4), (5, 2, 1)]
    toroidal = _keys(table.families_for(GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT))
    assert toroidal == [(1, 0, 1), (1, 0, 2), (1, 0, 3)]
    assert table.families_for(GeometryClass.FINITE_PI1) == ()
    assert table.note_for(GeometryClass.FINITE_PI1)
    assert len(table.evaluated) == 56


def test_theorem_table_deterministic():
    first = emit_report(replicate_theorem(), "json")
    second = emit_report(replicate_theorem(), "json")
    assert first.encode() == second.encode()


def test_enumerate_survivors_mod5():
    result = run_enumeration([5], range(1, 31))
    got = [(pv.q, pv.q_prime) for pv in result.surviving]
    assert got == [(2, 3), (7, 8), (12, 13), (17, 18), (22, 23), (27, 28)]
    for pv in result.surviving:
        assert pv.gap == 1 and pv.delta == 5


def test_enumerate_no_survivors_mod7():
    result = run_enumeration([7], range(1, 21))
    assert result.surviving == ()
    assert result.pairs


def test_enumerate_with_distance_only():
    result = run_enumeration([1], range(1, 4), filters=["distance"])
    assert [(pv.q, pv.q_prime) for pv in result.pairs] == [(1, 2), (1, 3), (2, 3)]
    assert all(pv.surviving for pv in result.pairs)
    names = {v.filter_name for pv in result.pairs for v in pv.verdicts}
    assert names == {"distance", "parity"}


def test_enumerate_takes_both_slopes_from_the_range():
    pairs = list(enumerate_pairs([3], [1, 2, 10], max_gap=8))
    assert [(pv.q, pv.q_prime) for pv in pairs] == [(1, 2), (2, 10)]


def test_serial_and_parallel_agree():
    serial = run_enumeration(range(1, 9), range(1, 121), jobs=1, verify=False)
    parallel = run_enumeration(range(1, 9), range(1, 121), jobs=3, verify=False)
    assert serial.pairs == parallel.pairs
    assert serial.filters == parallel.filters
    # Line lists, not whole texts: a failing comparison of two long texts
    # makes pytest build a diff for minutes.
    assert (emit_report(serial, "csv").splitlines(keepends=True)
            == emit_report(parallel, "csv").splitlines(keepends=True))


def test_unknown_filter_rejected():
    with pytest.raises(ValueError):
        run_enumeration([1], [1, 2], filters=["casson"])


def test_warning_when_distance_filter_disabled():
    loose = run_enumeration([3], range(1, 10), filters=["congruence", "dedekind"],
                            verify=False)
    assert loose.warnings
    tight = run_enumeration([1], range(1, 10), filters=["congruence", "dedekind"],
                            verify=False)
    assert tight.warnings == ()


def test_warning_is_decided_before_the_sweep():
    # The up-front rule agrees with reading the finished pairs.
    rng = random.Random(14)
    for _ in range(300):
        ps = rng.sample(range(1, 12), rng.randint(1, 3))
        qs = rng.sample(range(-5, 40), rng.randint(0, 8))
        max_gap = rng.randint(1, 12)
        for filters in (["congruence"], ["distance"]):
            result = run_enumeration(ps, qs, filters=filters,
                                     max_gap=max_gap, verify=False)
            beyond = any(pv.delta > EXCEPTIONAL_DISTANCE_BOUND
                         for pv in result.pairs)
            assert bool(result.warnings) == (beyond and "distance"
                                             not in filters)


def test_sweep_memory_is_flat_in_the_q_range():
    # A range of q is used as it is, never copied into a list or a set.
    def peak(n):
        tracemalloc.start()
        try:
            result = stream_enumeration([7], range(1, n + 1), ["distance"],
                                        max_gap=1, verify=False)
            assert len(list(islice(result.pairs, 10))) == 10
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20_000)  # the first sweep's one-time allocations
    assert peak(200_000) <= 1.25 * peak(20_000)
    # Other iterables are sorted and deduplicated, as a range already is.
    for qs in (range(1, 40, 3), range(39, 0, -3), [7, 1, 7, 4, 37]):
        expected = run_enumeration([3, 5], sorted(set(qs)))
        assert run_enumeration([3, 5], qs) == expected


def test_sweep_takes_only_integers():
    # Nothing is rounded: 5.7 and 1.5 are not p 5 and q 1.
    for ps, qs, bad in (([5.7], [1.5, 2.9], "p values must be integers, "
                         "not 5.7"),
                        ([5], [1, 2.0], "q values must be integers, not 2.0"),
                        ([5], [1, True], "q values must be integers, not "
                         "True"),
                        ([True], range(1, 5), "p values must be integers, "
                         "not True"),
                        ([3], ["1", "2"], "q values must be integers, not "
                         "'1'")):
        with pytest.raises(ValueError, match=bad):
            run_enumeration(ps, qs)
    # So are the settings: max_gap=True is not gap 1, nor 2.5 a gap.
    for settings, bad in (({"max_gap": True}, "max_gap must be an integer, "
                           "not True"),
                          ({"max_gap": 2.5}, "max_gap must be an integer, "
                           "not 2.5"),
                          ({"jobs": True}, "jobs must be an integer, not "
                           "True"),
                          ({"jobs": 1.0}, "jobs must be an integer, not "
                           "1.0")):
        with pytest.raises(ValueError, match=f"^{bad}$"):
            run_enumeration([7], range(1, 4), **settings)
        with pytest.raises(ValueError, match=f"^{bad}$"):
            list(enumerate_pairs([7], range(1, 4), **settings))
    assert run_enumeration([7], range(1, 4)).max_gap == 8


def test_sparse_sweep_costs_its_pairs_not_its_span():
    # Two q 10^12 apart make one pair; the sweep must not try every gap.
    code = ("from cosmetic.engine import run_enumeration\n"
            "result = run_enumeration([1], [0, 10**12], max_gap=10**13)\n"
            "assert [(pv.q, pv.q_prime) for pv in result.pairs] == "
            "[(0, 10**12)]\n"
            "loose = run_enumeration([1], [0, 10**12], ['congruence'],\n"
            "                        max_gap=10**13)\n"
            "assert loose.warnings\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=30)


def test_run_classification_verifies_by_default():
    result = run_classification(6)
    assert result.p == 6
    assert result.surviving == ()
    assert len(result.families) == 6


def test_sweep_rejects_jobs_below_one():
    for jobs in (0, -2):
        sweep = enumerate_pairs([1], range(1, 10), "all", None, jobs)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            list(sweep)


def test_meridian_pairs_do_not_survive():
    result = run_enumeration([1], range(0, 3))
    by_pair = {(pv.q, pv.q_prime): pv for pv in result.pairs}
    assert [key for key, pv in by_pair.items() if pv.surviving] == [(1, 2)]
    for key in ((0, 1), (0, 2)):
        parity = {v.filter_name: v for v in by_pair[key].verdicts}["parity"]
        assert not parity.passed and parity.witness == {}
        assert "meridian" in reason(1, *key, parity)
    forged = PairVerdict(1, 0, 1, (ObstructionVerdict("parity", True),), True)
    with pytest.raises(CrossCheckError):
        verify_pairs([forged])


def test_verify_requires_the_selected_filters():
    # p = 7, q = 1, q' = 2 fails only Dedekind; with that verdict dropped
    # the trail reads as a survivor.
    (pair,) = run_enumeration([7], [1, 2]).pairs
    assert [v.passed for v in pair.verdicts] == [True, True, True, False]
    dropped = pair._replace(verdicts=pair.verdicts[:3], surviving=True)
    with pytest.raises(CrossCheckError, match="trail has filters"):
        verify_pairs([dropped], filters="all")
    assert verify_pairs([dropped]) == 1  # no filters given: any subset
    reordered = pair._replace(verdicts=pair.verdicts[::-1])
    with pytest.raises(CrossCheckError, match="trail has filters"):
        verify_pairs([reordered])
    # Families always carry all four filters.
    family = classify_candidates(7)[0]
    no_distance = family._replace(verdicts=family.verdicts[1:])
    with pytest.raises(CrossCheckError, match="trail has filters"):
        verify_families([no_distance])


def test_verify_reports_a_missing_witness_key():
    (pair,) = run_enumeration([7], [1, 2]).pairs
    stripped = tuple(
        ObstructionVerdict(v.filter_name, v.passed, {"reason": "no values"})
        if v.filter_name == "dedekind" else v
        for v in pair.verdicts
    )
    with pytest.raises(CrossCheckError, match="witness has no 's_q'"):
        verify_pairs([pair._replace(verdicts=stripped)])


def _corrupted(value):
    if isinstance(value, tuple):
        return value[1:]
    if isinstance(value, str):
        return "forged"
    return value + 1000


def _mutants(record):
    """Each verdict flipped, dropped, with its flag an int, with each
    witness field corrupted, with a key its filter never writes (a stored
    reason included), and the surviving flag flipped or an int: every
    single-point corruption of the record."""
    def rebuild(verdicts):
        return record._replace(verdicts=tuple(verdicts),
                               surviving=all(v.passed for v in verdicts))

    trail = list(record.verdicts)
    for i, v in enumerate(trail):
        witness = v.witness if v.witness is not None else {}
        flipped = ObstructionVerdict(v.filter_name, not v.passed, witness)
        yield rebuild(trail[:i] + [flipped] + trail[i + 1:])
        yield rebuild(trail[:i] + trail[i + 1:])
        yield rebuild(trail[:i] + [v._replace(passed=int(v.passed))]
                      + trail[i + 1:])
        for key in v.witness or {}:
            bad = dict(v.witness, **{key: _corrupted(v.witness[key])})
            forged = ObstructionVerdict(v.filter_name, v.passed, bad)
            yield rebuild(trail[:i] + [forged] + trail[i + 1:])
        for key in ("extra", "reason"):
            extra = ObstructionVerdict(v.filter_name, v.passed,
                                       {**(v.witness or {}), key: "forged"})
            yield rebuild(trail[:i] + [extra] + trail[i + 1:])
    yield record._replace(surviving=not record.surviving)
    yield record._replace(surviving=int(record.surviving))


@pytest.mark.parametrize("sweep", [
    lambda: run_enumeration(range(1, 9), range(1, 25)),
    lambda: run_enumeration([131], range(1, 31),
                            filters=["congruence", "dedekind"]),
    lambda: run_enumeration([120], range(1, 31),
                            filters=["congruence", "dedekind"]),
], ids=["p1-8-all-filters", "p131-congruence-dedekind",
        "p120-congruence-dedekind"])
def test_verify_rejects_every_single_point_corruption(sweep):
    # Alone, and right after its good record, so that the mutant meets
    # the oracle with its class's trail already checked.
    result = sweep()
    assert verify_pairs(result.pairs, filters=result.filters)
    for record in result.pairs:
        for mutant in _mutants(record):
            for records in ([mutant], [record, mutant]):
                with pytest.raises(CrossCheckError):
                    verify_pairs(records, filters=result.filters)


def test_verify_memoizes_oracles_per_residue(monkeypatch):
    calls = []

    def counted(q, p):
        calls.append((q % p, p))
        return direct(q, p)

    direct = oracle.direct_numerator
    monkeypatch.setattr(oracle, "direct_numerator", counted)
    obstructions._unit_squares.cache_clear()
    result = run_enumeration([127, 131], range(1, 101),
                             filters=["congruence", "dedekind"])
    assert len(result.pairs) == 2 * 764
    assert len(calls) == len(set(calls))
    assert obstructions._unit_squares.cache_info().misses == 2
    # The oracle pass never reads the engine's square-root table, and it
    # scans for the units of each p once: gcd(p - 1, p) is the scan's last
    # call, and no pair here holds q = p - 1.
    scans = []

    def counted_gcd(a, b):
        if a == b - 1:
            scans.append(b)
        return gcd(a, b)

    monkeypatch.setattr(oracle, "gcd", counted_gcd)
    before = obstructions._unit_squares.cache_info()
    verify_pairs(result.pairs, filters=result.filters)
    assert obstructions._unit_squares.cache_info() == before
    assert scans == [127, 131]


def _swapped(record, verdict):
    return record._replace(verdicts=tuple(
        verdict if v.filter_name == verdict.filter_name else v
        for v in record.verdicts
    ))


def _error(check, records, **kwargs):
    with pytest.raises(CrossCheckError) as info:
        check(records, **kwargs)
    return str(info.value)


def test_verify_error_texts_are_pinned():
    # The CLI prints these on exit 2, one per kind of disagreement.
    (p7,) = run_enumeration([7], [1, 2]).pairs
    (p5,) = run_enumeration([5], [2, 3]).pairs
    (p6,) = run_enumeration([6], [2, 3]).pairs
    (meridian,) = run_enumeration([1], [0, 1]).pairs
    dedekind = p7.verdicts[3]
    at = "pair p=7 q=1 q'=2: "
    dropped = p7._replace(verdicts=p7.verdicts[:3], surviving=True)
    assert _error(verify_pairs, [dropped], filters="all") == (
        at + "trail has filters ['distance', 'parity', 'congruence'], "
        "expected ['distance', 'parity', 'congruence', 'dedekind']")
    flipped = _swapped(p7, dedekind._replace(passed=True))
    assert _error(verify_pairs, [flipped._replace(surviving=True)]) == (
        at + "dedekind verdict says pass but the oracle says fail")
    stripped = _swapped(p7, dedekind._replace(witness={"reason": "none"}))
    assert _error(verify_pairs, [stripped]) == (
        at + "dedekind witness has no 's_q'")
    wrong = _swapped(p7, dedekind._replace(
        witness={**dedekind.witness, "s_q_prime": "1/2"}))
    assert _error(verify_pairs, [wrong]) == (
        at + "dedekind witness s_q_prime is '1/2' but the oracle gives "
        "'1/14'")
    half = ObstructionVerdict(
        "parity", False, {"reason": "gcd(2, 6) = 2, so not a slope pair"})
    assert _error(verify_pairs, [_swapped(p6, half)]) == (
        "pair p=6 q=2 q'=3: parity witness has an extra key 'reason'")
    forged = ObstructionVerdict("parity", False, {"reason": "forged"})
    assert _error(verify_pairs, [_swapped(meridian, forged)]) == (
        "pair p=1 q=0 q'=1: parity witness has an extra key 'reason'")
    unit = ObstructionVerdict("congruence", True, {"unit": 4})
    assert _error(verify_pairs, [_swapped(p5, unit)]) == (
        "pair p=5 q=2 q'=3: recorded congruence unit 4 does not satisfy "
        "q = q' u^2 (mod 5)")
    assert _error(verify_pairs, [p7._replace(surviving=True)]) == (
        at + "surviving flag is inconsistent with the trail")
    # A flag is a boolean: 1 is not True, and 0 is not False.
    ones = p5._replace(surviving=1, verdicts=tuple(
        v._replace(passed=1) for v in p5.verdicts))
    assert _error(verify_pairs, [ones]) == (
        "pair p=5 q=2 q'=3: distance verdict's passed flag 1 is not a "
        "boolean")
    zero = _swapped(p7, dedekind._replace(passed=0))
    assert _error(verify_pairs, [zero]) == (
        at + "dedekind verdict's passed flag 0 is not a boolean")
    assert _error(verify_pairs, [p5._replace(surviving=1)]) == (
        "pair p=5 q=2 q'=3: surviving flag 1 is not a boolean")
    (survivor,) = surviving_families(5)
    assert _error(verify_families, [survivor._replace(surviving=1)]) == (
        "family p=5 q=2 q'=3: surviving flag 1 is not a boolean")
    family = classify_candidates(1)[-1]
    assert family.gap == 8 and family.surviving
    beyond = family._replace(q_prime=10, verdicts=(
        ObstructionVerdict("distance", True, {"delta": 9}),
        *family.verdicts[1:]))
    assert _error(verify_families, [beyond]) == (
        "family p=1 q=1 q'=10: distance verdict says pass but the oracle "
        "says fail")
    extra = _swapped(p7, dedekind._replace(
        witness={**dedekind.witness, "unit": 1}))
    assert _error(verify_pairs, [extra]) == (
        at + "dedekind witness has an extra key 'unit'")
    # A reason is rendered, never stored: even the right text is an extra
    # key, on a failing verdict of each filter.
    (p3_far,) = run_enumeration([3], [1, 4]).pairs
    (p3,) = run_enumeration([3], [1, 2]).pairs
    for record, i, name in ((p7, 3, "dedekind"), (p3_far, 0, "distance"),
                            (p3, 2, "congruence"), (p6, 1, "parity")):
        v = record.verdicts[i]
        assert v.filter_name == name and not v.passed
        told = _swapped(record, v._replace(witness={
            **v.witness, "reason": reason(*record[:3], v)}))
        assert _error(verify_pairs, [told]).endswith(
            f": {name} witness has an extra key 'reason'")


def test_verify_builds_each_residue_fact_once(monkeypatch):
    calls = []

    def counted(memo, r, p, shapes):
        calls.append((p, r))
        return facts(memo, r, p, shapes)

    facts = oracle._oracle_facts
    monkeypatch.setattr(oracle, "_oracle_facts", counted)
    sweep = enumerate_pairs(range(1, 9), range(50000, 51200))
    assert verify_pairs(sweep, filters="all") == 8 * (1200 * 8 - 36)
    assert len(calls) == len(set(calls))
    for p in range(1, 9):
        assert sum(1 for key in calls if key[0] == p) <= p


def test_coset_labels_match_the_unit_search():
    for p in range(1, 65):
        squares, labels = oracle._coset_labels(p)
        units = [u for u in range(1, p) if gcd(u, p) == 1] or [0]
        assert squares == tuple(sorted({u * u % p for u in units if u}))
        for a in units:
            for b in units:
                related = any((a - b * u * u) % p == 0 for u in units)
                assert (labels[a] == labels[b]) == related, (p, a, b)


def _chain(p, q, q_prime, chosen):
    # One pair by definition: the distance bound, then the validated
    # one-shot filters, with congruence and Dedekind only after a parity
    # pass.
    verdicts = []
    if "distance" in chosen:
        delta = p * (q_prime - q)
        verdicts.append(ObstructionVerdict("distance", delta <= 8,
                                           {"delta": delta}))
    verdicts.append(parity_filter(p, q, q_prime))
    if verdicts[-1].passed:
        if "congruence" in chosen:
            verdicts.append(linking_congruence(p, q, q_prime))
        if "dedekind" in chosen:
            verdicts.append(cosmetic_dedekind_obstruction(p, q, q_prime))
    return PairVerdict(p, q, q_prime, tuple(verdicts),
                       all(v.passed for v in verdicts))


def _pairwise(ps, qs, filters, max_gap):
    # The sweep by definition: the whole filter chain on every pair.
    chosen = obstructions._normalize_filters(filters)
    members = set(qs)
    return [
        _chain(p, q, q + gap, chosen)
        for p in sorted(set(ps)) for q in sorted(members)
        for gap in range(1, (max_gap or EXCEPTIONAL_DISTANCE_BOUND) + 1)
        if q + gap in members
    ]


def _witness_keys(records):
    return [[list(v.witness or ()) for v in r.verdicts] for r in records]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("filters", ["all", [], ["distance"],
                                     ["congruence", "dedekind"]],
                         ids=["all", "parity-only", "distance",
                              "congruence-dedekind"])
@pytest.mark.parametrize("ps, qs, max_gap", [
    (range(1, 13), range(-20, 41), None),
    (range(1, 13), [-9, -4, -1, 0, 1, 2, 3, 7, 11, 12, 30, 31, 38, 101],
     None),
    ([131], range(1, 301), None),
    # Gaps past 8 but short of the q span: the walk stops at q + max_gap.
    (range(1, 13), [180, -250, 0, -9, 2, 333, 31, 77, -97, 1, 30, 101, -40],
     100),
], ids=["window-through-zero", "sparse", "p131-window", "unsorted-wide-gap"])
def test_class_table_matches_the_pairwise_chain(ps, qs, max_gap, filters,
                                                jobs):
    got = list(enumerate_pairs(ps, qs, filters, max_gap, jobs))
    want = _pairwise(ps, qs, filters, max_gap)
    assert got == want
    assert _witness_keys(got) == _witness_keys(want)


def test_sweep_evaluates_each_class_once_per_sweep(monkeypatch):
    calls = []

    def counted(p, q, q_prime, filters, residues):
        calls.append((p, q % p, q_prime - q, 0 in (q, q_prime)))
        return evaluate(p, q, q_prime, filters, residues)

    evaluate = engine._evaluate
    monkeypatch.setattr(engine, "_evaluate", counted)
    pairs = list(enumerate_pairs(range(1, 9), range(50000, 51200)))
    assert len(pairs) == 8 * (1200 * 8 - 36)
    assert len(calls) == len(set(calls))
    assert len(calls) <= sum(8 * p for p in range(1, 9)) == 288


def test_verify_checks_each_class_once_per_sweep(monkeypatch):
    calls = []

    def counted(record, key, shapes, memo):
        calls.append((record.p, *key[:3]))
        return check(record, key, shapes, memo)

    check = oracle._verify_one
    monkeypatch.setattr(oracle, "_verify_one", counted)
    sweep = enumerate_pairs(range(1, 9), range(50000, 51200))
    assert verify_pairs(sweep, filters="all") == 8 * (1200 * 8 - 36)
    assert len(calls) == len(set(calls))
    assert len(calls) <= sum(8 * p for p in range(1, 9)) == 288


class _ListVerdict(list):
    # A verdict that can be edited in place; no filter builds one.
    filter_name = property(lambda self: self[0])


def _plain_dict_witness(trail):
    plain = dict(trail[3].witness)
    return (*trail[:3], trail[3]._replace(witness=plain)), partial(
        plain.__setitem__, "s_q_prime", "1/2")


def _list_verdict(trail):
    verdict = _ListVerdict(trail[3])
    return (*trail[:3], verdict), partial(
        verdict.__setitem__, 2, Witness(verdict[2], s_q_prime="1/2"))


def _list_trail(trail):
    trail = list(trail)
    wrong = Witness(trail[3].witness, s_q_prime="1/2")
    return trail, partial(trail.__setitem__, 3,
                          trail[3]._replace(witness=wrong))


@pytest.mark.parametrize("editable", [
    _plain_dict_witness, _list_verdict, _list_trail,
], ids=["plain-dict-witness", "list-verdict", "list-trail"])
def test_verify_rechecks_each_pair_of_an_editable_trail(editable):
    # A hand-built trail that can be edited in place between two records
    # of its class gets each of its records checked in full.
    (pair,) = run_enumeration([7], [1, 2]).pairs
    trail, edit = editable(pair.verdicts)
    checked = []

    def stream():
        yield pair._replace(verdicts=trail)
        checked.append(1)
        edit()
        yield pair._replace(q=8, q_prime=9, verdicts=trail)
        checked.append(8)

    with pytest.raises(CrossCheckError, match=(
            r"^pair p=7 q=8 q'=9: dedekind witness s_q_prime is '1/2' but "
            r"the oracle gives '1/14'$")):
        verify_pairs(stream(), filters="all")
    assert checked == [1]
    # The engine's own trail is read-only: no edit can reach it.
    assert verify_pairs([pair, pair._replace(q=8, q_prime=9)]) == 2
    with pytest.raises(TypeError):
        pair.verdicts[3].witness["s_q_prime"] = "1/2"


def test_no_call_edits_a_trail_the_oracle_has_checked():
    # The p = 7 pairs (1, 2) and (8, 9) share one engine trail, which the
    # oracle checks once.  Between the two records, dict's own methods and
    # object.__setattr__ cannot reach its Dedekind witness, a tuple.
    (pair,) = run_enumeration([7], [1, 2]).pairs
    witness = pair.verdicts[3].witness
    before = dict(witness)

    def stream():
        yield pair
        with pytest.raises(TypeError):
            dict.__setitem__(witness, "s_q_prime", "1/2")
        with pytest.raises(AttributeError):
            object.__setattr__(witness, "s_q_prime", "1/2")
        witness.__init__(s_q_prime="1/2")  # object's: a no-op
        yield pair._replace(q=8, q_prime=9)

    assert verify_pairs(stream(), filters="all") == 2
    assert witness == before and witness.s_q_prime == before["s_q_prime"]


def test_surviving_refuses_to_drain_a_stream():
    streamed = stream_enumeration([5], range(1, 30))
    with pytest.raises(TypeError, match="run_enumeration"):
        streamed.surviving
    assert emit_report(streamed, "csv").count("\n") == 197  # still whole
    kept = run_enumeration([5], range(1, 30))
    assert len(kept.surviving) == 6 and kept.surviving == kept.surviving
    assert emit_report(kept, "csv").count("\n") == 197


def test_sweep_builds_each_residue_fact_once_per_p(monkeypatch):
    calls = []

    def counted(residues, r):
        calls.append((residues.p, r))
        return build(residues, r)

    build = engine._Residues.__missing__
    monkeypatch.setattr(engine._Residues, "__missing__", counted)
    sweep = enumerate_pairs([127, 131], range(1, 301),
                            ["congruence", "dedekind"])
    assert sum(1 for _ in sweep) == 2 * (300 * 8 - 36)
    assert sorted(calls) == [(p, r) for p in (127, 131) for r in range(p)]
    calls.clear()
    sweep = enumerate_pairs(range(1, 9), range(50000, 51200))
    assert sum(1 for _ in sweep) == 8 * (1200 * 8 - 36)
    assert len(calls) == len(set(calls))
    for p in range(1, 9):
        assert sum(1 for key in calls if key[0] == p) <= p


def test_theorem_rejects_a_toroidal_family_beyond_p1(monkeypatch, capsys):
    cap = engine.distance_cap
    case4 = GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT
    monkeypatch.setattr(engine, "distance_cap",
                        lambda g: 4 if g is case4 else cap(g))
    loose = replicate_theorem(verify=False)
    assert (2, 1, 2) in _keys(loose.families_for(case4))
    with pytest.raises(CrossCheckError, match="toroidal_irreducible_non_"
                       r"seifert keeps p = 2, q = 1 \(mod 2\), q' = q \+ 2"):
        replicate_theorem()
    assert main(["replicate-theorem"]) == 2
    assert "p = 2" in capsys.readouterr().err
