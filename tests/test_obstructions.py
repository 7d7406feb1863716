import copy
import gc
import json
import pickle
from math import gcd

import pytest

from cosmetic import obstructions
from cosmetic.engine import run_enumeration
from cosmetic.invariants import cosmetic_dedekind_obstruction
from cosmetic.obstructions import (
    EXCEPTIONAL_DISTANCE_BOUND,
    DedekindWitness,
    DeltaWitness,
    EmptyWitness,
    GeometryClass,
    ObstructionVerdict,
    UnitSquaresWitness,
    UnitWitness,
    Witness,
    distance_cap,
    linking_congruence,
    parity_filter,
    reason,
    reason_template,
    unit_squares_mod,
)


def _primes(limit):
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = [False] * len(sieve[n * n :: n])
    return [n for n, is_prime in enumerate(sieve) if is_prime]


def test_unit_square_examples():
    assert unit_squares_mod(7) == {1, 2, 4}
    assert unit_squares_mod(5) == {1, 4}
    assert unit_squares_mod(4) == {1}
    assert unit_squares_mod(3) == {1}
    assert unit_squares_mod(2) == {1}
    assert unit_squares_mod(1) == {0}


def test_unit_squares_closed_under_product():
    for p in range(2, 201):
        squares = unit_squares_mod(p)
        for a in squares:
            for b in squares:
                assert (a * b) % p in squares


def test_unit_square_count_for_odd_primes():
    for p in _primes(200):
        if p > 2:
            assert len(unit_squares_mod(p)) == (p - 1) // 2


def test_congruence_examples():
    v = linking_congruence(5, 2, 3)
    assert v.passed and v.witness == {"unit": 2}
    v = linking_congruence(7, 5, 6)
    assert v.passed and v.witness == {"unit": 3}
    v = linking_congruence(3, 1, 2)
    assert not v.passed
    assert v.witness == {"unit_squares": (1,)}
    assert reason(3, 1, 2, v) == "no unit square maps 2 to 1 mod 3"
    v = linking_congruence(1, 12, 5)
    assert v.passed and v.witness == {"unit": 0}


def test_congruence_rejects_non_coprime():
    with pytest.raises(ValueError):
        linking_congruence(4, 2, 3)
    with pytest.raises(ValueError):
        linking_congruence(4, 3, 2)


def test_congruence_matches_exhaustive_search():
    for p in range(1, 51):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            for q2 in range(1, p + 1):
                if gcd(q2, p) != 1:
                    continue
                verdict = linking_congruence(p, q, q2)
                brute = p == 1 or any(
                    gcd(u, p) == 1 and (q - q2 * u * u) % p == 0
                    for u in range(1, p)
                )
                assert verdict.passed == brute


def test_congruence_symmetric_with_inverse_witnesses():
    for p in range(2, 51):
        for q in range(1, p + 1):
            if gcd(q, p) != 1:
                continue
            for q2 in range(1, p + 1):
                if gcd(q2, p) != 1:
                    continue
                forward = linking_congruence(p, q, q2)
                backward = linking_congruence(p, q2, q)
                assert forward.passed == backward.passed
                if forward.passed:
                    u = forward.witness["unit"]
                    v = backward.witness["unit"]
                    assert (q - q2 * u * u) % p == 0
                    assert (q2 - q * v * v) % p == 0
                    assert (u * v) % p == 1 % p


def test_congruence_witness_matches_the_unit_scan():
    # The witness unit is pinned to the O(p) scan the square-root table
    # replaced: the smallest unit u with q = q' u^2 (mod p), taken from
    # the residue-ordered side and inverted when the sides swap.
    def scan(p, q, q2):
        for u in range(1, p):
            if gcd(u, p) == 1 and (q - q2 * u * u) % p == 0:
                return u
        return None

    for p in range(2, 61):
        units = [x for x in range(1, p) if gcd(x, p) == 1]
        for q in units:
            for q2 in units:
                if q <= q2:
                    u = scan(p, q, q2)
                else:
                    v = scan(p, q2, q)
                    u = None if v is None else pow(v, -1, p)
                verdict = linking_congruence(p, q, q2)
                assert verdict.passed == (u is not None)
                assert verdict.witness.get("unit") == u


def test_parity_examples():
    assert parity_filter(2, 1, 3).passed
    assert parity_filter(1, 3, 7).passed
    v = parity_filter(8, 3, 4)
    assert not v.passed and v.witness == {}
    assert reason(8, 3, 4, v) == "gcd(4, 8) = 4, so not a slope pair"
    assert reason(6, 2, 3, parity_filter(6, 2, 3)) == (
        "gcd(2, 6) = 2 and gcd(3, 6) = 3, so not a slope pair")
    # consecutive q, q' can never both be coprime to an even p > 2 with q odd
    for q in range(1, 21):
        assert not parity_filter(6, q, q + 1).passed


def test_parity_rejects_the_meridian():
    # 1/0 is a slope, but its filling is the trivial surgery
    for q, q_prime in ((0, 1), (-1, 0)):
        v = parity_filter(1, q, q_prime)
        assert not v.passed and v.witness == {}
        assert "meridian" in reason(1, q, q_prime, v)


def test_filters_take_only_integers():
    # As in the sweeps: a bool is not an int, and nothing is rounded.
    for call, bad in ((lambda: linking_congruence(7, True, 3),
                       "q must be an integer, not True"),
                      (lambda: linking_congruence(7, 1.5, 3),
                       "q must be an integer, not 1.5"),
                      (lambda: parity_filter(7.5, 1, 3),
                       "p must be an integer, not 7.5"),
                      (lambda: parity_filter(7, 1, 3.0),
                       "q' must be an integer, not 3.0"),
                      (lambda: linking_congruence(False, 1, 3),
                       "p must be an integer, not False")):
        with pytest.raises(ValueError, match=f"^{bad}$"):
            call()
    assert linking_congruence(7, 1, 2).witness == {"unit": 2}
    assert not parity_filter(7, 0, 3).passed


def test_distance_caps():
    assert distance_cap(GeometryClass.REDUCIBLE) == 1
    assert distance_cap(GeometryClass.SEIFERT_TOROIDAL) == 1
    assert distance_cap(GeometryClass.SMALL_SEIFERT_INFINITE) == 8
    assert distance_cap(GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT) == 3
    assert distance_cap(GeometryClass.FINITE_PI1) == 3
    assert EXCEPTIONAL_DISTANCE_BOUND == 8


def test_failing_verdict_requires_witness():
    with pytest.raises(ValueError):
        ObstructionVerdict("anything", False, None)
    assert ObstructionVerdict("anything", True, None).witness is None


def test_replace_cannot_build_an_invalid_verdict():
    verdict = ObstructionVerdict("parity", True)
    with pytest.raises(ValueError):
        verdict._replace(passed=False)
    failing = verdict._replace(passed=False, witness={})
    assert failing == ("parity", False, {})


def test_reason_renders_each_failing_filter_from_its_witness():
    # The text is a function of the pair and the witness's numbers only
    # (parity's, of the pair alone, is pinned in test_parity_examples).
    distance = ObstructionVerdict("distance", False, {"delta": 14})
    assert reason(7, 1, 3, distance) == (
        "slope distance 14 exceeds the exceptional bound 8")
    dedekind = ObstructionVerdict("dedekind", False,
                                  {"s_q": "a", "s_q_prime": "b"})
    assert reason(7, 5, 6, dedekind) == "s(5, 7) = a but s(6, 7) = b"
    congruence = ObstructionVerdict("congruence", False,
                                    {"unit_squares": (1, 2, 4)})
    assert reason(7, 1, 3, congruence) == "no unit square maps 3 to 1 mod 7"


def test_unit_squares_witness_cannot_be_edited():
    # Every failing congruence of p shares one tuple of unit squares, so
    # an edit through one witness would reach every later verdict of p.
    def squares(result):
        return next(v.witness["unit_squares"] for pv in result.pairs
                    for v in pv.verdicts
                    if v.filter_name == "congruence" and not v.passed)

    first = run_enumeration([7], range(1, 20), filters=["congruence"])
    shared = squares(first)
    assert shared == (1, 2, 4)
    with pytest.raises(AttributeError):
        shared.append(99)
    with pytest.raises(TypeError):
        shared[0] = 3
    again = run_enumeration([7], range(1, 20), filters=["congruence"])
    assert again == first and squares(again) == (1, 2, 4)
    assert linking_congruence(7, 1, 3).witness["unit_squares"] == (1, 2, 4)


def _assign(w):
    w["unit"] = 1


def _delete(w):
    del w["unit"]


def _merge(w):
    w |= {"unit": 1}


def _extend(w):
    w += (1,)  # binds a new tuple to the name; the witness stays


# Each edit route and how it ends: the error that refuses it, or None
# for a call that runs but changes nothing.
_EDITS = {
    "setitem": (_assign, TypeError),
    "delitem": (_delete, TypeError),
    "ior": (_merge, TypeError),
    "clear": (lambda w: w.clear(), AttributeError),
    "pop": (lambda w: w.pop("unit"), AttributeError),
    "pop-default": (lambda w: w.pop("other", None), AttributeError),
    "popitem": (lambda w: w.popitem(), AttributeError),
    "setdefault": (lambda w: w.setdefault("unit", 1), AttributeError),
    "setdefault-new": (lambda w: w.setdefault("other"), AttributeError),
    "update": (lambda w: w.update(unit=1), AttributeError),
    "update-empty": (lambda w: w.update(), AttributeError),
    "dict-setitem": (lambda w: dict.__setitem__(w, "unit", 1), TypeError),
    "dict-update": (lambda w: dict.update(w, unit=1), TypeError),
    "dict-init": (lambda w: dict.__init__(w, unit=1), TypeError),
    "setattr": (lambda w: setattr(w, "unit", 1), AttributeError),
    "object-setattr": (lambda w: object.__setattr__(w, "unit", 1),
                       AttributeError),
    "object-setattr-new": (lambda w: object.__setattr__(w, "other", 1),
                           AttributeError),
    "set-class": (lambda w: setattr(w, "__class__", DeltaWitness),
                  AttributeError),
    "object-set-class": (
        lambda w: object.__setattr__(w, "__class__", DeltaWitness),
        AttributeError),
    "init": (lambda w: w.__init__(unit=1), None),
    "tuple-init": (lambda w: tuple.__init__(w, (1,)), None),
    "tuple-new": (lambda w: tuple.__new__(type(w), (1,)), None),
    "tuple-add": (lambda w: w + (1,), None),
    "tuple-mul": (lambda w: w * 2, None),
    "tuple-iadd": (_extend, None),
    "tuple-count-index": (lambda w: (w.count(2), w.index(2)), None),
}


@pytest.mark.parametrize("edit, refused", _EDITS.values(), ids=list(_EDITS))
def test_witness_refuses_every_edit(edit, refused):
    # The pairs of a residue class share one trail, so an edit through one
    # record's witness would reach every pair of the class.  A witness is
    # a tuple: each route is refused, or runs and leaves it as it was.
    (pair,) = run_enumeration([7], [1, 2]).pairs
    witness = pair.verdicts[2].witness
    assert type(witness) is UnitWitness and witness == {"unit": 2}
    if refused is None:
        edit(witness)
    else:
        with pytest.raises(refused):
            edit(witness)
    assert type(witness) is UnitWitness and witness == {"unit": 2}
    assert tuple.__getitem__(witness, 0) == 2 and len(witness) == 1
    assert run_enumeration([7], [1, 2]).pairs == (pair,)


def _witnesses(records):
    return [v.witness for r in records for v in r.verdicts
            if v.witness is not None]


_SHAPES = {DeltaWitness, UnitWitness, UnitSquaresWitness, DedekindWitness,
           EmptyWitness}


def test_witness_prints_and_compares_as_the_dict_it_holds():
    records = run_enumeration(range(1, 9), range(-3, 12)).pairs
    one_shot = [linking_congruence(7, 1, 2), linking_congruence(7, 1, 3),
                cosmetic_dedekind_obstruction(7, 1, 2), parity_filter(6, 2, 3)]
    witnesses = _witnesses(records) + [v.witness for v in one_shot]
    assert {type(w) for w in witnesses} == _SHAPES
    assert {tuple(w) for w in witnesses} == {
        ("delta",), (), ("unit",), ("unit_squares",), ("s_q", "s_q_prime")}
    for w in witnesses:
        plain = dict(w)
        assert isinstance(w, Witness) and not isinstance(w, dict)
        assert w == plain and plain == w and not w != plain
        assert Witness(plain) == w and type(Witness(**plain)) is type(w)
        assert repr(w) == repr(plain) and str(w) == str(plain)
        assert list(w.keys()) == list(plain) and len(w) == len(plain)
        assert list(w.items()) == list(plain.items())
        assert list(w.values()) == list(plain.values())
        assert all(key in w and w.get(key) is w[key] for key in plain)
        assert "other" not in w and w.get("other", 0) == 0
        with pytest.raises(KeyError):
            w["other"]
        with pytest.raises(TypeError):
            hash(w)  # unhashable, as the dict it equals
        if plain:
            assert w != tuple(plain.values())  # equal to a dict, not a tuple
        # json writes a tuple subclass as a list; dict(w) gives the object.
        assert type(json.loads(json.dumps(w))) is list
        for options in ({}, {"indent": 2}, {"sort_keys": True}):
            assert json.dumps(dict(w), **options) == json.dumps(plain,
                                                                **options)
    assert repr(one_shot[0]) == ("ObstructionVerdict(filter_name="
                                 "'congruence', passed=True, witness="
                                 "{'unit': 2})")
    with pytest.raises(KeyError):
        Witness(unit=2, reason="no such shape")


def test_records_pickle_and_copy_with_read_only_witnesses():
    result = run_enumeration(range(1, 9), range(1, 25))
    clones = [copy.deepcopy(result.pairs)] + [
        pickle.loads(pickle.dumps(result.pairs, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert clone == result.pairs
        witnesses = _witnesses(clone)
        assert witnesses and {type(w) for w in witnesses} == _SHAPES
        with pytest.raises(TypeError):
            dict.__setitem__(witnesses[0], "unit", 0)
    shapes = [Witness(delta=3), Witness(unit=2),
              Witness(unit_squares=(1, 2, 4)),
              Witness(s_q="1/2", s_q_prime="-1/2"), Witness()]
    assert {type(w) for w in shapes} == _SHAPES
    for witness in shapes:
        for twin in [copy.copy(witness), copy.deepcopy(witness)] + [
                pickle.loads(pickle.dumps(witness, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert twin == witness and twin is not witness
            assert type(twin) is type(witness)


def test_witness_shapes_survive_a_collection_while_built():
    # A namedtuple class sits in a reference cycle.  Collected while its
    # getters are copied into a shape, it would empty its namespace first.
    thresholds = gc.get_threshold()
    gc.set_threshold(1, 1, 1)
    try:
        shapes = [obstructions._shape("DedekindWitness", ("s_q", "s_q_prime"))
                  for _ in range(50)]
    finally:
        gc.set_threshold(*thresholds)
    for shape in shapes:
        witness = tuple.__new__(shape, ("1/2", "-1/2"))
        assert witness.s_q == "1/2" and witness.s_q_prime == "-1/2"
        assert witness == {"s_q": "1/2", "s_q_prime": "-1/2"}


def test_reason_template_fills_in_as_reason_renders():
    # Every pair of a class (p, q mod p, gap, whether 0 is a slope) gets
    # the text of its class's template; witness braces come back as they
    # were, and the slots take any q, not only the class's first.
    verdicts = [
        ObstructionVerdict("distance", False, {"delta": "{0}}"}),
        ObstructionVerdict("dedekind", False,
                           {"s_q": "{", "s_q_prime": "{1} }{"}),
        ObstructionVerdict("congruence", False, {"unit_squares": ("{",)}),
        ObstructionVerdict("parity", False, {}),
    ]
    for p in (1, 2, 6, 7, 12):
        for q in range(-2 * p, 2 * p):
            for gap in (1, 2, 3):
                for v in verdicts:
                    text = reason_template(p, q, q + gap, v)
                    if text is None:
                        assert reason(p, q, q + gap, v) is None
                        continue
                    for later in (q + p, q - 5 * p, q + 10 ** 20 * p):
                        if (0 in (q, q + gap)) == (0 in (later, later + gap)):
                            assert (text.format(later, later + gap)
                                    == reason(p, later, later + gap, v))
