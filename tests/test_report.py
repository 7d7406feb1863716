import csv
import hashlib
import io
import json
import random
from collections import Counter
from itertools import combinations

import pytest

from cosmetic import report
from cosmetic.engine import (
    ClassificationTable,
    ClassifyResult,
    EnumerationResult,
    PairVerdict,
    replicate_theorem,
    run_classification,
    run_enumeration,
    stream_enumeration,
)
from cosmetic.obstructions import (
    SELECTABLE_FILTERS,
    GeometryClass,
    ObstructionVerdict,
    distance_cap,
    reason,
)
from cosmetic.report import REPORT_SCHEMA_VERSION, emit_report


def test_classify_json_shape():
    payload = json.loads(emit_report(run_classification(7), "json"))
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["kind"] == "classification"
    assert payload["p"] == 7
    assert len(payload["families"]) == 7
    assert payload["surviving"] == []
    (family,) = [f for f in payload["families"] if f["q_residue"] == 5]
    (dedekind,) = [v for v in family["verdicts"] if v["filter"] == "dedekind"]
    assert not dedekind["passed"]
    assert dedekind["witness"]["s_q"] == "-1/14"
    assert dedekind["witness"]["s_q_prime"] == "-5/14"


def test_classify_p1_residue_reads_any():
    payload = json.loads(emit_report(run_classification(1), "json"))
    assert [f["q_residue"] for f in payload["families"]] == ["any"] * 8
    assert len(payload["surviving"]) == 8


def test_theorem_table_json_shape():
    payload = json.loads(emit_report(replicate_theorem(), "json"))
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION
    assert payload["kind"] == "theorem_table"
    assert [case["geometry"] for case in payload["cases"]] == [
        "reducible",
        "seifert_toroidal",
        "small_seifert_infinite",
        "toroidal_irreducible_non_seifert",
        "finite_pi1",
    ]
    assert [case["distance_cap"] for case in payload["cases"]] == [1, 1, 8, 3, 3]
    assert payload["cases"][4]["families"] == []
    assert payload["cases"][4]["note"]
    assert len(payload["evaluated"]) == 56


def test_theorem_table_markdown():
    text = emit_report(replicate_theorem(), "markdown")
    assert "p = 5, q = 2 (mod 5), q' = q + 1" in text
    assert "p = 2, q = 1 (mod 2), q' = q + 4" in text
    assert "56 residue families evaluated in total; 45 obstructed." in text


def test_theorem_table_csv():
    text = emit_report(replicate_theorem(), "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["geometry", "p", "q_residue", "gap", "delta", "detail"]
    # 1 + 1 + 11 + 3 + 0 family rows across the five sections
    assert len(rows) == 17


def test_enumeration_csv_shape():
    result = run_enumeration([5], range(1, 31))
    rows = list(csv.reader(io.StringIO(emit_report(result, "csv"))))
    assert rows[0] == ["p", "q", "q_prime", "gap", "delta",
                      "distance", "parity", "congruence", "dedekind",
                      "surviving", "detail"]
    assert len(rows) == 1 + len(result.pairs)
    assert sum(1 for row in rows[1:] if row[9] == "yes") == 6


def test_enumeration_csv_skips_filters_after_parity_failure():
    result = run_enumeration([2], [1, 2, 3])
    by_pair = {(int(r[1]), int(r[2])): r
               for r in list(csv.reader(io.StringIO(emit_report(result, "csv"))))[1:]}
    even = by_pair[(1, 2)]
    assert even[6] == "fail"
    assert even[7] == "skipped" and even[8] == "skipped"
    odd = by_pair[(1, 3)]
    assert odd[6] == "pass" and odd[8] == "pass"


def test_enumeration_json_shape():
    result = run_enumeration([1], range(1, 4), filters=["distance"])
    payload = json.loads(emit_report(result, "json"))
    assert payload["kind"] == "enumeration"
    assert payload["filters"] == ["distance"]
    assert payload["survivor_count"] == 3
    assert payload["warnings"] == []
    assert [p["q_prime"] for p in payload["pairs"]] == [2, 3, 3]


def test_enumeration_markdown_counts_survivors():
    text = emit_report(run_enumeration([7], range(1, 9)), "markdown")
    assert "| p | q |" in text
    assert "0 of" in text


def test_byte_stable_csv():
    first = emit_report(run_enumeration([5], range(1, 31)), "csv")
    second = emit_report(run_enumeration([5], range(1, 31)), "csv")
    assert first.encode() == second.encode()
    assert "\r" not in first


def test_unsupported_inputs_rejected():
    with pytest.raises(ValueError):
        emit_report(42, "json")
    with pytest.raises(ValueError):
        emit_report(run_classification(2), "yaml")


def test_csv_cells_are_quoted_as_the_csv_module_quotes_them():
    # Sum texts the engine never writes, in forged Dedekind verdicts; each
    # reaches the detail through its rendered reason.
    odd = ["plain", "a, b", 'say "no"', "two\nlines", "carriage\rreturn",
           "", " spaced ", "semi;colon", "\"", "é ∞\x01"]
    records = tuple(
        PairVerdict(2, 2 * i + 1, 2 * i + 3, (
            ObstructionVerdict("parity", True),
            ObstructionVerdict("dedekind", False,
                               {"s_q": text, "s_q_prime": text[::-1]}),
        ), False)
        for i, text in enumerate(odd)
    )
    details = [f"s({r.q}, 2) = {text} but s({r.q_prime}, 2) = {text[::-1]}"
               for r, text in zip(records, odd)]

    def expected(header, row):
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(row(r, detail) for r, detail in zip(records, details))
        return buffer.getvalue()

    cells = ["", "pass", "", "fail", "no"]
    sweep = EnumerationResult(records, (), 8, ())
    assert emit_report(sweep, "csv") == expected(
        ["p", "q", "q_prime", "gap", "delta", "distance", "parity",
         "congruence", "dedekind", "surviving", "detail"],
        lambda r, detail: [r.p, r.q, r.q_prime, r.gap, r.delta, *cells,
                           detail])
    # A family is read against all four filters.
    families = ClassifyResult(2, records)
    assert emit_report(families, "csv") == expected(
        ["p", "q_residue", "gap", "delta", "distance", "parity",
         "congruence", "dedekind", "surviving", "detail"],
        lambda r, detail: [r.p, r.q_residue, r.gap, r.delta, *cells, detail])


def test_csv_rows_read_only_their_own_witnesses():
    # Records no class table makes.  Rows that share a pattern share the
    # cells text, but each detail comes from its own record: its unit, its
    # sums and its own q and q' in the rendered reason.
    def record(q, unit, s_q):
        return PairVerdict(7, q, q + 1, (
            ObstructionVerdict("distance", True, {"delta": 7}),
            ObstructionVerdict("parity", True),
            ObstructionVerdict("congruence", True, {"unit": unit}),
            ObstructionVerdict("dedekind", False,
                               {"s_q": s_q, "s_q_prime": "1/14"}),
        ), False)

    def parity_fail(q):
        return PairVerdict(2, q, q + 2, (
            ObstructionVerdict("distance", True, {"delta": 4}),
            ObstructionVerdict("parity", False, {}),
        ), False)

    sweep = EnumerationResult((
        record(1, 3, "5/14"),
        record(8, 0, 'say "no"'),
        record(15, 3, "plain"),
        record(22, 0, "plain"),
        parity_fail(2),
        parity_fail(4),
    ), ("distance", "congruence", "dedekind"), 8, ())
    assert emit_report(sweep, "csv").splitlines()[1:] == [
        '7,1,2,1,7,pass,pass,pass,fail,no,"unit 3; s(1, 7) = 5/14 but '
        's(2, 7) = 1/14"',
        '7,8,9,1,7,pass,pass,pass,fail,no,"s(8, 7) = say ""no"" but '
        's(9, 7) = 1/14"',
        '7,15,16,1,7,pass,pass,pass,fail,no,"unit 3; s(15, 7) = plain but '
        's(16, 7) = 1/14"',
        '7,22,23,1,7,pass,pass,pass,fail,no,"s(22, 7) = plain but '
        's(23, 7) = 1/14"',
        '2,2,4,2,4,pass,fail,skipped,skipped,no,"gcd(2, 2) = 2 and '
        'gcd(4, 2) = 2, so not a slope pair"',
        '2,4,6,2,4,pass,fail,skipped,skipped,no,"gcd(4, 2) = 2 and '
        'gcd(6, 2) = 2, so not a slope pair"',
    ]


def test_a_failure_without_a_reason_renders_as_its_witness():
    # A hand-built parity failure of a coprime pair, which the oracle
    # rejects: reason() has no text for it, so no format gains one.
    record = PairVerdict(5, 1, 2, (ObstructionVerdict("parity", False, {}),),
                         False)
    assert reason(5, 1, 2, record.verdicts[0]) is None
    sweep = EnumerationResult((record,), (), 8, ())
    assert emit_report(sweep, "csv").splitlines()[1] == "5,1,2,1,5,,fail,,,no,"
    (verdict,) = json.loads(emit_report(sweep, "json"))["pairs"][0]["verdicts"]
    assert verdict["witness"] == {}


def _witness_payload(r, v):
    # Schema 1 keeps a failing verdict's reason in its witness: first in a
    # congruence witness, last in the others.
    if v.passed:
        return v.witness
    told = {"reason": reason(r.p, r.q, r.q_prime, v)}
    return ({**told, **v.witness} if v.filter_name == "congruence"
            else {**v.witness, **told})


def _record_payload(r, family):
    # A record's JSON object, read from its public fields.
    key = ({"q_residue": "any" if r.p == 1 else r.q_residue} if family
           else {"q": r.q, "q_prime": r.q_prime})
    return {"p": r.p, **key, "gap": r.gap, "delta": r.delta,
            "surviving": r.surviving, "verdicts": [
                {"filter": v.filter_name, "passed": v.passed,
                 "witness": _witness_payload(r, v)} for v in r.verdicts]}


def _dumped(kind, **fields):
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind,
               **fields}
    return json.dumps(payload, indent=2) + "\n"


def test_json_reports_are_the_bytes_of_json_dumps():
    # Records no engine run makes: odd sum texts, which the rendered
    # reasons repeat, a 40-digit negative q, a None witness, an empty
    # witness, empty unit squares.
    big = -10 ** 39 - 7
    records = (
        PairVerdict(3, 1, 2, (
            ObstructionVerdict("distance", True, {"delta": 3}),
            ObstructionVerdict("parity", True, None),
            ObstructionVerdict("congruence", False, {"unit_squares": ()}),
            ObstructionVerdict("dedekind", False, {
                "s_q": 'é ∞ "quoted" back\\slash\ttab\nline\x01',
                "s_q_prime": "\x01\n"}),
        ), False),
        PairVerdict(3, big, big + 1, (
            ObstructionVerdict("parity", True, {}),
            ObstructionVerdict("congruence", True, {"unit": 2}),
        ), True),
        PairVerdict(1, 4, 5, (ObstructionVerdict("parity", True),), True),
        PairVerdict(2, 2, 4, (ObstructionVerdict("parity", False, {}),),
                    False),
    )
    cases = tuple(GeometryClass)
    sections = dict(zip(cases, (records[:2], (), records[2:], (), ())))
    table = ClassificationTable(sections, {cases[1]: "é"}, records)
    assert emit_report(table, "json") == _dumped(
        "theorem_table",
        cases=[{"geometry": g.value, "distance_cap": distance_cap(g),
                "families": [_record_payload(f, True) for f in families],
                "note": table.note_for(g)}
               for g, families in sections.items()],
        evaluated=[_record_payload(f, True) for f in records])
    for families in (records, (), records[3:]):
        result = ClassifyResult(3, families)
        assert emit_report(result, "json") == _dumped(
            "classification", p=3,
            families=[_record_payload(f, True) for f in families],
            surviving=[_record_payload(f, True) for f in families
                       if f.surviving])
    # More records than one write holds, an empty sweep, a warning.
    for pairs, warnings in ((records * 1100, ()), ((), ()),
                            (records, ("é \"beyond\" 8",))):
        filters = ("distance", "congruence")
        expected = _dumped(
            "enumeration", filters=list(filters), max_gap=8,
            warnings=list(warnings),
            pairs=[_record_payload(pv, False) for pv in pairs],
            survivor_count=sum(pv.surviving for pv in pairs))
        for streamed in (tuple(pairs), (pv for pv in pairs)):
            sweep = EnumerationResult(streamed, filters, 8, warnings)
            # As lines: pytest's diff of two long texts takes minutes.
            assert (emit_report(sweep, "json").splitlines(True)
                    == expected.splitlines(True))


# Report builders for the byte-golden check, one per report kind and
# enumeration setting that changes the layout.
GOLDEN_CASES = {
    "theorem": lambda: replicate_theorem(),
    **{f"classify-p{p}": (lambda p=p: run_classification(p)) for p in range(1, 10)},
    "enumerate-all-filters": lambda: run_enumeration(range(1, 9), range(1, 61)),
    "enumerate-congruence-dedekind": lambda: run_enumeration(
        [3, 5], range(1, 30), filters=["congruence", "dedekind"]),
    "enumerate-distance-only": lambda: run_enumeration(
        range(1, 5), range(1, 25), filters=["distance"]),
    "enumerate-max-gap-3": lambda: run_enumeration(
        range(1, 9), range(1, 40), max_gap=3),
    "enumerate-sparse-q": lambda: run_enumeration(
        [2, 4, 6, 7], [1, 2, 3, 5, 8, 13, 21, 34],
        filters=["distance", "congruence"]),
    # Large p: 105 is composite, so a unit square can have several roots
    # and the witness unit is a choice; 131 is prime.
    "enumerate-large-p": lambda: run_enumeration(
        [105, 131], range(1, 81), filters=["congruence", "dedekind"]),
}

# SHA-256 of the json, csv and markdown reports of each case.
GOLDEN_SHA256 = {
    "theorem": (
        "74bb1a739bfebe009218ed73726b5c5e8c2835bcafe1c3be18215020b3130730",
        "cb27021c75e32e6edb336a8b80abc3dbc1f0f40a6981f0f9adabe1567e777409",
        "4ec0894e44adf976d8f3b427652467d3b62b15f4fb005bbec2644009e77770b6",
    ),
    "classify-p1": (
        "a4e1d90f77ca0795ed05b3621a6276b91b115f0428d7708c768bb853ff3ffc4b",
        "a4278a997c9970145627abed8a66bc77a22c659acd5fde03d798e7b54a46cfe4",
        "a7f970dbf00bcf52cab6eebcdec6b0c97b4d5c816298327792e11cc45d8706d7",
    ),
    "classify-p2": (
        "af8ae95e07d9e9f1cf93bb53c7b99f8ba05e7ef84ee60e7ccb6daeb317520fa4",
        "bafa3c2291d3e88aa1a89fcd85f9a08c71854b8375763ed86b9a7bf54403bd09",
        "5b353de069825c65dbb11959610dc95da33938859f78300f23461c50b005e0e9",
    ),
    "classify-p3": (
        "3946211f5486ed282e1dbec9ee75eaca276e8ce70d3f01c6287a7d71ff17c2d8",
        "8832a043fdc802a424a56a4617e05c624e9f183b948437b3c9bf169ee49645ba",
        "bb305b7943c2fcbb64e0804de8ad677048c996d1d1fcd0eb4e6f656949425afc",
    ),
    "classify-p4": (
        "5424f535c132f67f92c1008950c0a6ad9320f525080b7e083032c0471191b9d9",
        "504168ad1f10a3ea11f1a9c6054283006b4a8f043d9c51b141fce87b5e3c490e",
        "a1df8ae7171575502533f960deedf8aa5bd01b3d26da8e7b2107c56431300194",
    ),
    "classify-p5": (
        "08007cda35dcd1af3ead8fd3bb1a2a926f3b7f5005ee5ab3bbb5ac23947cfd43",
        "5341a1399a2e20251eaeaae17ac2fd4d002565dd080b20048a915c4545d80a32",
        "a947fcf9133dfd9e5dd8a7522c6ba1d96ddf5dfdc77a913bf31f6f165ae32463",
    ),
    "classify-p6": (
        "97ef537ef3b74401de9dc634c9fe82e3ede79666149aa0691a44b07fa8c9585b",
        "91f53c472d80fe350c90d3d64c8b5931681cf302f0eef4b4069b5f92acdd5246",
        "5a1b118cdd59d6b7a6ff3557131f55435461e06c1d1f57a8cc5f9edce20ee6f8",
    ),
    "classify-p7": (
        "dbf1694ac99a0abd51ec7d2a0bd24b52c29444e2ad71b1b01709f2e58deabaa0",
        "f4f2abeeb1bdcaab8033a6448d49d1e23e16f283b87cfddb34c55497e39b799a",
        "1ff15a86ddf81aab141b55e1ff84353046ccb9f124a37368b077113d47d8382b",
    ),
    "classify-p8": (
        "604f0c93e06afba09c098d123d01a490bfefa8d6411a5f187e8cf4fede9a8e01",
        "3d0bd425d384dbbda6c8457f880463774c85aff94f082dbfba3de3c22d591b9a",
        "738348e0a8dc62f67c6c66766ac7d3ab8a35f3aafa6562de22cfc6c20acd1139",
    ),
    "classify-p9": (
        "e3867e0f46dd4d4b00722395977dbac229c0176484b24a4f9828b62b0ab1b765",
        "67a14c3677829bc9235e963d51200a292d55108a181428b9b14b3a71dd53e447",
        "54972bc4fe61e6518fc01954cf12d7ff091904fee9fdfcdb849b136c0326b438",
    ),
    "enumerate-all-filters": (
        "61c1a69c0339441037e55493dac781fdcacd8f983f68bf902741c1a63df65a19",
        "b7e527c2f775ba21357835a493420b84a458c9106a9bb216440e7847ac1ceed7",
        "2ef00cb11df459a2b836fd58539666d4806a9b19993533721d252c5452ce1ae5",
    ),
    "enumerate-congruence-dedekind": (
        "324e052fbaee28415b3dbe9680163c554fbc46fc25041567d7e5a67b2586703c",
        "568091abb6a574ac6929bc1ca921fb81179fe038d62559c4c0cba85df82ea6c4",
        "2b44ce0f9c6001a2c9b6506d271acbc1706914abf2a0fe235ba2b4042bd1fee2",
    ),
    "enumerate-distance-only": (
        "1683933b4d51ee8f3ba7d352f8bf0afc2314a1c29bdd0299cf3c44e16b883266",
        "ef77ec3ca9d9bb5f46e49138cc858c1370b015a7ff886cd167173f7a828f6319",
        "c140eb373272fc50217e6dd4b921e29e42c03d1906d6fa65aef8debbff2426d9",
    ),
    "enumerate-max-gap-3": (
        "a2f3b11009a7fde6d0c8267b888bbe94c13927c0143c5a3a3c7c81726db940eb",
        "2cd6ba32bb9b76ef50b976f227a5ce5000238dd4086b553633a42b797b1947e0",
        "6909863aa0c14cc5fc1af7671c230dcb198c4a05bae4116e159f17776a6f2986",
    ),
    "enumerate-sparse-q": (
        "770cfd0a9fa63f8c9d7ed2768879b63d82352223cd4f552eeeb7bab15f90cd2f",
        "9a0bf560c867872db7417d92cd1d6e49a4fd7a3684bc03532539a21ee0f2a33a",
        "f16e71ba9898bb05c49190c4391ed7d0a6fef00ab93f3b5a03c770be7b5d1b85",
    ),
    "enumerate-large-p": (
        "1d366e1af6d7ff2ad5ec13c9075428971c39a444c425d8ed6f7d587491c5dbdd",
        "71a59d616b8ec53cfda05eb84bb6d1c57db12fb110364fac7a5f0cc0961ee359",
        "3d56683afe4d665cbeb74af08fac101bca282c8590eaf16f980a5b2277fb7926",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_bytes_match_goldens(name):
    result = GOLDEN_CASES[name]()
    got = tuple(
        hashlib.sha256(emit_report(result, fmt).encode()).hexdigest()
        for fmt in ("json", "csv", "markdown")
    )
    assert got == GOLDEN_SHA256[name]


def test_golden_cases_cover_the_distance_warning():
    assert GOLDEN_CASES["enumerate-congruence-dedekind"]().warnings


def _rows(result, fmt):
    # The table rows of a csv or markdown sweep report without warnings.
    start = 1 if fmt == "csv" else 4
    lines = emit_report(result, fmt).splitlines()
    return lines[start:start + len(result.pairs)]


def _rows_one_by_one(result, fmt):
    # The same rows, each rendered in a sweep of its own record, where no
    # row template is ever built.
    return [row for pv in result.pairs
            for row in _rows(result._replace(pairs=(pv,)), fmt)]


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_rows_from_a_shared_trail_match_rows_rendered_alone(fmt,
                                                            monkeypatch):
    # Hand-built records no engine makes.  One parity-failure trail
    # object serves classes whose gcds differ (2 and 3, 3 and 4, only 4,
    # only 6), two gaps and two values of p, and comes back to p = 12
    # after p = 6; another trail's witnesses hold braces; most classes
    # have three rows or more, so their rows from the third on come from
    # templates.
    parity = (ObstructionVerdict("distance", True, {"delta": 12}),
              ObstructionVerdict("parity", False, {}))
    braces = (ObstructionVerdict("distance", False, {"delta": "{"}),
              ObstructionVerdict("parity", True),
              ObstructionVerdict("congruence", True, {"unit": "{1}}"}),
              ObstructionVerdict("dedekind", False,
                                 {"s_q": "{0}", "s_q_prime": '}{, "'}))

    def records(p, residues, trail, surviving=False, gap=1):
        return [PairVerdict(p, q, q + gap, trail, surviving)
                for r in residues for q in (r, r + p, r - 3 * p, r + 9 * p)]

    alone = parity[1:]  # at p = 1 the meridian's text depends on q
    meridian = [PairVerdict(1, q, q + 1, alone, False)
                for q in (0, 5, -1, 9, 0)]
    pairs = tuple(records(12, (2, 3, 4, 5), parity)
                  + records(6, (2, 3, 5), parity)
                  + records(12, (2, 3), parity)
                  + records(12, (2,), parity, gap=13)
                  + records(7, (1, 2), braces)
                  + records(7, (1,), braces, surviving=True)
                  + meridian)
    result = EnumerationResult(pairs, SELECTABLE_FILTERS, 8, ())
    calls = []
    render = report.reason

    def counted(p, q, q_prime, verdict):
        calls.append((p, q, q_prime))
        return render(p, q, q_prime, verdict)

    monkeypatch.setattr(report, "reason", counted)
    got = _rows(result, fmt)
    if fmt == "csv":
        # Reasons for a class's first two rows only, not per pair: its
        # later rows are filled in.
        assert len(calls) == 2 * ((4 + 3 + 2 + 1) + 2 * 3 + 2)
    assert got == _rows_one_by_one(result, fmt)
    if fmt == "csv":
        assert got[10] == ("12,-32,-31,1,12,pass,fail,skipped,skipped,no,"
                           '"gcd(-32, 12) = 4, so not a slope pair"')
        assert got[42] == (
            '7,-20,-19,1,7,fail,pass,pass,fail,no,"slope distance { exceeds '
            "the exceptional bound 8; unit {1}}; s(-20, 7) = {0} but "
            's(-19, 7) = }{, """')


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
def test_engine_classes_render_as_rows_rendered_alone(fmt):
    # Classes of many pairs, the meridian pairs of p = 1 among them.
    result = run_enumeration(range(1, 9), range(-30, 31), max_gap=12)
    assert _rows(result, fmt) == _rows_one_by_one(result, fmt)


def _count_texts(monkeypatch):
    # Count reason() and reason_template() calls by class and filter.
    calls = {"reason": Counter(), "reason_template": Counter()}
    for name, counter in calls.items():
        def counted(p, q, q_prime, verdict, render=getattr(report, name),
                    counter=counter):
            counter[p, q % p, q_prime - q, 0 in (q, q_prime), verdict[0]] += 1
            return render(p, q, q_prime, verdict)
        monkeypatch.setattr(report, name, counted)
    return calls["reason"], calls["reason_template"]


def test_csv_sweep_renders_each_class_reason_at_most_twice(monkeypatch):
    # The counterpart of test_sweep_evaluates_each_class_once_per_sweep:
    # reason() runs per failing verdict of a class for its first two rows,
    # not once per pair, and reason_template() once, for its third.
    reasons, templates = _count_texts(monkeypatch)
    text = emit_report(stream_enumeration(range(1, 9), range(50000, 51200)),
                       "csv")
    assert text.count("\n") == 1 + 8 * (1200 * 8 - 36)
    assert hashlib.sha256(text.encode()).hexdigest().startswith("0de32a9e")
    assert reasons and set(reasons.values()) == {2}
    assert len(reasons) <= 2 * sum(8 * p for p in range(1, 9))
    assert set(templates) == set(reasons)
    assert set(templates.values()) == {1}


def test_a_class_of_one_pair_builds_no_template(monkeypatch):
    # At p = 131 each pair of q 1..100 is a class of its own.
    reasons, templates = _count_texts(monkeypatch)
    sweep = run_enumeration([131], range(1, 101), ["congruence", "dedekind"])
    emit_report(sweep, "csv")
    assert sum(reasons.values()) >= len(sweep.pairs) == 100 * 8 - 36
    assert not templates


def test_a_class_of_two_pairs_builds_no_template(monkeypatch):
    # At p = 179 a class of q 1..300 holds q and q + 179 at most, and most
    # classes hold both; the second row is rendered as the first was.
    reasons, templates = _count_texts(monkeypatch)
    sweep = run_enumeration([179], range(1, 301), ["congruence", "dedekind"])
    text = emit_report(sweep, "csv")
    assert set(reasons.values()) == {1, 2}
    assert not templates
    rows = text.splitlines()[1:]
    assert rows == _rows_one_by_one(sweep, "csv")


def _corpus_q_set(shape, rng):
    n = rng.randint(30, 70)
    if shape == "dense":
        start = rng.randint(-60, 60000)
        return range(start, start + n)
    if shape == "stepped":
        step, start = rng.randint(2, 7), rng.randint(-200, 60000)
        return range(start, start + step * n, step)
    if shape == "sparse":
        return sorted(rng.sample(range(-400, 1600), n))
    return [rng.randint(-150, 150) for _ in range(n)]  # repeats, zero too


# SHA-256 of the csv and the markdown reports of each q shape's seeded
# sweeps, concatenated: every filter selection three times, p sets drawn
# from 1..40, max gaps from 1..100.  Computed before the sweep writer
# rendered a class's later rows from a template, so a change to the
# engine's records or to the writer's bytes shows here.
CORPUS_SHA256 = {
    "dense": (
        "f352cd599789589f5a8f2c33b2ac9b0be874fbe885deb0a55291178fb331b455",
        "2076b5ec7288adf8834bf6264cbcca152eca0c833687956d71211c8bc3f1886b",
    ),
    "stepped": (
        "305002f66d3fb96300d86f4049ae075723e624b45e76fd6609a81f89457d5a65",
        "76ec0937572180dbc6c944ba450a0725591871f7d179b010dd433c0133f5a60b",
    ),
    "sparse": (
        "7dca68f13ac2cb5d153e7d263b9f0d905e4d0d7a0020a78b6feaa3a16a8c54e7",
        "1571e0bfb9e6a9e54a63523ae8c0ea6f98d526ecf8dbab324313fa9b191b9c75",
    ),
    "unsorted": (
        "dd212af44c6c7e658fa666112b6c57789e6bb99534c416eab619ecf223bbf198",
        "75b5d597cdefcebd512a0d8d565ac34fedbd8902bddcf846ba11042cf9bba3f5",
    ),
}


@pytest.mark.parametrize("seed, shape", enumerate(CORPUS_SHA256, 2800))
def test_seeded_sweep_corpus_matches_its_digests(seed, shape):
    rng = random.Random(seed)
    selections = [list(c) for k in range(4)
                  for c in combinations(SELECTABLE_FILTERS, k)]
    digests = hashlib.sha256(), hashlib.sha256()
    for filters in selections * 3:
        ps = rng.sample(range(1, 41), rng.randint(1, 6))
        qs = _corpus_q_set(shape, rng)
        result = run_enumeration(ps, qs, filters, rng.randint(1, 100))
        for digest, fmt in zip(digests, ("csv", "markdown")):
            digest.update(emit_report(result, fmt).encode())
    assert tuple(d.hexdigest() for d in digests) == CORPUS_SHA256[shape]
