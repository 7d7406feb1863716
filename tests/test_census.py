import json
from importlib import resources

import pytest

from cosmetic.census import (
    EXPECTED_DISTANCES,
    EXPECTED_IDS,
    census_lookup,
    load_census,
    verify_census_exclusions,
    zhs_exterior_filter,
)
from cosmetic.cli import main
from cosmetic.engine import CrossCheckError


CITED = {"M1", "M2", "M3", "M6", "M7", "M10", "M11", "M12", "M13"}


def _census_data():
    text = resources.files("cosmetic").joinpath("census.json").read_text()
    return json.loads(text)


def _write(tmp_path, data):
    path = tmp_path / "census.json"
    path.write_text(json.dumps(data))
    return path


def test_census_loads_all_records():
    census = load_census()
    assert list(census) == list(EXPECTED_IDS)
    assert len(census) == 18


def test_distance_groupings():
    census = load_census()
    for rid, record in census.items():
        assert record.toroidal_pair_distance == EXPECTED_DISTANCES[rid]
    four = {rid for rid, d in EXPECTED_DISTANCES.items() if d == 4}
    five = {rid for rid, d in EXPECTED_DISTANCES.items() if d == 5}
    assert four == {"M1", "M2", "M4", "M6", "M9", "M13", "M14"}
    assert five == {"M3", "M5", "M7", "M8", "M10", "M11", "M12"}
    assert EXPECTED_DISTANCES["W(2)"] == 6
    assert EXPECTED_DISTANCES["W(-5/2)"] == 7
    assert EXPECTED_DISTANCES["W(1)"] == 8
    assert EXPECTED_DISTANCES["W(-5)"] == 8


def test_boundary_torus_counts():
    census = load_census()
    for rid, record in census.items():
        expected = 2 if rid in {"M1", "M2", "M3", "M14"} else 1
        assert record.boundary_tori == expected


def test_lens_fillings_record_their_order():
    census = load_census()
    lens_orders = {}
    for rid, record in census.items():
        for filling in record.lens_fillings():
            assert filling.order == filling.lens[0]
            lens_orders[rid] = filling.order
    assert lens_orders == {
        "M6": 9, "M7": 20, "M8": 4, "M9": 8,
        "M10": 14, "M11": 24, "M12": 3, "M13": 4,
    }


def test_lookup():
    record = census_lookup("M6")
    assert record.lens_fillings()[0].lens == (9, 2)
    with pytest.raises(KeyError):
        census_lookup("M99")


def test_all_records_excluded_with_reasons():
    census = load_census()
    for rid in EXPECTED_IDS:
        verdict = zhs_exterior_filter(census[rid])
        assert verdict.excluded, rid
        assert verdict.reason, rid
        assert verdict.cited == (rid in CITED), rid


def test_nine_exclusions_are_computed_and_nine_cited():
    # M6, M7 and M10-M13 only restate the order of their lens filling, so
    # they are cited like M1-M3; the other nine are recomputed.
    cited = [zhs_exterior_filter(r).cited for r in load_census().values()]
    assert cited.count(True) == cited.count(False) == 9


def test_census_show_marks_every_cited_exclusion(capsys):
    for rid in EXPECTED_IDS:
        assert main(["census", "show", rid]) == 0
        verdict = capsys.readouterr().out.splitlines()[-1]
        assert verdict.startswith("  verdict: excluded")
        assert ("[cited]" in verdict) == (rid in CITED), rid


def test_exclusion_reasons_carry_the_numbers():
    census = load_census()

    def reason(rid):
        return zhs_exterior_filter(census[rid]).reason

    assert "H_1 = Z" in reason("M4")
    assert "Z + Z/4" in reason("M5")
    assert "Z/2 + Z/2" in reason("M14")
    for rid, order in (("M6", 9), ("M7", 20), ("M10", 14),
                       ("M11", 24), ("M12", 3), ("M13", 4)):
        text = reason(rid)
        assert f"order {order}" in text
        assert "torsion" in text
    assert "[3, 5]" in reason("M8") and "[15, 17]" in reason("M8")
    assert "[7, 9]" in reason("M9") and "[23, 25]" in reason("M9")
    assert "derivative 2" in reason("W(1)")
    assert "multiple of 2" in reason("W(2)") and "[1]" in reason("W(2)")
    assert "multiple of 5" in reason("W(-5)") and "[1, 2]" in reason("W(-5)")
    assert "multiple of 5" in reason("W(-5/2)") and "[1]" in reason("W(-5/2)")


def test_verify_census_exclusions_counts():
    assert verify_census_exclusions() == 18


def test_load_rejects_wrong_distance(tmp_path):
    data = _census_data()
    data["records"][0]["toroidal_pair_distance"] = 6
    with pytest.raises(ValueError):
        load_census(_write(tmp_path, data))


def test_load_rejects_unknown_id(tmp_path):
    data = _census_data()
    data["records"][0]["id"] = "M99"
    with pytest.raises(ValueError):
        load_census(_write(tmp_path, data))


def test_load_rejects_schema_mismatch(tmp_path):
    data = _census_data()
    data["schema_version"] = 2
    with pytest.raises(ValueError):
        load_census(_write(tmp_path, data))


def test_load_rejects_inconsistent_lens_order(tmp_path):
    data = _census_data()
    for record in data["records"]:
        if record["id"] == "M6":
            for filling in record["known_fillings"]:
                if filling["kind"] == "lens":
                    filling["order"] = 10
    with pytest.raises(ValueError):
        load_census(_write(tmp_path, data))


def test_verify_flags_non_excluding_census(tmp_path):
    data = _census_data()
    for record in data["records"]:
        if record["id"] == "M6":
            record["homology_facts"] = []
            record["known_fillings"] = []
    census = load_census(_write(tmp_path, data))
    assert not zhs_exterior_filter(census["M6"]).excluded
    with pytest.raises(CrossCheckError):
        verify_census_exclusions(census)


def test_load_names_a_missing_fact_field(tmp_path, capsys):
    data = _census_data()
    (m1,) = [r for r in data["records"] if r["id"] == "M1"]
    assert m1["homology_facts"][0]["kind"] == "cited_exclusion"
    del m1["homology_facts"][0]["statement"]
    path = _write(tmp_path, data)
    message = "M1: homology fact 0 (cited_exclusion) has no 'statement' field"
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    assert main(["replicate-theorem", "--census-file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_load_rejects_unknown_fact_kind(tmp_path):
    data = _census_data()
    data["records"][4]["homology_facts"][0]["kind"] = "hearsay"
    message = r"M5: homology fact 0 has unknown kind 'hearsay'"
    with pytest.raises(ValueError, match=message):
        load_census(_write(tmp_path, data))


def _drop_order(filling):
    # A lens filling with no order and a lens list whose first entry is
    # null: None equals None, so only a check for the order itself fails it.
    del filling["order"]
    filling["lens"] = [None]


@pytest.mark.parametrize("edit, message", [
    (lambda data: data["records"][7]["known_fillings"][1].pop("slope"),
     "M8: known filling 1 has no 'slope' field"),
    (lambda data: data["records"][4].pop("id"),
     "census record 4 has no 'id' field"),
    (lambda data: data["records"][7]["known_fillings"][1].update(slope=5),
     "M8: known filling 1: 'slope' is not a JSON string"),
    (lambda data: data["records"][3]["homology_facts"][0].update(betti="1"),
     "M4: homology fact 0 (filling_homology): 'betti' is not a JSON "
     "integer"),
    (lambda data: data["records"][14]["homology_facts"][1].update(
        coefficients=[1, 2]),
     "W(1): homology fact 1 (alexander_polynomial): 'coefficients' is not "
     "a JSON object"),
    (lambda data: data["records"][14]["homology_facts"][0].update(
        fixed_slope=5),
     "W(1): homology fact 0 (whitehead_surgery_determinant): 'fixed_slope' "
     "is not a JSON string"),
    (lambda data: data["records"][0]["homology_facts"][0].update(kind=["x"]),
     "M1: homology fact 0 has unknown kind ['x']"),
    (lambda data: data["records"][5]["known_fillings"][0].update(lens=7),
     "M6: known filling 0: 'lens' is not a JSON list"),
    (lambda data: data["records"][5]["known_fillings"][0].update(lens=[]),
     "M6: lens filling 'M6(infinity) = L(9,2)' must record order equal to "
     "the first lens parameter"),
    (lambda data: _drop_order(data["records"][5]["known_fillings"][0]),
     "M6: lens filling 'M6(infinity) = L(9,2)' must record order equal to "
     "the first lens parameter"),
    (lambda data: data["records"][7]["known_fillings"][0].update(slope=""),
     "M8: known filling 0 slope: invalid literal for int() with base 10: "
     "''"),
    (lambda data: data["records"][7]["known_fillings"][0].update(
        slope="0/0"),
     "M8: known filling 0 slope: 0/0 is not a slope"),
], ids=["filling-slope", "record-id", "slope-type", "betti-type",
        "coefficients-type", "fixed-slope-type", "kind-type", "lens-type",
        "lens-empty", "lens-no-order", "slope-empty", "slope-zero"])
def test_load_names_a_missing_record_or_filling_key(tmp_path, capsys, edit,
                                                     message):
    data = _census_data()
    edit(data)
    path = _write(tmp_path, data)
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    assert main(["replicate-theorem", "--census-file", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("data, message", [
    ([], "census file is not a JSON object"),
    ({"schema_version": 1}, "census file has no 'records' field"),
    ({"schema_version": 1, "records": [1]},
     "census record 0 is not a JSON object"),
    ({"schema_version": 1, "records": {}},
     "census file: 'records' is not a JSON list"),
], ids=["top-level-list", "no-records", "record-not-object",
        "records-not-list"])
def test_load_checks_the_top_level_shape(tmp_path, capsys, data, message):
    path = _write(tmp_path, data)
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    assert main(["replicate-theorem", "--census-file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_replace_cannot_build_an_unexplained_exclusion():
    verdict = zhs_exterior_filter(load_census()["M4"])
    assert verdict._replace(cited=True).cited
    for reason in (None, ""):
        with pytest.raises(ValueError):
            verdict._replace(reason=reason)


_NOT_FACTORS = (" is not a list of invariant factors (integers >= 2, each "
                "dividing the next)")


@pytest.mark.parametrize("field, value, text", [
    ("torsion", [2, 3], "'torsion' [2, 3]" + _NOT_FACTORS),
    ("torsion", [1, 2], "'torsion' [1, 2]" + _NOT_FACTORS),
    ("torsion", ["a"], "'torsion' ['a']" + _NOT_FACTORS),
    ("betti", -1, "'betti' -1 is negative"),
], ids=["coprime", "unit", "string", "negative-betti"])
def test_load_takes_only_invariant_factor_groups(tmp_path, capsys, field,
                                                 value, text):
    # Z/2 + Z/3 is the cyclic Z/6, so reading [2, 3] as two summands would
    # exclude M14 on a false premise.
    data = _census_data()
    (m14,) = [r for r in data["records"] if r["id"] == "M14"]
    m14["homology_facts"][0][field] = value
    path = _write(tmp_path, data)
    message = f"M14: homology fact 0 (quotient_homology): {text}"
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    for argv in (["census", "show", "M14"], ["replicate-theorem"]):
        assert main([*argv, "--census-file", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _fails_at_load(tmp_path, capsys, data, rid, message):
    # load_census raises `message`; `census show` and `replicate-theorem`
    # print it as one error line and nothing else, exit 1.
    path = _write(tmp_path, data)
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    for argv in (["census", "show", rid], ["replicate-theorem"]):
        assert main([*argv, "--census-file", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_whitehead_coefficient_zero_is_an_error(tmp_path, capsys):
    data = _census_data()
    (w2,) = [r for r in data["records"] if r["id"] == "W(2)"]
    w2["homology_facts"][0]["fixed_slope"] = "0/1"
    _fails_at_load(tmp_path, capsys, data, "W(2)",
                   "W(2): homology fact 0 (whitehead_surgery_determinant): "
                   "'fixed_slope' '0/1' has numerator 0")


@pytest.mark.parametrize("rid, edit, text", [
    ("M1", lambda r: r["homology_facts"][0].update(statement=""),
     "(cited_exclusion): 'statement' is empty"),
    ("M8", lambda r: r["known_fillings"][0].update(kind="exceptional"),
     "(framing_shift_exclusion): the framing-shift exclusion needs one "
     "lens filling and the two toroidal fillings on record"),
    ("M8", lambda r: r["known_fillings"][2].update(slope="0/1"),
     "(framing_shift_exclusion): the framing-shift argument expects the "
     "lens filling at slope -1 in the census framing"),
    ("M8", lambda r: r["known_fillings"][2].update(order=-4, lens=[-4, 1]),
     "(framing_shift_exclusion): the lens filling's order -4 is negative"),
    ("W(1)", lambda r: r["homology_facts"][0].update(fixed_slope="1/x"),
     "(whitehead_surgery_determinant): invalid literal for int() with "
     "base 10: 'x'"),
    ("W(1)", lambda r: r["homology_facts"][1].update(coefficients={}),
     "(alexander_polynomial): Alexander polynomial must be normalized to "
     "value +-1 at t = 1"),
], ids=["empty-statement", "one-toroidal", "lens-slope", "lens-order",
        "fixed-slope-text", "no-polynomial"])
def test_each_kind_checks_its_values_at_load(tmp_path, capsys, rid, edit,
                                             text):
    # A value the rule could not read is rejected before any output, so
    # `census show` never prints a record it cannot judge.
    data = _census_data()
    (record,) = [r for r in data["records"] if r["id"] == rid]
    edit(record)
    index = "1" if text.startswith("(alexander") else "0"
    _fails_at_load(tmp_path, capsys, data, rid,
                   f"{rid}: homology fact {index} {text}")


def _verdict_with(record, *facts):
    # The verdict on `record` built by hand with these homology facts.
    return zhs_exterior_filter(record._replace(homology_facts=facts))


def test_filter_names_a_kind_missing_from_the_table():
    # Only a record built by hand can carry one; load_census rejects it.
    with pytest.raises(ValueError) as info:
        _verdict_with(load_census()["M5"], {"kind": "hearsay"})
    assert str(info.value) == "M5: unknown homology fact kind 'hearsay'"


def test_a_fact_that_excludes_nothing_falls_through_to_the_next():
    m4 = load_census()["M4"]
    finite = dict(m4.homology_facts[0], betti=0)
    cited = {"kind": "cited_exclusion", "statement": "Cited."}
    assert _verdict_with(m4, finite) == (False, None, False)
    assert _verdict_with(m4, finite, cited) == (True, "Cited.", True)
    # The first excluding fact decides; a later one is never read.
    computed = _verdict_with(m4, *m4.homology_facts)
    assert not computed.cited
    assert _verdict_with(m4, *m4.homology_facts, cited) == computed


_WRONG_VALUES = (0, -1, [], [2, 3], "0/1", "", {}, True, None)


def test_every_single_field_corruption_keeps_the_exit_contract(tmp_path,
                                                               capsys):
    # Each field of each fact and filling of the shipped census, set to
    # each wrong value in turn: `census show` of that record exits 0, 1
    # or 2 and never raises, and an exit 1 prints one error line and
    # nothing on standard output.
    data = _census_data()
    path = tmp_path / "census.json"
    for record in data["records"]:
        entries = record["homology_facts"] + record["known_fillings"]
        for entry, field in [(e, f) for e in entries for f in list(e)]:
            kept = entry[field]
            for value in _WRONG_VALUES:
                entry[field] = value
                path.write_text(json.dumps(data))
                argv = ["census", "show", record["id"], "--census-file",
                        str(path)]
                code = main(argv)
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (argv, field, value)
                if code == 1:
                    assert out == "", (field, value, out)
                    assert err.startswith("error: "), (field, value, err)
                    assert err.count("\n") == 1, (field, value, err)
            entry[field] = kept
    assert data == _census_data()
