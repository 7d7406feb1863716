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
], ids=["filling-slope", "record-id", "slope-type", "betti-type",
        "coefficients-type", "fixed-slope-type", "kind-type", "lens-type"])
def test_load_names_a_missing_record_or_filling_key(tmp_path, capsys, edit,
                                                     message):
    data = _census_data()
    edit(data)
    path = _write(tmp_path, data)
    with pytest.raises(ValueError) as info:
        load_census(path)
    assert str(info.value) == message
    assert main(["replicate-theorem", "--census-file", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


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
