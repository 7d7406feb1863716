"""Render classification and enumeration results as JSON, CSV or markdown.

All three formats are deterministic: fixed field order, sorted inputs,
"\n" line endings.  JSON reports carry a top-level schema_version so
downstream consumers can detect layout changes.

Each result kind lays out its rows in one function that writes them to
a text stream in chunks as they are made, so a streamed sweep is never
held whole; emit_report collects the same bytes in a string.
"""

import io
from collections import Counter
from itertools import chain, islice
from operator import attrgetter

from . import FORMATS
from .engine import (
    ClassificationTable,
    ClassifyResult,
    EnumerationResult,
    FILTER_ORDER,
    GeometryClass,
)
from .obstructions import distance_cap

REPORT_SCHEMA_VERSION = 1

_VERDICT_COLUMNS = list(FILTER_ORDER) + ["surviving", "detail"]
_PATTERN = attrgetter("filter_name", "passed")  # what a row's cells read

_CASE_TITLES = {
    GeometryClass.REDUCIBLE: "reducible filling",
    GeometryClass.SEIFERT_TOROIDAL: "toroidal Seifert fibred filling",
    GeometryClass.SMALL_SEIFERT_INFINITE:
        "small Seifert fibred filling with infinite fundamental group",
    GeometryClass.TOROIDAL_IRREDUCIBLE_NON_SEIFERT:
        "toroidal irreducible non-Seifert filling",
    GeometryClass.FINITE_PI1: "finite fundamental group",
}


def _residue(record):
    return "any" if record.p == 1 else record.q_residue


def _record_dict(record, family):
    if family:
        key = {"q_residue": _residue(record)}
    else:
        key = {"q": record.q, "q_prime": record.q_prime}
    return {
        "p": record.p,
        **key,
        "gap": record.gap,
        "delta": record.delta,
        "surviving": record.surviving,
        "verdicts": [
            {"filter": v.filter_name, "passed": v.passed, "witness": v.witness}
            for v in record.verdicts
        ],
    }


def _detail(verdicts):
    notes = []
    for v in verdicts:
        if not v.passed and "reason" in v.witness:
            notes.append(v.witness["reason"])
        elif v.filter_name == "congruence" and v.passed and v.witness["unit"]:
            notes.append(f"unit {v.witness['unit']}")
    return "; ".join(notes)


def _pattern_cells(verdicts, surviving, selected):
    # A filter cell is pass/fail, "skipped" after a parity failure, or ""
    # if switched off: cells read only the record's pattern.
    by_name = {v.filter_name: v for v in verdicts}
    skipped = "parity" in by_name and not by_name["parity"].passed
    return [
        ("pass" if by_name[name].passed else "fail")
        if name in by_name
        else "skipped" if name in selected and skipped else ""
        for name in FILTER_ORDER
    ] + ["yes" if surviving else "no"]


def _cells(records, selected, tally):
    # (record, its filter and surviving cells), counting records by their
    # surviving flag in `tally`; one build per pattern.
    table = {}
    for record in records:
        key = (record.surviving, *map(_PATTERN, record.verdicts))
        cells = table.get(key)
        if cells is None:
            cells = table[key] = _pattern_cells(record.verdicts,
                                                record.surviving, selected)
        tally[record.surviving] += 1
        yield record, cells


def _csv_rows(records, selected):
    # One line per sweep record: the joined cells are cached per pattern,
    # and the detail is read from the record's own witnesses.
    table = {}
    for p, q, q_prime, verdicts, surviving in records:
        key = (surviving, *map(_PATTERN, verdicts))
        cells = table.get(key)
        if cells is None:
            cells = table[key] = ",".join(
                _pattern_cells(verdicts, surviving, selected))
        yield (f"{p},{q},{q_prime},{q_prime - q},{p * (q_prime - q)},"
               f"{cells},{_csv_cell(_detail(verdicts))}")


def _chunks(items):
    # Lists of up to 4096 items: one write per chunk, not per row.
    items = iter(items)
    while chunk := list(islice(items, 4096)):
        yield chunk


def _json(out, kind, **fields):
    import json

    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, **fields}
    out.write(json.dumps(payload, indent=2) + "\n")


def _csv_cell(cell):
    # csv's minimal quoting for "\n" line ends, as csv.writer does it.
    text = str(cell)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(out, header, rows):
    _lines(out, (",".join(map(_csv_cell, row))
                 for row in chain([header], rows)))


def _lines(out, lines):
    for chunk in _chunks(lines):
        out.write("\n".join(chunk) + "\n")


def _markdown_row(cells):
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _markdown_table(preamble, header, rows):
    rule = "|" + " --- |" * len(header)
    return chain(preamble, [_markdown_row(header), rule],
                 map(_markdown_row, rows))


def _theorem_report(table, fmt, out):
    if fmt == "json":
        cases = [
            {
                "geometry": geometry.value,
                "distance_cap": distance_cap(geometry),
                "families": [_record_dict(f, True) for f in families],
                "note": table.note_for(geometry),
            }
            for geometry, families in table.sections.items()
        ]
        evaluated = [_record_dict(f, True) for f in table.evaluated]
        return _json(out, "theorem_table", cases=cases, evaluated=evaluated)
    if fmt == "csv":
        return _csv(
            out, ["geometry", "p", "q_residue", "gap", "delta", "detail"],
            (
                [geometry.value, f.p, _residue(f), f.gap, f.delta,
                 _detail(f.verdicts)]
                for geometry, families in table.sections.items()
                for f in families
            ),
        )
    lines = [
        "# Truly cosmetic exceptional surgeries: surviving slope families",
        "",
        "A truly cosmetic pair of exceptional surgeries p/q, p/q' (q < q')",
        "on a hyperbolic knot in an integer homology sphere falls into one",
        "of the cases below; every family not listed is obstructed.",
    ]
    sections = table.sections.items()
    for index, (geometry, families) in enumerate(sections, start=1):
        cap = distance_cap(geometry)
        lines += [
            "",
            f"## Case {index}: {_CASE_TITLES[geometry]} (distance cap {cap})",
            "",
        ]
        for f in families:
            bits = [f.describe(), f"delta = {f.delta}", _detail(f.verdicts)]
            lines.append("- " + "; ".join(bit for bit in bits if bit))
        if not families:
            note = table.note_for(geometry)
            lines.append(f"- {note}" if note else "- no surviving family")
    obstructed = sum(1 for f in table.evaluated if not f.surviving)
    _lines(out, [*lines, "", f"{len(table.evaluated)} residue families "
                 f"evaluated in total; {obstructed} obstructed."])


def _classify_report(result, fmt, out):
    if fmt == "json":
        return _json(
            out, "classification",
            p=result.p,
            families=[_record_dict(f, True) for f in result.families],
            surviving=[_record_dict(f, True) for f in result.surviving],
        )
    tally = Counter()
    families = _cells(result.families, FILTER_ORDER, tally)
    if fmt == "csv":
        return _csv(
            out, ["p", "q_residue", "gap", "delta"] + _VERDICT_COLUMNS,
            ([f.p, _residue(f), f.gap, f.delta, *cells, _detail(f.verdicts)]
             for f, cells in families),
        )
    _lines(out, _markdown_table(
        [f"# Residue families for p = {result.p}", ""],
        ["family", "delta"] + _VERDICT_COLUMNS,
        ([f.describe(), f.delta, *cells, _detail(f.verdicts)]
         for f, cells in families),
    ))
    out.write(f"\n{tally[True]} of {tally.total()} families survive.\n")


def _enumeration_report(result, fmt, out):
    # Read once, as they arrive: `result.pairs` may be a generator.
    if fmt == "csv":
        # Only the detail may need quoting: the rest are integers and words.
        header = ["p", "q", "q_prime", "gap", "delta"] + _VERDICT_COLUMNS
        return _lines(out, chain([",".join(header)],
                                 _csv_rows(result.pairs, result.filters)))
    tally = Counter()
    rows = _cells(result.pairs, result.filters, tally)
    if fmt == "json":
        # A hand-written envelope around pairs encoded one at a time and
        # indented to their depth: the bytes of one json.dumps.
        import json

        out.write(json.dumps({
            "schema_version": REPORT_SCHEMA_VERSION, "kind": "enumeration",
            "filters": list(result.filters), "max_gap": result.max_gap,
            "warnings": list(result.warnings), "pairs": [],
        }, indent=2)[:-len("]\n}")])
        texts = (json.dumps(_record_dict(pv, False), indent=2)
                 for pv, _ in rows)
        for index, chunk in enumerate(_chunks(texts)):
            out.write(("," if index else "") + "\n    "
                      + ",\n".join(chunk).replace("\n", "\n    "))
        out.write(("\n  ]" if tally else "]")
                  + f',\n  "survivor_count": {tally[True]}\n}}\n')
        return
    preamble = ["# Pair sweep", ""]
    for warning in result.warnings:
        preamble += [f"Note: {warning}", ""]
    # The markdown sweep table leaves out the detail column.
    _lines(out, _markdown_table(
        preamble, ["p", "q", "q'", "delta"] + _VERDICT_COLUMNS[:-1],
        ([pv.p, pv.q, pv.q_prime, pv.delta, *cells] for pv, cells in rows),
    ))
    out.write(f"\n{tally[True]} of {tally.total()} pairs survive.\n")


def write_report(result, fmt, out):
    """Write a ClassificationTable, ClassifyResult or EnumerationResult to
    the text stream `out` as json, csv or markdown.  A sweep is written as
    its pairs arrive; if a streamed sweep raises, earlier rows stay."""
    kind = {
        ClassificationTable: _theorem_report,
        ClassifyResult: _classify_report,
        EnumerationResult: _enumeration_report,
    }.get(type(result))
    if kind is None or fmt not in FORMATS:
        raise ValueError(f"cannot render {type(result).__name__} as {fmt!r}")
    kind(result, fmt, out)


def emit_report(result, format="json"):
    """The text of write_report; identical inputs give identical bytes."""
    out = io.StringIO()
    write_report(result, format, out)
    return out.getvalue()
