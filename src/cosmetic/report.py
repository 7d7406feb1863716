"""Render classification and enumeration results as JSON, CSV or markdown.

All three formats are deterministic: fixed field order, sorted inputs,
"\n" line endings.  JSON reports carry a top-level schema_version so
downstream consumers can detect layout changes.

Each result kind lays out its rows in one function; rows stay generators
until the shared CSV writer consumes them, so a sweep is never held twice.
"""

from __future__ import annotations

import csv
import io
import json

from .engine import (
    ClassificationTable,
    ClassifyResult,
    EnumerationResult,
    FILTER_ORDER,
    GeometryClass,
)
from .obstructions import distance_cap

REPORT_SCHEMA_VERSION = 1

FORMATS = ("json", "csv", "markdown")

_VERDICT_COLUMNS = list(FILTER_ORDER) + ["surviving", "detail"]

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


def _cells(record, selected=FILTER_ORDER):
    # One cell per canonical filter, then surviving and detail.  A filter
    # cell is pass/fail, "skipped" for a filter not run because parity
    # failed, and "" for a filter switched off entirely.
    by_name = {v.filter_name: v for v in record.verdicts}
    skipped = "parity" in by_name and not by_name["parity"].passed
    cells = []
    for name in FILTER_ORDER:
        if name in by_name:
            cells.append("pass" if by_name[name].passed else "fail")
        elif name in selected and skipped:
            cells.append("skipped")
        else:
            cells.append("")
    surviving = "yes" if record.surviving else "no"
    return cells + [surviving, _detail(record.verdicts)]


def _json(kind, **fields):
    payload = {"schema_version": REPORT_SCHEMA_VERSION, "kind": kind, **fields}
    return json.dumps(payload, indent=2) + "\n"


def _csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _markdown(lines, footer):
    return "\n".join([*lines, "", footer, ""])


def _markdown_row(cells):
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _markdown_table(preamble, header, rows, footer):
    lines = [*preamble, _markdown_row(header), "|" + " --- |" * len(header)]
    lines.extend(_markdown_row(row) for row in rows)
    return _markdown(lines, footer)


def _theorem_report(table, fmt):
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
        return _json("theorem_table", cases=cases, evaluated=evaluated)
    if fmt == "csv":
        return _csv(
            ["geometry", "p", "q_residue", "gap", "delta", "detail"],
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
    return _markdown(
        lines,
        f"{len(table.evaluated)} residue families evaluated in total; "
        f"{obstructed} obstructed.",
    )


def _classify_report(result, fmt):
    if fmt == "json":
        return _json(
            "classification",
            p=result.p,
            families=[_record_dict(f, True) for f in result.families],
            surviving=[_record_dict(f, True) for f in result.surviving],
        )
    if fmt == "csv":
        return _csv(
            ["p", "q_residue", "gap", "delta"] + _VERDICT_COLUMNS,
            ([f.p, _residue(f), f.gap, f.delta] + _cells(f)
             for f in result.families),
        )
    return _markdown_table(
        [f"# Residue families for p = {result.p}", ""],
        ["family", "delta"] + _VERDICT_COLUMNS,
        ([f.describe(), f.delta] + _cells(f) for f in result.families),
        f"{len(result.surviving)} of {len(result.families)} families survive.",
    )


def _enumeration_report(result, fmt):
    if fmt == "json":
        return _json(
            "enumeration",
            filters=list(result.filters),
            max_gap=result.max_gap,
            warnings=list(result.warnings),
            pairs=[_record_dict(pv, False) for pv in result.pairs],
            survivor_count=len(result.surviving),
        )
    if fmt == "csv":
        return _csv(
            ["p", "q", "q_prime", "gap", "delta"] + _VERDICT_COLUMNS,
            ([pv.p, pv.q, pv.q_prime, pv.gap, pv.delta]
             + _cells(pv, result.filters) for pv in result.pairs),
        )
    preamble = ["# Pair sweep", ""]
    for warning in result.warnings:
        preamble += [f"Note: {warning}", ""]
    # The markdown sweep table leaves out the detail column.
    return _markdown_table(
        preamble,
        ["p", "q", "q'", "delta"] + _VERDICT_COLUMNS[:-1],
        ([pv.p, pv.q, pv.q_prime, pv.delta] + _cells(pv, result.filters)[:-1]
         for pv in result.pairs),
        f"{len(result.surviving)} of {len(result.pairs)} pairs survive.",
    )


def emit_report(result, format="json"):
    """Render a ClassificationTable, ClassifyResult or EnumerationResult.

    `format` is one of json, csv, markdown.  Returns the report text;
    identical inputs give identical bytes.
    """
    kind = {
        ClassificationTable: _theorem_report,
        ClassifyResult: _classify_report,
        EnumerationResult: _enumeration_report,
    }.get(type(result))
    if kind is None or format not in FORMATS:
        raise ValueError(
            f"cannot render {type(result).__name__} as {format!r}"
        )
    return kind(result, format)
