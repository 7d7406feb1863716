"""Render classification and enumeration results as JSON, CSV or markdown.

All three formats are deterministic: fixed field order, sorted inputs,
"\n" line endings.  JSON reports carry a top-level schema_version so
downstream consumers can detect layout changes.

Each result kind lays out its rows in one function and writes them to a
text stream, a few thousand lines per write, so a streamed sweep is
never held whole; emit_report collects the same bytes in a string.  CSV
and markdown rows share one cell table, which joins a row's filter and
surviving cells once per pass/fail pattern; a CSV row quotes only its
detail.  A sweep renders one row template per residue class: the pairs
of a class (p, q mod p, gap, whether 0 is a slope) that share a trail
object differ only in q and q', so the class's first two rows are
rendered directly, its third builds the template (reasons from
reason_template, with slots for q and q'), and each later row fills in
q and q'.  JSON is written field by field with one encoder, a list from
a generator item by item, in the bytes of json.dumps(..., indent=2).
"""

import io
from functools import partial
from itertools import chain, islice
from operator import attrgetter
from types import GeneratorType

from . import FORMATS
from .engine import ClassificationTable, ClassifyResult, EnumerationResult
from .obstructions import (CASES, FILTER_ORDER, _literal, distance_cap,
                           reason, reason_template)

REPORT_SCHEMA_VERSION = 1

_VERDICT_COLUMNS = list(FILTER_ORDER) + ["surviving", "detail"]
_PATTERN = attrgetter("filter_name", "passed")  # what a row's cells read


def _residue(record):
    return "any" if record.p == 1 else record.q_residue


def _witness(r, v):
    # Schema 1 holds a failing verdict's reason: first in a congruence
    # witness, last in the others (alone in a parity witness, {}).  A
    # hand-built parity failure of a coprime pair has none.
    text = None if v.passed else reason(r.p, r.q, r.q_prime, v)
    if text is None:
        return v.witness
    if v.filter_name == "congruence":
        return {"reason": text, **v.witness}
    return {**v.witness, "reason": text}


def _record_dicts(records, family):
    for r in records:
        key = ({"q_residue": _residue(r)} if family
               else {"q": r.q, "q_prime": r.q_prime})
        yield {"p": r.p, **key, "gap": r.gap, "delta": r.delta,
               "surviving": r.surviving, "verdicts": [
                   {"filter": v.filter_name, "passed": v.passed,
                    "witness": _witness(r, v)} for v in r.verdicts]}


def _detail(p, q, q_prime, verdicts, template=False):
    # Each failing verdict's reason and a passing congruence's unit (but
    # not the unit 0 of p = 1), in trail order; with `template`, as the
    # str.format template of the pair's class (reason_template).
    text, shown = (reason_template, _literal) if template else (reason, format)
    notes = []
    for v in verdicts:
        if not v.passed:
            notes.append(text(p, q, q_prime, v))
        elif v.filter_name == "congruence" and v.witness["unit"]:
            notes.append(f"unit {shown(v.witness['unit'])}")
    return "; ".join(filter(None, notes))


def _cells(table, selected, sep, verdicts, surviving):
    # A trail's filter and surviving cells joined by `sep`, built once per
    # (surviving, filter, passed...) pattern in `table`: a filter cell is
    # pass/fail, "skipped" after a parity failure, or "" if switched off.
    key = (surviving, *map(_PATTERN, verdicts))
    cells = table.get(key)
    if cells is None:
        by_name = {v.filter_name: v for v in verdicts}
        skipped = "parity" in by_name and not by_name["parity"].passed
        cells = table[key] = sep.join([
            ("pass" if by_name[name].passed else "fail")
            if name in by_name
            else "skipped" if name in selected and skipped else ""
            for name in FILTER_ORDER
        ] + ["yes" if surviving else "no"])
    return cells


def _counted(records, tally):
    # The records, each counted in tally[s] for its surviving flag s.
    for record in records:
        tally[record[4]] += 1
        yield record


def _csv_cell(text):
    # csv's minimal quoting for "\n" line ends, as csv.writer does it.
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _lines(out, lines, sep="\n"):
    # Each line followed by `sep`, one write per 4096 lines, so a stream
    # that stops ends at a line's end; returns whether there were any.
    lines, written = iter(lines), False
    while chunk := list(islice(lines, 4096)):
        out.write(sep.join(chunk) + sep)
        written = True
    return written


def _markdown(out, preamble, header, rows):
    # `rows` are "| ... |" lines already.
    _lines(out, chain(preamble, ["| " + " | ".join(header) + " |",
                                 "|" + " --- |" * len(header)], rows))


def _json(out, kind, fields):
    # The bytes of json.dumps of {"schema_version": ..., "kind": kind}
    # and each (key, value) of `fields`, indent=2, one encode per field;
    # a generator value is streamed as a list, one encode per item.  No
    # encoded string holds a raw "\n", so re-indenting is a replace.
    from json import JSONEncoder

    encode = JSONEncoder(indent=2).encode
    out.write(f'{{\n  "schema_version": {REPORT_SCHEMA_VERSION},\n'
              f'  "kind": {encode(kind)}')
    for key, value in fields:
        out.write(f",\n  {encode(key)}: ")
        if type(value) is not GeneratorType:
            out.write(encode(value).replace("\n", "\n  "))
            continue
        texts = (("\n" + encode(item)).replace("\n", "\n    ")
                 for item in value)
        out.write("[")
        if _lines(out, chain(islice(texts, 1), map(",".__add__, texts)), ""):
            out.write("\n  ")
        out.write("]")
    out.write("\n}\n")


def _theorem_report(table, fmt, out):
    sections = table.sections.items()
    if fmt == "json":
        return _json(out, "theorem_table", [
            ("cases", [{
                "geometry": geometry.value,
                "distance_cap": distance_cap(geometry),
                "families": list(_record_dicts(families, True)),
                "note": table.note_for(geometry),
            } for geometry, families in sections]),
            ("evaluated", list(_record_dicts(table.evaluated, True))),
        ])
    if fmt == "csv":
        return _lines(out, chain(["geometry,p,q_residue,gap,delta,detail"], (
            f"{geometry.value},{f.p},{_residue(f)},{f.gap},{f.delta},"
            f"{_csv_cell(_detail(*f[:4]))}"
            for geometry, families in sections for f in families)))
    lines = [
        "# Truly cosmetic exceptional surgeries: surviving slope families",
        "",
        "A truly cosmetic pair of exceptional surgeries p/q, p/q' (q < q')",
        "on a hyperbolic knot in an integer homology sphere falls into one",
        "of the cases below; every family not listed is obstructed.",
    ]
    for index, (geometry, families) in enumerate(sections, start=1):
        cap, title = CASES[geometry]
        lines += ["", f"## Case {index}: {title} (distance cap {cap})", ""]
        for f in families:
            bits = [f.describe(), f"delta = {f.delta}", _detail(*f[:4])]
            lines.append("- " + "; ".join(bit for bit in bits if bit))
        if not families:
            note = table.note_for(geometry)
            lines.append(f"- {note}" if note else "- no surviving family")
    obstructed = sum(1 for f in table.evaluated if not f.surviving)
    _lines(out, [*lines, "", f"{len(table.evaluated)} residue families "
                 f"evaluated in total; {obstructed} obstructed."])


def _classify_report(result, fmt, out):
    if fmt == "json":
        return _json(out, "classification", [
            ("p", result.p),
            ("families", list(_record_dicts(result.families, True))),
            ("surviving", list(_record_dicts(result.surviving, True))),
        ])
    cells = partial(_cells, {}, FILTER_ORDER, "," if fmt == "csv" else " | ")
    if fmt == "csv":
        header = ["p", "q_residue", "gap", "delta"] + _VERDICT_COLUMNS
        return _lines(out, chain([",".join(header)], (
            f"{f.p},{_residue(f)},{f.gap},{f.delta},{cells(*f[3:])},"
            f"{_csv_cell(_detail(*f[:4]))}" for f in result.families)))
    _markdown(
        out, [f"# Residue families for p = {result.p}", ""],
        ["family", "delta"] + _VERDICT_COLUMNS,
        (f"| {f.describe()} | {f.delta} | {cells(*f[3:])} | "
         f"{_detail(*f[:4])} |" for f in result.families))
    out.write(f"\n{len(result.surviving)} of {len(result.families)} "
              "families survive.\n")


def _sweep_row(fmt, p, q, q_prime, verdicts, cells, template):
    # A csv or markdown row (with no detail), or with `template` the
    # str.format template of its class's rows, with slots for q and q'.
    x, y = ("{0}", "{1}") if template else (q, q_prime)
    if fmt == "markdown":
        return f"| {p} | {x} | {y} | {p * (q_prime - q)} | {cells} |"
    detail = _csv_cell(_detail(p, q, q_prime, verdicts, template))
    return f"{p},{x},{y},{q_prime - q},{p * (q_prime - q)},{cells},{detail}"


def _sweep_rows(records, fmt, cells, tally):
    # The rows; tally[s] counts surviving flags s.  The rows of a class
    # (p, q mod p, gap, whether 0 is a slope) with one trail object differ
    # only in q and q', which need no csv quotes.  The memo is new for
    # each p and keeps its trails, so no id in its keys is reused.
    memo, memo_p = {}, None
    for p, q, q_prime, verdicts, surviving in records:
        tally[surviving] += 1
        if p != memo_p:
            memo, memo_p = {}, p
        key = (q % p, q_prime - q, 0 in (q, q_prime), id(verdicts), surviving)
        entry = memo.get(key)
        if entry is None:  # the class's first row, rendered as it is
            memo[key] = [verdicts, False]
        elif entry[1] is False:  # its second too: a class of two needs none
            entry[1] = True
        else:
            if entry[1] is True:  # its third builds the template of the rest
                entry[1] = _sweep_row(fmt, p, q, q_prime, verdicts,
                                      cells(verdicts, surviving), True).format
            yield entry[1](q, q_prime)
            continue
        yield _sweep_row(fmt, p, q, q_prime, verdicts,
                         cells(verdicts, surviving), False)


def _sweep_fields(result, tally):
    # The survivor count is read once the pairs are written.
    yield "filters", list(result.filters)
    yield "max_gap", result.max_gap
    yield "warnings", list(result.warnings)
    yield "pairs", _record_dicts(_counted(result.pairs, tally), False)
    yield "survivor_count", tally[True]


def _enumeration_report(result, fmt, out):
    # Read once, as they arrive: `result.pairs` may be a generator.
    tally = [0, 0]
    if fmt == "json":
        return _json(out, "enumeration", _sweep_fields(result, tally))
    cells = partial(_cells, {}, result.filters,
                    " | " if fmt == "markdown" else ",")
    rows = _sweep_rows(result.pairs, fmt, cells, tally)
    if fmt == "csv":
        header = ["p", "q", "q_prime", "gap", "delta"] + _VERDICT_COLUMNS
        return _lines(out, chain([",".join(header)], rows))
    preamble = ["# Pair sweep", ""]
    for warning in result.warnings:
        preamble += [f"Note: {warning}", ""]
    _markdown(out, preamble,
              ["p", "q", "q'", "delta"] + _VERDICT_COLUMNS[:-1], rows)
    out.write(f"\n{tally[True]} of {sum(tally)} pairs survive.\n")


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
