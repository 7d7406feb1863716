"""Output checks for every command the benchmark runs.

`check(argv, returncode, out)` returns a list of problems; an empty list
means the command succeeded and its output is right.  The arithmetic
here is the benchmark's own: Dedekind sums from the defining sum, unit
squares by exhaustive search, Casson values from the surgery formula,
and the surviving residue families from the paper's table.  Sweep rows
are checked one by one (memoized on residues, which is all the
arithmetic reads), and for p <= 8 with every filter on, the survivors
are also compared with `surviving_families(p)` expanded over the q
window, a path independent of the enumerate engine.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import gcd

from workloads import (
    MAX_GAP, THEOREM_SURVIVORS, Sweep, family_count,
)

_SWEEP_HEADER = [
    "p", "q", "q_prime", "gap", "delta", "distance", "parity", "congruence",
    "dedekind", "surviving", "detail",
]


@lru_cache(maxsize=None)
def dedekind(q, p):
    """s(q, p) for p >= 1 from the defining sawtooth sum."""
    num = 0
    for k in range(1, p):
        r = k * q % p
        if r:
            num += (2 * k - p) * (2 * r - p)
    return Fraction(num, 4 * p * p)


def unit_square_witness(p, q, q_prime):
    """Some unit u with q = q' u^2 (mod p), 0 for p = 1, else None."""
    if p == 1:
        return 0
    return next(
        (u for u in range(1, p)
         if gcd(u, p) == 1 and (q - q_prime * u * u) % p == 0),
        None,
    )


@lru_cache(maxsize=None)
def _survives_mod(p, r, r_prime, filters):
    if gcd(r, p) != 1 or gcd(r_prime, p) != 1:
        return False
    if "congruence" in filters and unit_square_witness(p, r, r_prime) is None:
        return False
    return "dedekind" not in filters or dedekind(r, p) == dedekind(r_prime, p)


def pair_survives(p, q, q_prime, filters):
    """Independent verdict for one pair under the selected filters."""
    if "distance" in filters and p * (q_prime - q) > MAX_GAP:
        return False
    return _survives_mod(p, q % p, q_prime % p, filters)


def expected_pairs(sweep):
    """(p, q, q') in report order: p, then q, then gap."""
    for p in sweep.p_values:
        for q in sweep.q_values:
            for q_prime in range(q + 1, min(q + MAX_GAP, sweep.q_hi) + 1):
                yield p, q, q_prime


def family_survivors(sweep):
    """Surviving pairs from surviving_families(p) expanded over the window."""
    from cosmetic.engine import surviving_families

    out = set()
    for p in sweep.p_values:
        for family in surviving_families(p):
            for q in sweep.q_values:
                q_prime = q + family.gap
                if q % p == family.q_residue and q_prime <= sweep.q_hi:
                    out.add((p, q, q_prime))
    return out


def _sweep_rows(sweep, out):
    """(p, q, q', surviving) per row, plus any problem with the layout."""
    if sweep.fmt == "csv":
        reader = csv.reader(io.StringIO(out))
        header = next(reader, None)
        if header != _SWEEP_HEADER:
            return [], [f"csv header {header!r}"]
        return [(int(r[0]), int(r[1]), int(r[2]), r[9] == "yes")
                for r in reader], []
    doc = json.loads(out)
    rows = [(r["p"], r["q"], r["q_prime"], r["surviving"])
            for r in doc["pairs"]]
    problems = []
    if doc.get("kind") != "enumeration":
        problems.append(f"json kind {doc.get('kind')!r}")
    if doc.get("survivor_count") != sum(r[3] for r in rows):
        problems.append("json survivor_count does not match its rows")
    return rows, problems


def check_sweep(sweep, out):
    try:
        rows, problems = _sweep_rows(sweep, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable {sweep.fmt} report: {exc!r}"]
    if len(rows) != sweep.pair_count():
        problems.append(f"{len(rows)} rows, expected {sweep.pair_count()}")
    filters = sweep.filter_names
    survivors = set()
    for row, key in zip(rows, expected_pairs(sweep)):
        if row[:3] != key:
            problems.append(f"row {row[:3]} where {key} was expected")
            break
        if row[3] != pair_survives(*key, filters):
            problems.append(f"pair {key} marked surviving={row[3]}")
            break
        if row[3]:
            survivors.add(key)
    if (not problems and filters == ("distance", "congruence", "dedekind")
            and max(sweep.p_values) <= MAX_GAP
            and survivors != family_survivors(sweep)):
        problems.append("survivors differ from surviving_families expansion")
    return problems


def _residue(cell):
    return 0 if cell == "any" else int(cell)


def _families_from(kind, fmt, out):
    """(p, residue, gap, surviving) per family row of a classify report,
    or of the case sections of a replicate-theorem report."""
    if fmt == "json":
        doc = json.loads(out)
        if kind == "replicate-theorem":
            families = [f for case in doc["cases"] for f in case["families"]]
        else:
            families = doc["families"]
        return [(f["p"], _residue(f["q_residue"]), f["gap"], f["surviving"])
                for f in families]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        return [(int(r["p"]), _residue(r["q_residue"]), int(r["gap"]),
                 r.get("surviving", "yes") == "yes") for r in rows]
    return None


def check_family_report(kind, p, fmt, out):
    """classify --p p, or replicate-theorem when p is None."""
    expected = {f for f in THEOREM_SURVIVORS if p is None or f[0] == p}
    evaluated = (sum(family_count(k) for k in range(1, MAX_GAP + 1))
                 if p is None else family_count(p))
    try:
        families = _families_from(kind, fmt, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {fmt} report: {exc!r}"]
    if families is None:  # markdown: the closing summary line
        obstructed = evaluated - len(expected)
        tail = (f"{evaluated} residue families evaluated in total; "
                f"{obstructed} obstructed." if p is None else
                f"{len(expected)} of {evaluated} families survive.")
        return [] if out.rstrip("\n").endswith(tail) else [f"missing {tail!r}"]
    survivors = {f[:3] for f in families if f[3]}
    problems = []
    if survivors != expected:
        problems.append(f"survivors {sorted(survivors)}")
    if p is not None and len(families) != evaluated:
        problems.append(f"{len(families)} families, expected {evaluated}")
    return problems


def _expect_line(out, expected):
    got = out.strip()
    if got == expected:
        return []
    return [f"printed {got!r}, expected {expected!r}"]


def _rational(x):
    return f"{x.numerator}/{x.denominator}"


def check_output(argv, out):
    kind = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if kind == "enumerate":
        return check_sweep(Sweep.from_argv(argv), out)
    if kind in ("classify", "replicate-theorem"):
        p = int(opts["--p"]) if kind == "classify" else None
        return check_family_report(kind, p, opts["--format"], out)
    if kind == "census":
        cid = argv[2]
        ok = out.startswith(f"{cid}: ") and "  verdict: excluded" in out
        return [] if ok else [f"census {cid} not shown as excluded"]
    if kind == "dedekind":
        q, p = int(argv[1]), int(argv[2])
        return _expect_line(out, _rational(dedekind(q, p)))
    if kind == "congruence":
        p, q, q_prime = map(int, argv[1:4])
        u = unit_square_witness(p, q, q_prime)
        passed = out.startswith("passes:")
        if passed != (u is not None):
            return [f"congruence verdict {out.strip()!r}, unit {u}"]
        if passed:
            u = int(out.rsplit("=", 1)[1])
            if gcd(u, p) != 1 or (q - q_prime * u * u) % p:
                return [f"unit {u} does not satisfy the congruence"]
        return []
    if kind == "casson":
        sub = argv[1]
        if sub == "lens":
            p, q = int(argv[2]), int(argv[3])
            return _expect_line(out, _rational(-dedekind(q % p, p) / 2))
        if sub == "surgery":
            p, q = map(int, argv[-1].split("/"))
            opts = dict(arg.split("=", 1) for arg in argv[2:-1])
            value = (Fraction(opts["--lambda-y"]) - dedekind(q % p, p) / 2
                     + Fraction(q, 2 * p) * int(opts["--delta2"]))
            return _expect_line(out, _rational(value))
        if sub == "delta2":
            coeffs = json.loads(argv[2])
            return _expect_line(out, str(sum(
                int(k) * (int(k) - 1) * a for k, a in coeffs.items()
            )))
    return [f"no check for {argv!r}"]


def check(argv, returncode, out):
    """Problems with one command's result; [] when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    return check_output(argv, out)
