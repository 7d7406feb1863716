"""Command line front end.

One subcommand per operation family:

    cosmetic dedekind 5 7
    cosmetic casson lens 7 1
    cosmetic casson surgery --lambda-y 0/1 --delta2 2 1/1
    cosmetic casson delta2 '{"-1": 1, "0": -3, "1": 1}'
    cosmetic congruence 5 2 3
    cosmetic homology watson --c 2 --shift 0 3/1
    cosmetic homology link --lk 0 2/1 7/3
    cosmetic census show M8
    cosmetic classify --p 7 --format json
    cosmetic replicate-theorem --format markdown
    cosmetic enumerate --p 1..8 --q 1..1000 --filters all

Exit code 0 on success, 1 on bad input (usage errors and unreadable
files included), 2 when an internal cross-check (oracle re-derivation or
census exclusion) fails; a streamed `enumerate` report then stops short.
"""

import argparse
import sys

from . import FORMATS, CrossCheckError

# Each handler imports the modules it runs, so a command loads only those.


def parse_range(text):
    """Read "a..b" (inclusive) or a single integer "a" as a range."""
    text = text.strip()
    if ".." in text:
        lo_str, hi_str = text.split("..", 1)
        lo, hi = int(lo_str), int(hi_str)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    value = int(text)
    return range(value, value + 1)


def cmd_dedekind(args):
    from .dedekind import dedekind_sum_fast
    from .slopes import format_rational

    print(format_rational(dedekind_sum_fast(args.q, args.p)))
    return 0


def cmd_casson_lens(args):
    from .invariants import LensSpace, casson_lens
    from .slopes import format_rational

    print(format_rational(casson_lens(LensSpace(args.p, args.q))))
    return 0


def cmd_casson_surgery(args):
    from .invariants import casson_surgery
    from .slopes import Slope, format_rational, parse_rational

    value = casson_surgery(
        parse_rational(args.lambda_y), args.delta2, Slope.parse(args.slope)
    )
    print(format_rational(value))
    return 0


def cmd_casson_delta2(args):
    from .invariants import (
        AlexanderPolynomial,
        alexander_second_derivative_at_1,
    )

    poly = AlexanderPolynomial.from_json(args.polynomial)
    print(alexander_second_derivative_at_1(poly))
    return 0


def cmd_congruence(args):
    from .obstructions import linking_congruence, reason

    verdict = linking_congruence(args.p, args.q, args.q_prime)
    if verdict.passed:
        print(
            f"passes: q = q' * u^2 (mod {args.p}) "
            f"with unit u = {verdict.witness['unit']}"
        )
    else:
        squares = list(verdict.witness["unit_squares"])
        print(
            f"obstructed: {reason(args.p, args.q, args.q_prime, verdict)} "
            f"(unit squares mod {args.p}: {squares})"
        )
    return 0


def cmd_homology_watson(args):
    from .homology import WatsonData, h1_order_watson
    from .slopes import Slope

    data = WatsonData(args.c, args.shift)
    print(h1_order_watson(data, Slope.parse(args.slope)))
    return 0


def cmd_homology_link(args):
    from .homology import LinkSurgeryData, link_surgery_h1
    from .slopes import Slope

    data = LinkSurgeryData(
        Slope.parse(args.framing1), Slope.parse(args.framing2), args.lk
    )
    print(link_surgery_h1(data))
    return 0


def cmd_census_show(args):
    from .census import census_lookup, load_census, zhs_exterior_filter

    census = load_census(args.census_file)
    record = census_lookup(args.id, census)
    tori = "torus" if record.boundary_tori == 1 else "tori"
    print(
        f"{record.id}: {record.boundary_tori} boundary {tori}, "
        f"toroidal filling pair at distance {record.toroidal_pair_distance}"
    )
    for filling in record.known_fillings:
        print(f"  filling: {filling.description} at {filling.slope}")
    verdict = zhs_exterior_filter(record)
    if verdict.excluded:
        tag = " [cited]" if verdict.cited else ""
        print(f"  verdict: excluded{tag} - {verdict.reason}")
    else:
        print("  verdict: possible")
    return 0


def cmd_classify(args):
    from .engine import run_classification
    from .report import write_report

    result = run_classification(args.p, verify=not args.no_verify)
    write_report(result, args.format, sys.stdout)
    return 0


def cmd_replicate(args):
    from .census import load_census, verify_census_exclusions
    from .engine import replicate_theorem
    from .report import write_report

    census = load_census(args.census_file)
    verify_census_exclusions(census)
    table = replicate_theorem(verify=not args.no_verify)
    write_report(table, args.format, sys.stdout)
    return 0


def cmd_enumerate(args):
    from .engine import stream_enumeration
    from .report import write_report

    filters = "all" if args.filters == "all" else args.filters.split(",")
    result = stream_enumeration(
        parse_range(args.p),
        parse_range(args.q),
        filters=filters,
        max_gap=args.max_gap,
        jobs=args.jobs,
        verify=not args.no_verify,
    )
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    write_report(result, args.format, sys.stdout)
    return 0


_INT = {"type": int}
_FORMAT = {default: ("--format", {
    "choices": FORMATS, "default": default,
    "help": f"output format (default {default})",
}) for default in ("json", "markdown", "csv")}
_NO_VERIFY = ("--no-verify", {
    "action": "store_true",
    "help": "skip the independent oracle re-derivation of every verdict",
})

# (command words, help, handler or None for a group, arguments as
# (name, add_argument keywords)); each group comes before its commands.
_COMMANDS = (
    (("dedekind",), "Dedekind sum s(q, p)", cmd_dedekind,
     [("q", _INT), ("p", _INT)]),
    (("casson",), "Casson invariant computations", None, []),
    (("casson", "lens"), "Casson invariant of L(p, q)", cmd_casson_lens,
     [("p", _INT), ("q", _INT)]),
    (("casson", "surgery"), "Casson invariant of p/q surgery on a knot",
     cmd_casson_surgery, [
         ("--lambda-y", {"default": "0/1", "help": "Casson invariant of "
                         "the ambient homology sphere (default 0/1)"}),
         ("--delta2", {"type": int, "default": 0, "help": "Alexander "
                       "second derivative at t = 1 (default 0)"}),
         ("slope", {"help": "surgery coefficient p/q"}),
     ]),
    (("casson", "delta2"), "second derivative at t = 1 of an Alexander "
     'polynomial given as a JSON map, e.g. \'{"-1": 1, "0": -3, "1": 1}\'',
     cmd_casson_delta2, [("polynomial", {})]),
    (("congruence",), "linking-form congruence q = q' u^2 (mod p)",
     cmd_congruence, [("p", _INT), ("q", _INT), ("q_prime", _INT)]),
    (("homology",), "first homology of fillings", None, []),
    (("homology", "watson"),
     "|H_1| of a filling from the linear order formula", cmd_homology_watson,
     [("--c", {"type": int, "default": 1, "help": "homology constant c_M"}),
      ("--shift", {"type": int, "default": 0, "help": "framing shift into "
                   "the rational-longitude basis"}),
      ("slope", {})]),
    (("homology", "link"), "|H_1| of surgery on a two-component link",
     cmd_homology_link,
     [("--lk", {"type": int, "default": 0, "help": "linking number"}),
      ("framing1", {}), ("framing2", {})]),
    (("census",), "the candidate exterior census", None, []),
    (("census", "show"), "one census record and its verdict",
     cmd_census_show,
     [("id", {"help": 'census id such as M8 or "W(-5/2)"'}),
      ("--census-file", {})]),
    (("classify",), "verdict trails for every residue family of one p",
     cmd_classify,
     [("--p", {"type": int, "required": True}), _FORMAT["json"],
      _NO_VERIFY]),
    (("replicate-theorem",),
     "rebuild the case-by-case classification from the filters",
     cmd_replicate, [_FORMAT["markdown"], _NO_VERIFY, ("--census-file", {})]),
    (("enumerate",), "bulk sweep of concrete (p/q, p/q') pairs",
     cmd_enumerate, [
         *[(name, {"required": True, "help": "range a..b or single value"})
           for name in ("--p", "--q")],
         ("--filters", {"default": "all", "help": "all, or comma-separated "
                        "subset of distance,congruence,dedekind (parity "
                        "always runs)"}),
         ("--max-gap", {"type": int}),
         ("--jobs", {"type": int, "default": 1, "help": "at least 1; the "
                     "sweep runs in one process and the output never "
                     "depends on it"}),
         _FORMAT["csv"], _NO_VERIFY,
     ]),
)


def _build_parser(command):
    # Every top-level command's name and help, but only the subtree of
    # `command`, the command line's first word (the top level has only -h).
    parser = argparse.ArgumentParser(
        prog="cosmetic",
        description=(
            "Exact obstruction calculus for truly cosmetic exceptional "
            "surgeries on hyperbolic knots in integer homology spheres."
        ),
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, text, handler, arguments in _COMMANDS:
        if words[1:] and words[0] != command:
            continue
        p = groups[words[:-1]].add_parser(words[-1], help=text)
        if words[0] != command:
            continue
        if handler is None:
            groups[words] = p.add_subparsers(dest="subcommand", required=True)
            continue
        for name, keywords in arguments:
            p.add_argument(name, **keywords)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(next((a for a in argv if a[:1] != "-"), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a failed
        # cross-check; bad input exits 1.  --help still exits 0.
        if exc.code == 2:
            return 1
        raise
    try:
        return args.handler(args)
    except CrossCheckError as exc:
        print(f"cross-check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message; an OSError's args are
        # (errno, text), while its str() also names the file.
        keyed = isinstance(exc, KeyError) and exc.args
        print(f"error: {exc.args[0] if keyed else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
