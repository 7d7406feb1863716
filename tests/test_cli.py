import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

from importlib import resources

import pytest

from cosmetic import engine
from cosmetic.cli import main, parse_range
from cosmetic.engine import (
    CrossCheckError,
    replicate_theorem,
    run_classification,
    run_enumeration,
)
from cosmetic.obstructions import ObstructionVerdict
from cosmetic.report import FORMATS, emit_report


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "cosmetic", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def test_main_is_importable_entry_point():
    assert main(["dedekind", "5", "7"]) == 0


def test_cli_import_loads_no_process_pool():
    # Sweeps run in one process, so start-up pays for no pool modules.
    code = (
        "import sys, cosmetic.cli; print(sorted(m for m in sys.modules if "
        "m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout == "[]\n"


def _modules_after(code):
    # The package modules, `dataclasses` and `fractions` loaded in a fresh
    # interpreter once `code` has run.
    code += ("\nimport sys\nprint(*(m for m in sys.modules if m in "
             "('dataclasses', 'fractions') or m.startswith('cosmetic')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return set(proc.stdout.split())


def test_cli_import_loads_only_the_cli():
    loaded = _modules_after("import cosmetic.cli")
    assert loaded == {"cosmetic", "cosmetic.cli"}


@pytest.mark.parametrize("argv, absent", [
    (["enumerate", "--p", "5", "--q", "1..30"],
     {"cosmetic.census", "cosmetic.homology", "cosmetic.invariants",
      "cosmetic.slopes", "fractions"}),
    (["classify", "--p", "5"],
     {"cosmetic.census", "cosmetic.homology", "cosmetic.invariants",
      "cosmetic.slopes", "fractions"}),
    (["dedekind", "5", "7"],
     {"cosmetic.engine", "cosmetic.oracle", "cosmetic.report"}),
], ids=["enumerate", "classify", "dedekind"])
def test_a_command_loads_only_what_it_runs(argv, absent):
    loaded = _modules_after(
        "import contextlib, io\nfrom cosmetic.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert "cosmetic.dedekind" in loaded
    assert not loaded & (absent | {"dataclasses"})


def test_the_package_verifies_without_loading_the_engine():
    loaded = _modules_after("import cosmetic\ncosmetic.verify_pairs")
    assert "cosmetic.oracle" in loaded
    assert "cosmetic.engine" not in loaded


@pytest.mark.parametrize("filters", ["all", "congruence"])
def test_a_huge_max_gap_costs_no_more_than_the_q_span(filters):
    # No q' lies beyond the largest q, so gaps past the span are never
    # tried; without the distance filter this also covers the warnings.
    def sweep(max_gap):
        return subprocess.run(
            [sys.executable, "-m", "cosmetic", "enumerate", "--p", "1",
             "--q", "1..3", "--filters", filters, "--max-gap", max_gap],
            capture_output=True, text=True, check=True, timeout=30).stdout

    assert sweep("1000000000000") == sweep("2")


def test_dedekind_command():
    assert run_cli("dedekind", "5", "7").stdout.strip() == "-1/14"
    assert run_cli("dedekind", "6", "7").stdout.strip() == "-5/14"


def test_casson_commands():
    assert run_cli("casson", "lens", "7", "1").stdout.strip() == "-5/28"
    assert run_cli("casson", "lens", "5", "2").stdout.strip() == "0/1"
    out = run_cli("casson", "surgery", "--delta2", "2", "1/1").stdout.strip()
    assert out == "1/1"
    out = run_cli("casson", "delta2", '{"-1": 1, "0": -3, "1": 1}').stdout.strip()
    assert out == "2"


def test_congruence_command():
    out = run_cli("congruence", "5", "2", "3").stdout
    assert "passes" in out and "u = 2" in out
    out = run_cli("congruence", "3", "1", "2").stdout
    assert "obstructed" in out and "[1]" in out


def test_homology_commands():
    assert run_cli("homology", "watson", "--c", "2", "3/1").stdout.strip() == "6"
    out = run_cli("homology", "link", "2/1", "7/3").stdout.strip()
    assert out == "14"


def test_census_show():
    out = run_cli("census", "show", "M8").stdout
    assert "excluded" in out
    assert "[3, 5]" in out and "[15, 17]" in out


def test_classify_json():
    payload = json.loads(run_cli("classify", "--p", "7").stdout)
    assert payload["kind"] == "classification"
    assert payload["surviving"] == []
    assert len(payload["families"]) == 7


def test_replicate_theorem_markdown():
    out = run_cli("replicate-theorem").stdout
    assert "p = 5, q = 2 (mod 5), q' = q + 1" in out
    assert "56 residue families evaluated in total; 45 obstructed." in out


def test_enumerate_csv():
    proc = run_cli("enumerate", "--p", "5", "--q", "1..30")
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0][0] == "p"
    assert sum(1 for row in rows[1:] if row[9] == "yes") == 6


def test_enumerate_filter_subset_warns():
    proc = run_cli("enumerate", "--p", "3", "--q", "1..9",
                   "--filters", "congruence,dedekind")
    assert "distance" in proc.stderr


def test_bad_input_exits_one():
    proc = run_cli("dedekind", "2", "4", expect=1)
    assert proc.stderr.startswith("error:")
    proc = run_cli("census", "show", "M99", expect=1)
    assert "M99" in proc.stderr
    for text in ("[1,2]", "5"):
        proc = run_cli("casson", "delta2", text, expect=1)
        assert proc.stderr == ("error: Alexander polynomial must be a JSON "
                               "object mapping exponents to coefficients\n")
    proc = run_cli("casson", "surgery", "--lambda-y", "1/0", "1/1", expect=1)
    assert proc.stderr == "error: zero denominator in '1/0'\n"


def test_broken_census_exits_two(tmp_path):
    data = json.loads(resources.files("cosmetic").joinpath("census.json").read_text())
    for record in data["records"]:
        if record["id"] == "M6":
            record["homology_facts"] = []
            record["known_fillings"] = []
    path = tmp_path / "census.json"
    path.write_text(json.dumps(data))
    proc = run_cli("replicate-theorem", "--census-file", str(path), expect=2)
    assert proc.stderr.startswith("cross-check failed:")
    assert "M6" in proc.stderr


def test_usage_errors_exit_one_and_help_exits_zero():
    proc = run_cli("enumerate", "--p", "3", "--q", "-3..-1", expect=1)
    assert "usage:" in proc.stderr
    run_cli(expect=1)
    assert "usage:" in run_cli("--help").stdout
    assert "--jobs" in run_cli("enumerate", "--help").stdout


# SHA-256 of the stdout of `cosmetic <words> --help` at 80 columns.
HELP_SHA256 = {
    "":
        "b72224c0d93cffd9a8bac777bcade954541730e13da00d9da0cec7405ee26612",
    "dedekind":
        "27ec527031e5ed7f61fea6a2f8475f3bd17ebaf5fb22e1192b0c18660a829213",
    "casson":
        "ecf6dd18e834653cfd435828fd5f52876287992f9fc81ea70e93cc8ab13251d3",
    "casson lens":
        "99f78074cd0e5f7f0117f2c3a8abfc976116c7595866a0a89ff928a21ede5bcd",
    "casson surgery":
        "973f6f3b303a50577ac2a2a6c8ffdaae528080884d648da91c698ff1ae88dd0b",
    "casson delta2":
        "f9b935ef58fe7ebb9a34bc9e165420d1c233d91020c08e8a1c2cc01508afe843",
    "congruence":
        "3408078bba40fa12e13b470268d3f7d4ea463a2daac212b2eaccf0851b47985d",
    "homology":
        "ad4d4598767fac813a77d6f429ac53880f7560662394f4f41e1ce950718b259a",
    "homology watson":
        "c34d3f50fa9ede41d388df68b61aa2119e4539ca6f486ff69721351172210c53",
    "homology link":
        "0397d4d256e2ed919cec827280e46b9ee65fdb83c4c59e32d1d3b588c12751d3",
    "census":
        "ca853db6104faf054db8be9e663ad5055236ce5f2247ff09fe2a3341c9680fd8",
    "census show":
        "f940a91d9b6ed8f44faaad8e18781f61053ba020859925e31549ba407ef356a0",
    "classify":
        "ee797343faefdb96516b2ee14fd46e76db38a2351eaee2ca985bb4353a6e2a23",
    "replicate-theorem":
        "2a0da90a0e9ea9111e4c37c94daadea4682ecadb898bbed5dcccdfc1811b941b",
    "enumerate":
        "047f37c24e460253771616459fffe486e61bf16acdf195b38fda180926f7813c",
}

TOP_USAGE = (
    "usage: cosmetic [-h]\n                {dedekind,casson,congruence,"
    "homology,census,classify,replicate-theorem,enumerate}\n                "
    "...\n"
)

# Usage errors and the stderr each prints; every one exits 1.
USAGE_ERRORS = {
    (): TOP_USAGE + "cosmetic: error: the following arguments are "
        "required: command\n",
    ("frobnicate",): TOP_USAGE + "cosmetic: error: argument command: "
        "invalid choice: 'frobnicate' (choose from 'dedekind', 'casson', "
        "'congruence', 'homology', 'census', 'classify', "
        "'replicate-theorem', 'enumerate')\n",
    ("dedekind", "5"): "usage: cosmetic dedekind [-h] q p\ncosmetic "
        "dedekind: error: the following arguments are required: p\n",
    ("dedekind", "x", "7"): "usage: cosmetic dedekind [-h] q p\ncosmetic "
        "dedekind: error: argument q: invalid int value: 'x'\n",
    ("enumerate", "--p", "1", "--q", "1..9", "--bogus"): TOP_USAGE
        + "cosmetic: error: unrecognized arguments: --bogus\n",
    ("casson",): "usage: cosmetic casson [-h] {lens,surgery,delta2} ...\n"
        "cosmetic casson: error: the following arguments are required: "
        "subcommand\n",
}


def test_help_and_usage_errors_are_pinned(monkeypatch, capsys):
    # The parser holds only the chosen subcommand's arguments; what it
    # prints stays byte for byte what the full parser printed.
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for words in HELP_SHA256:
        with pytest.raises(SystemExit) as exit_:
            main([*words.split(), "--help"])
        out, err = capsys.readouterr()
        assert exit_.value.code == 0 and err == ""
        got[words] = hashlib.sha256(out.encode()).hexdigest()
    assert got == HELP_SHA256
    for argv, text in USAGE_ERRORS.items():
        assert main(list(argv)) == 1
        assert capsys.readouterr() == ("", text)


# One command of each kind that a driver of cli.main in one interpreter
# runs: the three theorem-cli kinds, the one-shot calculators, a sweep.
IN_PROCESS = [
    ["replicate-theorem", "--format", "json"],
    ["classify", "--p", "5", "--format", "csv"],
    ["census", "show", "W(-5/2)"],
    ["dedekind", "5", "7"],
    ["congruence", "7", "5", "6"],
    ["casson", "lens", "7", "1"],
    ["casson", "surgery", "--lambda-y=1/2", "--delta2=-4", "5/3"],
    ["casson", "delta2", '{"-1": 1, "0": -1, "1": 1}'],
    ["enumerate", "--p", "1..8", "--q", "1..40", "--filters",
     "congruence,dedekind"],
]

_IN_PROCESS_DRIVER = """
import contextlib, io, sys
from cosmetic.cli import main
for index, argv in enumerate(COMMANDS):
    with open(f"{sys.argv[1]}/{index}.out", "w") as handle, \\
            contextlib.redirect_stdout(handle), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, (argv, code)
print("done")
"""


def test_in_process_commands_leave_nothing_for_exit(tmp_path):
    # cli.main called in one interpreter, each command's stdout redirected
    # to its own file: a main that ends the process (os._exit) or leaves
    # output for exit (an atexit hook, a thread, a writer on fd 1) would
    # lose a file's content or print after the driver's last line.
    driver = f"COMMANDS = {IN_PROCESS!r}\n{_IN_PROCESS_DRIVER}"
    proc = subprocess.run([sys.executable, "-c", driver, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1:] == ["done"]
    for index, argv in enumerate(IN_PROCESS):
        written = (tmp_path / f"{index}.out").read_text()
        assert written == run_cli(*argv).stdout, argv


def test_missing_census_file_exits_one(tmp_path):
    missing = str(tmp_path / "absent.json")
    for args in (("replicate-theorem",), ("census", "show", "M8")):
        proc = run_cli(*args, "--census-file", missing, expect=1)
        assert proc.stderr.startswith("error:")
        assert "absent.json" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_deeply_nested_json_input_exits_one(tmp_path, capsys):
    # The decoder gives up on nesting deeper than the recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    polynomial = "error: Alexander polynomial JSON is nested too deeply\n"
    census = "error: census file is nested too deeply\n"
    for argv, err in ((["casson", "delta2", "[" * 100000], polynomial),
                      (["casson", "delta2", '{"0": ' * 100000], polynomial),
                      (["census", "show", "M8", "--census-file", str(deep)],
                       census),
                      (["replicate-theorem", "--census-file", str(deep)],
                       census)):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", err)


def test_census_file_that_is_not_json_exits_one(tmp_path, capsys):
    # One error line that names the file, not the decoder's text alone.
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"schema_version": 1, "records": [')
    for argv in (["census", "show", "M8", "--census-file", str(truncated)],
                 ["replicate-theorem", "--census-file", str(truncated)]):
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: census file {truncated} is not valid JSON: "
            "Expecting value: line 1 column 35 (char 34)\n")


def test_census_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    # One error line that names the file, not the codec's text alone.
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}\n")
    for argv in (["census", "show", "M8", "--census-file", str(latin)],
                 ["replicate-theorem", "--census-file", str(latin)]):
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error: census file {latin} is not valid UTF-8: 'utf-8' "
            "codec can't decode byte 0xff in position 0: invalid start "
            "byte\n")


def test_jobs_below_one_rejected():
    proc = run_cli("enumerate", "--p", "3", "--q", "1..5", "--jobs", "0",
                   expect=1)
    assert proc.stderr == "error: jobs must be at least 1\n"


def test_delta2_rejects_non_integer_coefficients():
    for text, bad in (('{"0": null}', "coefficient must be an integer, not None"),
                      ('{"-1": 1.5, "0": -3, "1": 1.5}',
                       "coefficient must be an integer, not 1.5"),
                      ('{"-1": true, "0": -1, "1": true}',
                       "coefficient must be an integer, not True"),
                      ('{"x": 1}', "exponent must be an integer, not 'x'")):
        proc = run_cli("casson", "delta2", text, expect=1)
        assert proc.stderr == f"error: Alexander polynomial {bad}\n"
        assert proc.stdout == ""


@pytest.mark.parametrize("fmt", FORMATS)
def test_classify_and_theorem_write_the_emitted_report(fmt, capsys):
    # The handlers write the report to stdout; its bytes are emit_report's.
    cases = [(["classify", "--p", str(p)], lambda p=p: run_classification(p))
             for p in range(1, 10)]
    cases.append((["replicate-theorem"], replicate_theorem))
    for argv, build in cases:
        assert main(argv + ["--format", fmt]) == 0
        assert capsys.readouterr() == (emit_report(build(), fmt), "")


# enumerate settings (p, q, filters, max gap) whose streamed CLI output
# must equal emit_report of the materialized run_enumeration.
STREAM_CASES = {
    "all-filters": ("1..8", "1..100", "all", 8),
    "congruence-dedekind-warning": ("3..5", "1..29", "congruence,dedekind", 8),
    "distance-only": ("1..4", "1..24", "distance", 8),
    "max-gap-3": ("1..8", "1..39", "all", 3),
    "p131": ("131", "1..80", "congruence,dedekind", 8),
    "empty": ("1..8", "5", "all", 8),
}


def _stream_case(name, fmt):
    p, q, filters, max_gap = STREAM_CASES[name]
    argv = ["enumerate", "--p", p, "--q", q, "--filters", filters,
            "--max-gap", str(max_gap), "--format", fmt]
    result = run_enumeration(
        parse_range(p), parse_range(q),
        filters="all" if filters == "all" else filters.split(","),
        max_gap=max_gap)
    return argv, result


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_streamed_enumerate_matches_emit_report(name, fmt, capsys):
    argv, result = _stream_case(name, fmt)
    assert main(argv) == 0
    out, err = capsys.readouterr()
    # Line lists, not whole texts: a failing comparison of two long texts
    # makes pytest build a diff for minutes.
    assert (out.splitlines(keepends=True)
            == emit_report(result, fmt).splitlines(keepends=True))
    assert err == "".join(f"warning: {w}\n" for w in result.warnings)
    # The warning is decided before the sweep, by the rule it had when it
    # was read off the finished pairs.
    beyond = any(pv.delta > 8 for pv in result.pairs)
    assert bool(result.warnings) == ("distance" not in result.filters
                                     and beyond)


def test_stream_cases_cover_the_warning_and_an_empty_sweep():
    _, warned = _stream_case("congruence-dedekind-warning", "csv")
    assert warned.warnings
    _, empty = _stream_case("empty", "csv")
    assert empty.pairs == ()
    _, big = _stream_case("all-filters", "csv")
    assert len(big.pairs) > 4096  # more than one write chunk


def test_enumerate_bad_settings_write_nothing(capsys):
    # Settings are checked before the first byte of a streamed report.
    for extra in (["--p", "0..2"], ["--max-gap", "0"], ["--filters", "casson"],
                  ["--jobs", "0"]):
        argv = ["enumerate", "--p", "1..3", "--q", "1..9", "--format", "json"]
        assert main(argv + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


def _enumerate_peak(width):
    # tracemalloc peak of one CSV sweep of p 1..8 over `width` q, written
    # to a sink that keeps nothing.
    argv = ["enumerate", "--p", "1..8", "--q", f"50000..{50000 + width - 1}"]
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumerate_memory_does_not_grow_with_the_sweep():
    _enumerate_peak(10)  # fill the arithmetic caches first
    small, large = _enumerate_peak(150), _enumerate_peak(600)
    assert large <= 1.25 * small


def test_enumerate_lie_mid_sweep_exits_two(monkeypatch, capsys):
    # One class's Dedekind verdict lies: p = 7, q = 3 (mod 7), gap 1,
    # first met at q = 3, after every pair with p < 7 is written.
    evaluate = engine._evaluate

    def lying(p, q, q_prime, filters, residues):
        record = evaluate(p, q, q_prime, filters, residues)
        if (p, q % p, q_prime - q) != (7, 3, 1):
            return record
        verdicts = tuple(
            ObstructionVerdict(v.filter_name, not v.passed, v.witness)
            if v.filter_name == "dedekind" else v for v in record.verdicts)
        return engine.PairVerdict(p, q, q_prime, verdicts,
                                  all(v.passed for v in verdicts))

    argv = ["enumerate", "--p", "1..8", "--q", "1..600"]
    truth = emit_report(run_enumeration(range(1, 9), range(1, 601)), "csv")
    monkeypatch.setattr(engine, "_evaluate", lying)
    with pytest.raises(CrossCheckError) as caught:
        run_enumeration(range(1, 9), range(1, 601))
    assert str(caught.value).startswith("pair p=7 q=3 q'=4: dedekind verdict")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == f"cross-check failed: {caught.value}\n"
    # Stdout is a prefix of the true report, cut at a row, and holds only
    # pairs before the lying one: each was verified before it was written.
    assert out and out.endswith("\n") and truth.startswith(out)
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows and all(int(row[0]) < 7 for row in rows)
