import csv
import io
import json
import subprocess
import sys

from importlib import resources

from cosmetic.cli import main


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


def test_missing_census_file_exits_one(tmp_path):
    missing = str(tmp_path / "absent.json")
    for args in (("replicate-theorem",), ("census", "show", "M8")):
        proc = run_cli(*args, "--census-file", missing, expect=1)
        assert proc.stderr.startswith("error:")
        assert "absent.json" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_jobs_below_one_rejected():
    proc = run_cli("enumerate", "--p", "3", "--q", "1..5", "--jobs", "0",
                   expect=1)
    assert proc.stderr == "error: jobs must be at least 1\n"
