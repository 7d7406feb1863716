"""The cosmetic benchmark: one seeded workload, measured and checked.

    python3 bench/run.py --workload sweep-small-p --seed 7 --seconds 36 \
        --trace 0

Run from the repository root; the program is imported from ./src, so
nothing needs installing.  With --trace 0 the workload's round of CLI
commands (see workloads.py) is repeated, closed loop with one client,
until --seconds have passed, and the end-to-end metrics are printed.
With --trace 1 the traced run in layers.py gives the per-layer metrics
instead.  Every command's exit code and output is checked (checks.py);
a command that fails either counts in `failed`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it list the
same metrics for a reader, with failed_ratio and the sample counts.  The
generated inputs, per-command samples and (traced) spans are written to
bench/results/<workload>-seed<seed>-trace<0|1>.json, so a run can be
replayed command by command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time

from checks import check
from proc import RESULTS, SRC, cosmetic_argv, spawn
from workloads import GENERATORS, make_inputs, pairs_in

# Set-up every command pays: a fresh interpreter, the import, the census.
SETUP_ARGV = [
    sys.executable, "-c",
    "import cosmetic.cli; from cosmetic.census import load_census; "
    "load_census()",
]
SETUP_REPS = 11


class Tally:
    """Commands attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"command": list(what),
                                      "problems": problems})


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(inputs, seconds, tally):
    """Repeat the round of commands until `seconds` have passed."""
    setup = [spawn(SETUP_ARGV) for _ in range(SETUP_REPS)]
    for f in setup:
        tally.add(f.argv, [] if f.returncode == 0 else [f.err[-500:]])
    digests, samples, rounds = {}, [], 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        for args in inputs.commands:
            f = spawn(cosmetic_argv(args))
            problems = check(args, f.returncode, f.out)
            if f.returncode:
                problems.append(f.err[-500:])
            digest = hashlib.sha256(f.out.encode()).hexdigest()
            if digests.setdefault(tuple(args), digest) != digest:
                problems.append("output differs from an earlier round")
            tally.add(args, problems)
            samples.append({"args": args, "wall_s": f.wall_s,
                            "cpu_s": f.cpu_s, "rss_mb": f.rss_mb,
                            "returncode": f.returncode, "ok": not problems})
        rounds += 1
    # Outside the timed loop: a parallel request must give the bytes of
    # the same request at --jobs 1.
    for args in inputs.commands:
        if "--jobs" in args and args[args.index("--jobs") + 1] != "1":
            serial = list(args)
            serial[serial.index("--jobs") + 1] = "1"
            f = spawn(cosmetic_argv(serial))
            same = hashlib.sha256(f.out.encode()).hexdigest() == digests[
                tuple(args)]
            tally.add(serial, [] if f.returncode == 0 and same else
                      [f"--jobs 1 output differs (exit {f.returncode})"])
            samples.append({"args": serial, "wall_s": f.wall_s,
                            "cpu_s": f.cpu_s, "rss_mb": f.rss_mb,
                            "returncode": f.returncode, "ok": same,
                            "untimed": True})

    # Each command's latency and CPU time is its median over the rounds.
    # A round's wall and CPU time sum those over the commands of the
    # round; the latency percentiles are taken across the commands, so
    # one slow repeat of one command cannot move them.
    timed = [s for s in samples if not s.get("untimed")]
    latencies, cpus = [], []
    for args in inputs.commands:
        mine = [s for s in timed if s["args"] == args]
        latencies.append(statistics.median(s["wall_s"] for s in mine))
        cpus.append(statistics.median(s["cpu_s"] for s in mine))
    wall, cpu = sum(latencies), sum(cpus)
    pairs = sum(pairs_in(args) for args in inputs.commands)
    metrics = {
        "wall_s": (wall, "s"),
        "pairs_per_s": (pairs / wall, "1/s"),
        "cmd_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "cmd_p90_ms": (_p90(latencies) * 1000, "ms"),
        "peak_rss_mb": (max([s["rss_mb"] for s in samples]
                            + [f.rss_mb for f in setup]), "MB"),
        "cpu_s": (cpu, "s"),
        "setup_s": (statistics.median(f.wall_s for f in setup), "s"),
    }
    notes = {"rounds": rounds, "commands": len(latencies),
             "cmd_samples": len(timed),
             "setup_samples": len(setup)}
    return metrics, notes, {"samples": samples}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=GENERATORS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cosmetic" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs = make_inputs(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        from layers import traced_run

        metrics, notes, extra = traced_run(args.seed, inputs, tally)
    else:
        metrics, notes, extra = measure(inputs, args.seconds, tally)

    failed_ratio = tally.failed / tally.attempted
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / (f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}.json")
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "program": cosmetic_argv([])[1:], "pythonpath": "src",
        "inputs": {"commands": inputs.commands,
                   "sweep": inputs.sweep.as_dict()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "failed_ratio": failed_ratio, "notes": notes,
        "problems": tally.problems, **extra,
    }, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6f} {unit}")
    print(f"  {'failed_ratio':<46} {failed_ratio:>16.6f} ratio "
          f"({tally.failed} of {tally.attempted} commands)")
    for name, value in notes.items():
        print(f"  {name:<46} {value:>16} count")
    for entry in tally.problems[:5]:
        print(f"  FAILED {entry['command']}: {entry['problems'][:3]}",
              file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
