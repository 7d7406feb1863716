"""Seeded input generators for the benchmark workloads.

Every workload turns one `random.Random(seed)` into an `Inputs`: the CLI
commands of one round (the benchmark repeats the round until its time
is up) and a `Sweep` that the traced run feeds to the engine, report
and arithmetic layers directly.  The program receives only these
generated inputs.

The generators keep the amount of work nearly the same from seed to
seed, so that runs with different seeds can be compared: the command
mix of `theorem-cli` has a fixed composition, q windows start in
[10000, 90000) so every q has five digits (row widths do not drift),
and the large-p sweep draws one prime within 8 of each of 125, 175,
..., 375, so the O(p) oracles cost about the same on every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import gcd

FORMATS = ("json", "csv", "markdown")
MAX_GAP = 8
Q_START = (10_000, 90_000)

CENSUS_IDS = (
    "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10", "M11",
    "M12", "M13", "M14", "W(1)", "W(2)", "W(-5)", "W(-5/2)",
)

# Residue families (p, q mod p, gap) that survive every filter: the
# paper's table, written out independently of the engine.  p = 1
# families carry residue 0.
THEOREM_SURVIVORS = frozenset(
    [(1, 0, gap) for gap in range(1, MAX_GAP + 1)]
    + [(2, 1, 2), (2, 1, 4), (5, 2, 1)]
)


def family_count(p):
    """Residue families with p * gap <= 8: p residues for each gap."""
    return p * (MAX_GAP // p)


@dataclass(frozen=True)
class Sweep:
    """One enumerate request: p values, an inclusive q window, settings."""

    p_values: tuple
    q_lo: int
    q_hi: int
    filters: str
    fmt: str
    jobs: int

    @property
    def q_values(self):
        return range(self.q_lo, self.q_hi + 1)

    @property
    def filter_names(self):
        """The selected filters in report-column order, parity excluded."""
        chosen = self.filters.split(",")
        return tuple(
            name for name in ("distance", "congruence", "dedekind")
            if self.filters == "all" or name in chosen
        )

    def pair_count(self):
        width = self.q_hi - self.q_lo + 1
        per_p = sum(max(0, width - gap) for gap in range(1, MAX_GAP + 1))
        return per_p * len(self.p_values)

    def commands(self):
        """One enumerate command per run of consecutive p values."""
        runs = []
        for p in self.p_values:
            if runs and runs[-1][1] == p - 1:
                runs[-1][1] = p
            else:
                runs.append([p, p])
        return [
            ["enumerate", "--p", str(lo) if lo == hi else f"{lo}..{hi}",
             "--q", f"{self.q_lo}..{self.q_hi}", "--filters", self.filters,
             "--format", self.fmt, "--jobs", str(self.jobs)]
            for lo, hi in runs
        ]

    @classmethod
    def from_argv(cls, argv):
        """Read back an enumerate command made by `commands`."""
        opts = dict(zip(argv[1::2], argv[2::2]))
        p_lo, _, p_hi = opts["--p"].partition("..")
        q_lo, _, q_hi = opts["--q"].partition("..")
        return cls(
            tuple(range(int(p_lo), int(p_hi or p_lo) + 1)), int(q_lo),
            int(q_hi), opts["--filters"], opts["--format"],
            int(opts["--jobs"]),
        )

    def as_dict(self):
        return {
            "p_values": list(self.p_values), "q_lo": self.q_lo,
            "q_hi": self.q_hi, "filters": self.filters, "fmt": self.fmt,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class Inputs:
    commands: list
    sweep: Sweep


def _window(rng, width):
    lo = rng.randrange(Q_START[0], Q_START[1] - width)
    return lo, lo + width - 1


def _coprime_below(rng, p):
    while True:
        q = rng.randrange(1, p)
        if gcd(q, p) == 1:
            return q


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def theorem_cli(rng):
    """26 short commands: every replicate format, classify at every p,
    six census records, and three each of the one-shot calculators."""
    offset = rng.randrange(3)
    commands = [["replicate-theorem", "--format", fmt] for fmt in FORMATS]
    commands += [
        ["classify", "--p", str(p), "--format", FORMATS[(p + offset) % 3]]
        for p in range(1, MAX_GAP + 1)
    ]
    commands += [["census", "show", cid] for cid in rng.sample(CENSUS_IDS, 6)]
    for _ in range(3):
        p = rng.randrange(2, 10_000)
        commands.append(["dedekind", str(_coprime_below(rng, p)), str(p)])
    for _ in range(3):
        p = rng.randrange(2, 200)
        commands.append(
            ["congruence", str(p), str(_coprime_below(rng, p)),
             str(_coprime_below(rng, p))]
        )
    p = rng.randrange(2, 500)
    commands.append(["casson", "lens", str(p), str(_coprime_below(rng, p))])
    p = rng.randrange(1, 500)
    commands.append(
        ["casson", "surgery",
         f"--lambda-y={rng.randrange(-9, 10)}/{rng.randrange(1, 10)}",
         f"--delta2={2 * rng.randrange(-5, 6)}",
         f"{p}/{_coprime_below(rng, p) if p > 1 else 1}"]
    )
    # A symmetric polynomial a_0 + sum a_k (t^k + t^-k) with value 1 at t = 1.
    sides = {k: rng.randrange(-3, 4) for k in range(1, 4)}
    coeffs = {"0": 1 - 2 * sum(sides.values())}
    for k, a in sides.items():
        coeffs[str(k)] = coeffs[str(-k)] = a
    commands.append(["casson", "delta2", json.dumps(coeffs, sort_keys=True)])
    rng.shuffle(commands)
    # No sweep in the mix: the layer probes get a small window at p 1..8,
    # the moduli that the classify and replicate commands evaluate.
    return Inputs(commands, Sweep(tuple(range(1, 9)), *_window(rng, 64),
                                  "all", "csv", 1))


def sweep_small_p(rng):
    sweep = Sweep(tuple(range(1, 9)), *_window(rng, 1200), "all", "csv", 1)
    return Inputs(sweep.commands(), sweep)


def sweep_large_p(rng):
    primes = tuple(
        rng.choice([n for n in range(mid - 8, mid + 9) if _is_prime(n)])
        for mid in range(125, 400, 50)
    )
    sweep = Sweep(primes, *_window(rng, 300), "congruence,dedekind", "csv", 1)
    return Inputs(sweep.commands(), sweep)


def sweep_json(rng):
    sweep = Sweep(tuple(range(1, 9)), *_window(rng, 450), "all", "json", 2)
    return Inputs(sweep.commands(), sweep)


GENERATORS = {
    "theorem-cli": theorem_cli,
    "sweep-small-p": sweep_small_p,
    "sweep-large-p": sweep_large_p,
    "sweep-json": sweep_json,
}


def make_inputs(workload, seed):
    return GENERATORS[workload](random.Random(seed))


def pairs_in(args):
    """Pairs (or residue families) a command evaluates, verifies and writes."""
    if args[0] == "enumerate":
        return Sweep.from_argv(args).pair_count()
    if args[0] == "classify":
        return family_count(int(args[2]))
    if args[0] == "replicate-theorem":
        return sum(family_count(p) for p in range(1, MAX_GAP + 1))
    return 1 if args[0] == "congruence" else 0
