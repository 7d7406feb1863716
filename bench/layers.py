"""The traced run: per-layer metrics for one workload.

Spans are taken from this file only, around calls into the public
functions of each package module; no file of the program changes.  A
span has a name "<layer>.<call>", a start, an end, the index of its
parent span and a request id.  Spans stay in memory and are written to
the results file when the run ends.

The run has two parts, in this order, in one fresh interpreter:

1. Probes.  The workload's sweep is evaluated (drained
   `enumerate_pairs`, jobs 1 and then jobs 2), verified (`verify_pairs`),
   rendered in all three formats and written once; then census,
   classification, Dedekind and obstruction calls are timed on their
   own.  Probes come first so that `getrusage` high-water marks after
   each stage belong to that stage.
2. Passes of `cli.main(argv)` in-process over one round of the
   workload's commands, untraced, traced, traced, untraced.  In a traced
   pass the public functions the CLI reaches are wrapped in spans
   (handler, census, engine, report, arithmetic), so each command becomes
   one request with nested spans.

Self time per layer is span time minus the time of child spans.  The
tracing overhead is a traced pass's wall time minus an untraced pass's,
averaged over the two of each; with a few hundred spans it is below the
run-to-run noise and can come out negative.  Caches in the package
are cleared before every command and every probe repetition, as each
CLI command starts with empty caches.
"""

from __future__ import annotations

import builtins
import contextlib
import importlib
import inspect
import io
import pickle
import random
import resource
import statistics
import sys
import time
from math import gcd

from checks import check, check_sweep
from proc import RESULTS, spawn
from workloads import FORMATS, MAX_GAP

LAYERS = ("cli", "census", "engine", "dedekind", "obstructions",
          "invariants", "report")
REPS = 5           # repetitions of each short probe; the median is kept
CALLS = 2000       # calls per arithmetic probe
DIRECT_CALLS = 500

# (module, attribute, span name): what the traced pass wraps.  Names the
# CLI imported are wrapped in cosmetic.cli; calls the engine makes to its
# own functions are wrapped in cosmetic.engine.  `print` is how the CLI
# writes its report.
WRAPPED = (
    ("cosmetic.cli", "load_census", "census.load"),
    ("cosmetic.cli", "verify_census_exclusions", "census.verify"),
    ("cosmetic.cli", "census_lookup", "census.lookup"),
    ("cosmetic.cli", "zhs_exterior_filter", "census.exterior_filter"),
    ("cosmetic.cli", "replicate_theorem", "engine.replicate_theorem"),
    ("cosmetic.cli", "run_classification", "engine.run_classification"),
    ("cosmetic.cli", "run_enumeration", "engine.run_enumeration"),
    ("cosmetic.engine", "classify_candidates", "engine.classify"),
    ("cosmetic.engine", "verify_families", "engine.verify_families"),
    ("cosmetic.engine", "enumerate_pairs", "engine.eval"),
    ("cosmetic.engine", "verify_pairs", "engine.verify"),
    ("cosmetic.cli", "emit_report", "report.render"),
    ("cosmetic.cli", "print", "report.write"),
    ("cosmetic.cli", "dedekind_sum_fast", "dedekind.fast"),
    ("cosmetic.cli", "linking_congruence", "obstructions.congruence"),
    ("cosmetic.cli", "casson_lens", "invariants.casson_lens"),
    ("cosmetic.cli", "casson_surgery", "invariants.casson_surgery"),
    ("cosmetic.cli", "alexander_second_derivative_at_1",
     "invariants.delta2"),
)

CACHED = (
    ("dedekind.cache_hit_ratio", "cosmetic.dedekind", "_fast_normalized"),
    ("obstructions.unit_squares_cache_hit_ratio", "cosmetic.obstructions",
     "_unit_squares"),
)


def _duration(span):
    return span["end"] - span["start"]


class Tracer:
    """Spans in memory, in start order, with parents from a stack."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"name": name, "request": self.request,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return traced

    def self_times(self):
        own = [_duration(s) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= _duration(s)
        by_layer = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            layer = s["name"].split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        return by_layer

    def root_time(self):
        return sum(_duration(s) for s in self.spans if s["parent"] is None)


@contextlib.contextmanager
def wrapped(tracer):
    """Wrap the WRAPPED functions in spans; restore them on exit."""
    missing = object()
    saved = []
    for module_name, attr, span_name in WRAPPED:
        module = importlib.import_module(module_name)
        original = vars(module).get(attr, missing)
        target = getattr(builtins, attr, None) if original is missing \
            else original
        if target is None:
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, target))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            if original is missing:
                delattr(module, attr)
            else:
                setattr(module, attr, original)


def clear_caches():
    """Empty every functools cache in the package's modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("cosmetic."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _hit_ratio(module_name, attr):
    cached = getattr(importlib.import_module(module_name), attr, None)
    if cached is None or not hasattr(cached, "cache_info"):
        return None  # the cache is gone: the metric is absent
    info = cached.cache_info()
    return info.hits / max(1, info.hits + info.misses)


def _median_span(tracer, name, fn, reps=REPS):
    times, result = [], None
    for _ in range(reps):
        clear_caches()
        with tracer.span(name) as span:
            result = fn()
        times.append(_duration(span))
    return statistics.median(times), result


def _per_call_us(tracer, name, fn, calls):
    clear_caches()
    with tracer.span(name) as span:
        for args in calls:
            fn(*args)
    return _duration(span) / len(calls) * 1e6


def _sweep_probes(tracer, sweep, tally, put):
    """Eval, verify, render and write the workload's sweep; returns the
    verdicts."""
    from cosmetic.engine import (
        EnumerationResult, enumerate_pairs, verify_pairs,
    )
    from cosmetic.report import emit_report

    filters = "all" if sweep.filters == "all" else sweep.filter_names
    tracer.request = "probe:sweep"
    clear_caches()
    with tracer.span("engine.eval") as span:
        pairs = tuple(enumerate_pairs(sweep.p_values, sweep.q_values,
                                      filters, MAX_GAP, 1))
    eval_s = _duration(span)
    put("rss_after.eval_mb", _rss_mb(), "MB")
    for name, module_name, attr in CACHED:
        ratio = _hit_ratio(module_name, attr)
        if ratio is not None:
            put(name, ratio, "ratio")
    with tracer.span("engine.verify") as span:
        verify_pairs(pairs)
    put("rss_after.verify_mb", _rss_mb(), "MB")
    put("engine.eval_s", eval_s, "s")
    put("engine.eval_us_per_pair", eval_s / len(pairs) * 1e6, "us")
    put("engine.verify_s", _duration(span), "s")
    put("engine.verify_us_per_pair", _duration(span) / len(pairs) * 1e6,
        "us")

    # The workload's own format first, so that the high-water mark after
    # it is that format's; the other two are timed and dropped.
    result = EnumerationResult(pairs, sweep.filter_names, MAX_GAP, ())
    for fmt in sorted(FORMATS, key=lambda fmt: fmt != sweep.fmt):
        with tracer.span(f"report.render.{fmt}") as span:
            text = emit_report(result, fmt)
        put(f"report.render_s.{fmt}", _duration(span), "s")
        if fmt != sweep.fmt:
            continue
        put("rss_after.render_mb", _rss_mb(), "MB")
        put("report.bytes", len(text.encode()), "B")
        target = RESULTS / "traced-report.tmp"
        with tracer.span("report.write") as span:
            with open(target, "w") as handle:
                handle.write(text)
        target.unlink()
        put("report.write_s", _duration(span), "s")
        tally.add(["probe", "render", fmt], check_sweep(sweep, text))
    del text, result

    clear_caches()
    with tracer.span("engine.eval_jobs2") as span:
        pooled = tuple(enumerate_pairs(sweep.p_values, sweep.q_values,
                                       filters, MAX_GAP, 2))
    put("engine.pool_speedup", eval_s / _duration(span), "x")
    tally.add(["probe", "eval", "jobs=2"],
              [] if pooled == pairs else ["jobs 2 verdicts differ"])
    del pooled
    put("engine.pickled_bytes_per_pair",
        len(pickle.dumps(list(pairs))) / len(pairs), "B_computed")

    survivors = sum(pv.surviving for pv in pairs)
    first_reject = dict.fromkeys(
        ("distance", "parity", "congruence", "dedekind", "none"), 0)
    for pv in pairs:
        failing = next((v.filter_name for v in pv.verdicts if not v.passed),
                       "none")
        first_reject[failing] += 1
    put("engine.pairs", len(pairs), "count")
    put("engine.survivors", survivors, "count")
    for name, count in first_reject.items():
        put(f"engine.first_reject.{name}", count, "count")
    put("engine.survivor_ratio", survivors / len(pairs), "ratio")
    return pairs


def _call_probes(tracer, pairs, rng, tally, put):
    """Census, classification and arithmetic calls, timed on their own."""
    from cosmetic.census import load_census, verify_census_exclusions
    from cosmetic.dedekind import dedekind_sum_direct, dedekind_sum_fast
    from cosmetic.engine import replicate_theorem, verify_families
    from cosmetic.invariants import cosmetic_dedekind_obstruction
    from cosmetic.obstructions import linking_congruence

    tracer.request = "probe:census"
    load_s, census = _median_span(tracer, "census.load", load_census)
    verify_s, _ = _median_span(
        tracer, "census.verify", lambda: verify_census_exclusions(census))
    put("census.load_ms", load_s * 1000, "ms")
    put("census.verify_ms", verify_s * 1000, "ms")

    tracer.request = "probe:classify"
    classify_s, table = _median_span(
        tracer, "engine.classify", lambda: replicate_theorem(verify=False))
    families_s, _ = _median_span(
        tracer, "engine.verify_families",
        lambda: verify_families(table.evaluated))
    put("engine.classify_ms", classify_s * 1000, "ms")
    put("engine.verify_families_ms", families_s * 1000, "ms")

    tracer.request = "probe:arithmetic"
    coprime = [(pv.p, pv.q, pv.q_prime) for pv in pairs
               if gcd(pv.q, pv.p) == 1 and gcd(pv.q_prime, pv.p) == 1]
    own = [rng.choice(coprime) for _ in range(CALLS)]
    # Large p, one call each, so that no cache can answer.
    big = []
    while len(big) < CALLS:
        p = rng.randrange(100_000, 1_000_000)
        q = rng.randrange(1, p)
        if gcd(q, p) == 1:
            big.append((q, p))
    put("dedekind.fast_us_per_call",
        _per_call_us(tracer, "dedekind.fast", dedekind_sum_fast, big), "us")
    put("dedekind.direct_us_per_call",
        _per_call_us(tracer, "dedekind.direct", dedekind_sum_direct,
                     [(q, p) for p, q, _ in own[:DIRECT_CALLS]]), "us")
    put("obstructions.congruence_us_per_call",
        _per_call_us(tracer, "obstructions.congruence", linking_congruence,
                     own), "us")
    put("invariants.dedekind_obstruction_us_per_call",
        _per_call_us(tracer, "invariants.dedekind_obstruction",
                     cosmetic_dedekind_obstruction, own), "us")

    tracer.request = "probe:import"
    with tracer.span("cli.import"):
        bare = [spawn([sys.executable, "-c", "pass"]) for _ in range(REPS)]
        full = [spawn([sys.executable, "-c", "import cosmetic.cli"])
                for _ in range(REPS)]
    for f in bare + full:
        tally.add(f.argv, [] if f.returncode == 0 else [f.err[-500:]])
    put("cli.import_s", statistics.median(f.wall_s for f in full)
        - statistics.median(f.wall_s for f in bare), "s")


def _cli_pass(commands, tally, tracer=None, label=""):
    """cli.main for each command, in-process; returns per-command times."""
    from cosmetic import cli

    target = RESULTS / "traced-output.tmp"
    times = []
    for index, args in enumerate(commands):
        clear_caches()
        with open(target, "w") as handle, \
                contextlib.redirect_stdout(handle), \
                contextlib.redirect_stderr(io.StringIO()):
            span = contextlib.nullcontext()
            if tracer is not None:
                tracer.request = f"{label}:command:{index}"
                span = tracer.span("cli.handler")
            start = time.perf_counter()
            with span:
                try:
                    code = cli.main(list(args))
                except SystemExit as exc:
                    code = exc.code
            times.append(time.perf_counter() - start)
        tally.add(args, check(args, code, target.read_text()))
    target.unlink()
    return times


def traced_run(seed, inputs, tally):
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    start = time.perf_counter()
    pairs = _sweep_probes(tracer, inputs.sweep, tally, put)
    _call_probes(tracer, pairs, random.Random(seed), tally, put)
    del pairs
    probe_wall = time.perf_counter() - start

    # Untraced, traced, traced, untraced: a steady drift in machine speed
    # over the four passes cancels out of the difference.
    times = {"untraced": [], "traced": []}
    traced_wall = 0.0
    for index, kind in enumerate(("untraced", "traced", "traced",
                                  "untraced")):
        if kind == "untraced":
            times[kind] += _cli_pass(inputs.commands, tally)
            continue
        with wrapped(tracer):
            start = time.perf_counter()
            times[kind] += _cli_pass(inputs.commands, tally, tracer,
                                     f"pass{index}")
            traced_wall += time.perf_counter() - start

    metrics["cli.handler_ms"] = (
        statistics.median(times["untraced"]) * 1000, "ms")
    for layer, seconds in tracer.self_times().items():
        metrics[f"self_s.{layer}"] = (seconds, "s")
    metrics["trace.outside_s"] = (
        probe_wall + traced_wall - tracer.root_time(), "s")
    metrics["trace.overhead_s"] = (
        (sum(times["traced"]) - sum(times["untraced"])) / 2, "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    absent = [name for name, _, _ in CACHED if name not in metrics]
    notes = {"commands_per_pass": len(inputs.commands)}
    return metrics, notes, {"spans": tracer.spans, "absent": absent}
