"""Exact obstruction calculus for truly cosmetic exceptional surgeries.

Dehn surgeries p/q and p/q' on the same hyperbolic knot in an integer
homology sphere rarely give the same oriented manifold.  This package
implements, in exact arithmetic, the obstruction theory that pins down
when they can: Dedekind sums and the Casson surgery formula, the
linking-form congruence q = q' u^2 (mod p), slope distance caps per
exceptional geometry, homology bookkeeping for the candidate-exterior
census, and a residue-class engine that rebuilds the full case-by-case
classification and sweeps concrete slope pairs in bulk.

The public names below are loaded from their modules on first use, so
importing the package (or one command of the CLI) loads only what it
runs.
"""

from importlib import import_module


class CrossCheckError(RuntimeError):
    """An independently recomputed verdict disagreed with the engine's."""


# The report formats; the CLI offers them without loading the report.
FORMATS = ("json", "csv", "markdown")

_EXPORTS = {
    "census": ("CensusRecord", "ExteriorVerdict", "KnownFilling",
               "census_lookup", "load_census", "verify_census_exclusions",
               "zhs_exterior_filter"),
    "dedekind": ("dedekind_sum_direct", "dedekind_sum_fast", "sawtooth"),
    "engine": ("ClassificationTable", "ClassifyResult", "EnumerationResult",
               "PairVerdict", "classify_candidates", "enumerate_pairs",
               "replicate_theorem", "run_classification", "run_enumeration",
               "stream_enumeration", "surviving_families"),
    "homology": ("LinkSurgeryData", "WatsonData", "deduced_filling_orders",
                 "h1_order_watson", "link_surgery_h1", "solve_framing_shift"),
    "invariants": ("AlexanderPolynomial", "LensSpace",
                   "alexander_second_derivative_at_1", "casson_lens",
                   "casson_surgery", "cosmetic_dedekind_obstruction"),
    "obstructions": ("GeometryClass", "ObstructionVerdict", "Witness",
                     "distance_cap", "linking_congruence", "parity_filter",
                     "reason", "unit_squares_mod"),
    "oracle": ("verify_families", "verify_pairs"),
    "report": ("emit_report", "write_report"),
    "slopes": ("Slope", "canonicalize_slope", "format_rational",
               "parse_rational", "reframe_slope", "slope_distance"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["CrossCheckError", *_HOME]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: import the defining module the first time a name is read.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
