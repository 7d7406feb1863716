"""Exact obstruction calculus for truly cosmetic exceptional surgeries.

Dehn surgeries p/q and p/q' on the same hyperbolic knot in an integer
homology sphere rarely give the same oriented manifold.  This package
implements, in exact arithmetic, the obstruction theory that pins down
when they can: Dedekind sums and the Casson surgery formula, the
linking-form congruence q = q' u^2 (mod p), slope distance caps per
exceptional geometry, homology bookkeeping for the candidate-exterior
census, and a residue-class engine that rebuilds the full case-by-case
classification and sweeps concrete slope pairs in bulk.
"""

from .census import (
    CensusRecord,
    ExteriorVerdict,
    KnownFilling,
    census_lookup,
    load_census,
    verify_census_exclusions,
    zhs_exterior_filter,
)
from .dedekind import (
    dedekind_sum_direct,
    dedekind_sum_fast,
    sawtooth,
)
from .engine import (
    ClassificationTable,
    ClassifyResult,
    CrossCheckError,
    EnumerationResult,
    PairVerdict,
    classify_candidates,
    enumerate_pairs,
    replicate_theorem,
    run_classification,
    run_enumeration,
    stream_enumeration,
    surviving_families,
    verify_families,
    verify_pairs,
)
from .homology import (
    LinkSurgeryData,
    WatsonData,
    deduced_filling_orders,
    h1_order_watson,
    link_surgery_h1,
    solve_framing_shift,
)
from .invariants import (
    AlexanderPolynomial,
    LensSpace,
    alexander_second_derivative_at_1,
    casson_lens,
    casson_surgery,
    cosmetic_dedekind_obstruction,
)
from .obstructions import (
    GeometryClass,
    ObstructionVerdict,
    distance_cap,
    linking_congruence,
    parity_filter,
    unit_squares_mod,
)
from .report import emit_report, write_report
from .slopes import (
    Slope,
    canonicalize_slope,
    format_rational,
    parse_rational,
    reframe_slope,
    slope_distance,
)

__version__ = "0.1.0"
