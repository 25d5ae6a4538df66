"""Exact symbolic computation around the Kashiwara-Vergne equation.

Truncated free associative and free Lie series over exact rationals, cyclic
word quotients, tangential derivations with their divergence cocycles, a
solver producing rational solutions of the Kashiwara-Vergne equation by
factorizing the Campbell-Hausdorff series, and degree-by-degree verifiers
for the quadratic trace identities those solutions satisfy.
"""

from types import ModuleType as _ModuleType

from .words import (
    ArityMismatchError,
    AssocSeries,
    Decomposition,
    decompose,
    exp,
    format_rational,
    left_letter_mul,
    log,
    mul,
    parse_rational,
    substitute_words,
    tau,
    word_from_str,
    word_to_str,
)
from .lyndon import is_lyndon, lyndon_words, standard_factorization
from .lie import (
    LieElement,
    NotLieError,
    RationalUnivariateSeries,
    ad_apply,
    apply_operator_series,
    assoc_to_lie,
    bch,
    bch_multi,
    bracket,
    ch_t,
    directional_derivative,
    generator,
    kernel_series,
    scale,
    substitute,
    substitute_many,
    univariate_substitute,
)
from .traces import (
    QuadTraceSeries,
    TraceSeries,
    canonical_rotation,
    quad_canonical,
    tr,
    tr_quad,
    trace_pairing,
    trace_substitute,
)
from .tangential import (
    TangentialDerivation,
    act,
    act_on_trace,
    derivation_from_quadratic_trace,
    div,
    div_quad,
    quadratic_trace_tuple,
    simplicial,
)
from .solver import (
    KVSolution,
    ab_to_AB,
    canonical_solution,
    factorize,
    flow_check,
    gauge_family,
    kv1_residual,
    kv_rhs,
    standard_family,
    standard_gauge_pairs,
)
from .verify import (
    DegreeResult,
    VerificationReport,
    Witness,
    check_full_trace_equation,
    homo_kernel,
    quadratic_divergence_sides,
    simplicial_combination,
    verify_cocycle_equation,
    verify_kv1,
    verify_prop_U,
    verify_prop_last,
    verify_series_identities,
    verify_theorem,
)
from .cli import main

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
