"""Exact binomial and Hadamard products of rational power series over ℚ.

The binomial product of two sequences is c_n = sum_k C(n,k) a_k b_{n-k};
the Hadamard product is c_n = a_n b_n.  Both send rational generating
functions to rational generating functions, and this package computes the
results exactly by several independent routes: resultants of polynomial
substitutions, Newton's identities on power sums of reciprocal roots,
constant-term extraction via partial fractions, and linear-algebra
reconstruction from series coefficients.
"""

from .errors import (
    BinprodError,
    CoprimalityViolation,
    DecompositionUnavailable,
    DivisibilityError,
    DivisionByZero,
    InternalInvariantViolation,
    InvalidInput,
    NotAPowerSeries,
    ParseError,
    ReconstructionFailed,
)
from .polycore import (
    BiPoly,
    Matrix,
    Poly,
    det_fraction_free,
    format_poly,
    lift_to_y,
    poly_gcd,
    resultant,
    solve_exact,
    sub_one_minus_y,
    sub_x_over_y,
    sylvester,
)
from .ratfun import (
    RatFun,
    Series,
    format_ratfun,
    reconstruct_rational,
)
from .symfun import denominator_via_symfun
from .convolve import (
    METHODS,
    ProductPlan,
    binomial_denominator,
    binomial_product,
    closed_form_bprod,
    closed_form_hprod,
    hadamard_denominator,
    hadamard_product,
    komatsu_decompose,
    plan_binomial,
    plan_hadamard,
    poly_bprod,
    series_binomial,
    series_hadamard,
)
from .pfrac import (
    binomial_via_constant_term,
    constant_term_split,
    tpoly_xgcd,
)
from .seqlib import (
    DEFAULT_SEED,
    IdentityCheck,
    IdentityReport,
    NamedGF,
    fib_number,
    fibonacci_multisection,
    identity_ids,
    lucas_multisection,
    lucas_number,
    named_gf,
    run_identity_suite,
    sequence_names,
)

__version__ = "1.0.0"

__all__ = [
    "BinprodError",
    "CoprimalityViolation",
    "DecompositionUnavailable",
    "DivisibilityError",
    "DivisionByZero",
    "InternalInvariantViolation",
    "InvalidInput",
    "NotAPowerSeries",
    "ParseError",
    "ReconstructionFailed",
    "BiPoly",
    "Matrix",
    "Poly",
    "det_fraction_free",
    "format_poly",
    "lift_to_y",
    "poly_gcd",
    "resultant",
    "solve_exact",
    "sub_one_minus_y",
    "sub_x_over_y",
    "sylvester",
    "RatFun",
    "Series",
    "format_ratfun",
    "reconstruct_rational",
    "denominator_via_symfun",
    "METHODS",
    "ProductPlan",
    "binomial_denominator",
    "binomial_product",
    "closed_form_bprod",
    "closed_form_hprod",
    "hadamard_denominator",
    "hadamard_product",
    "komatsu_decompose",
    "plan_binomial",
    "plan_hadamard",
    "poly_bprod",
    "series_binomial",
    "series_hadamard",
    "binomial_via_constant_term",
    "constant_term_split",
    "tpoly_xgcd",
    "DEFAULT_SEED",
    "IdentityCheck",
    "IdentityReport",
    "NamedGF",
    "fib_number",
    "fibonacci_multisection",
    "identity_ids",
    "lucas_multisection",
    "lucas_number",
    "named_gf",
    "run_identity_suite",
    "sequence_names",
]
