"""Exact binomial and Hadamard products of rational power series over ℚ.

The binomial product of two sequences is c_n = sum_k C(n,k) a_k b_{n-k};
the Hadamard product is c_n = a_n b_n.  Both send rational generating
functions to rational generating functions, and this package computes the
results exactly by several independent routes: resultants of polynomial
substitutions, Newton's identities on power sums of reciprocal roots,
constant-term extraction via partial fractions, and linear-algebra
reconstruction from series coefficients.

This module exports the library that README documents; the internals of
each route are imported from their modules, e.g.
``from binprod.polycore import det_fraction_free, sylvester``.
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
from .polycore import Poly
from .ratfun import RatFun, Series, reconstruct_rational
from .convolve import METHODS, binomial_product, hadamard_product
from .seqlib import named_gf, run_identity_suite

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
    "Poly",
    "RatFun",
    "Series",
    "reconstruct_rational",
    "METHODS",
    "binomial_product",
    "hadamard_product",
    "named_gf",
    "run_identity_suite",
]
