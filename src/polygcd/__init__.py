"""Exact resultants of monic integer polynomials and the complete
divisor-to-residue map of gcd(f(n), g(n)) for square-free resultants.

Coefficient order is leading-first everywhere: ``(1, 0, 3)`` is ``x^2 + 3``.
"""
from .analysis import (
    RESIDUE_LISTING_CAP,
    AnalysisOutcome,
    AtlasEntry,
    GcdAtlas,
    NotSquarefree,
    ZeroResultant,
    analyze,
    coprime_witness,
    minimal_period,
)
from .errors import (
    CapExceeded,
    CriterionInapplicable,
    InputError,
    InvariantBreach,
    ParseError,
    PolyGcdError,
)
from .linalg import IntMatrix, det_bareiss, resultant, resultant_prs, sylvester_matrix
from .modp import common_root_mod_p
from .ntheory import (
    DIVISOR_CAP,
    MR_DETERMINISTIC_BOUND,
    Factorization,
    crt,
    divisors,
    ext_gcd,
    factor,
    is_prime,
    is_squarefree,
)
from .oracle import BRUTE_FORCE_CAP, BruteForceProfile, brute_force_profile
from .poly import IntPoly, MonicIntPoly, gcd_over_Z, parse_poly
from .snf import SnfResult, smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "AnalysisOutcome",
    "AtlasEntry",
    "BRUTE_FORCE_CAP",
    "BruteForceProfile",
    "CapExceeded",
    "CriterionInapplicable",
    "DIVISOR_CAP",
    "Factorization",
    "GcdAtlas",
    "InputError",
    "IntMatrix",
    "IntPoly",
    "InvariantBreach",
    "MonicIntPoly",
    "MR_DETERMINISTIC_BOUND",
    "NotSquarefree",
    "ParseError",
    "PolyGcdError",
    "RESIDUE_LISTING_CAP",
    "SnfResult",
    "ZeroResultant",
    "analyze",
    "brute_force_profile",
    "common_root_mod_p",
    "coprime_witness",
    "crt",
    "det_bareiss",
    "divisors",
    "ext_gcd",
    "factor",
    "gcd_over_Z",
    "is_prime",
    "is_squarefree",
    "minimal_period",
    "parse_poly",
    "resultant",
    "resultant_prs",
    "smith_normal_form",
    "sylvester_matrix",
]
