"""Unit-norm tight frames from characters of finite groups, with exact
coherence analysis.

Constructions: rows of character tables of the additive group of GF(p^r)
indexed by a multiplicative subgroup (Sylvester-Hadamard rows when p = 2,
Paley equiangular frames when the subgroup index is 2), seeded random row
selections for baselines, and frames stacked from the induced or cuspidal
representations of SL2(F_q) for q even.  Analysis: worst-case and average
coherence, Welch and structural bounds, tightness, and the census of
distinct Gram values, each computed by at least two independent routes.
"""

from .coherence import (
    CoherenceReport,
    analyze,
    average_coherence,
    bound_general_kappa,
    bound_m_odd,
    bound_sqrt_kappa,
    coherence_bruteforce,
    coherence_properties,
    coset_sums,
    inner_product_exact,
    multiplier_sums,
    random_fourier_bound,
    random_fourier_window,
    roots_of_unity,
    tightness_residual,
    welch_bound,
)
from .errors import (
    BadShape,
    ContextMismatch,
    DegreeTooLarge,
    GroupFramesError,
    InvariantViolation,
    MNotOddDivisor,
    NotADivisor,
    NotEvenPrimePower,
    NotNormalized,
    NotPrime,
    QMinusOneNotPrime,
    QPlusOneNotPrime,
    ResourceCap,
    ResourceError,
    TooManyRows,
    ValidationError,
)
from .frames import (
    ComplexFrame,
    ExponentFrame,
    build_field_frame,
    build_hadamard_frame,
    build_harmonic_frame,
    build_random_exponent_frame,
    build_random_hadamard_frame,
    load_frame,
    materialize,
    save_complex_csv,
    save_exponent_csv,
    save_sign_csv,
)
from .gf import FieldCtx, build_field, is_prime, prime_factors, \
    subgroup_of_order
from .sl2 import sl2_report

__version__ = "0.1.0"

__all__ = [
    "BadShape",
    "CoherenceReport",
    "ComplexFrame",
    "ContextMismatch",
    "DegreeTooLarge",
    "ExponentFrame",
    "FieldCtx",
    "GroupFramesError",
    "InvariantViolation",
    "MNotOddDivisor",
    "NotADivisor",
    "NotEvenPrimePower",
    "NotNormalized",
    "NotPrime",
    "QMinusOneNotPrime",
    "QPlusOneNotPrime",
    "ResourceCap",
    "ResourceError",
    "TooManyRows",
    "ValidationError",
    "analyze",
    "average_coherence",
    "bound_general_kappa",
    "bound_m_odd",
    "bound_sqrt_kappa",
    "build_field",
    "build_field_frame",
    "build_hadamard_frame",
    "build_harmonic_frame",
    "build_random_exponent_frame",
    "build_random_hadamard_frame",
    "coherence_bruteforce",
    "coherence_properties",
    "coset_sums",
    "inner_product_exact",
    "is_prime",
    "load_frame",
    "materialize",
    "multiplier_sums",
    "prime_factors",
    "random_fourier_bound",
    "random_fourier_window",
    "roots_of_unity",
    "save_complex_csv",
    "save_exponent_csv",
    "save_sign_csv",
    "sl2_report",
    "subgroup_of_order",
    "tightness_residual",
    "welch_bound",
]
