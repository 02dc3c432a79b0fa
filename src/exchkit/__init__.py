"""exchkit: exact decisions about finite exchangeability on finite alphabets.

Everything is exact rational arithmetic end to end: laws are stored by
type-class weights, decisions are linear programs over Fractions, and every
verdict ships with a machine-checkable certificate (an extension law, a
norm-violating function, a Farkas ray, or an explicit product mixture).
"""

from .caps import DEFAULT_RESOURCE_CAP, resource_cap
from .errors import CapacityError, ExchkitError, InputError
from .extend import (
    CovarianceBound,
    ExtendReport,
    InfiniteOutcome,
    InfiniteReport,
    Verdict,
    check_extendible,
    corollary_criterion,
    covariance_bound,
    marginal_matches,
    norm_EN,
    probe_infinite,
)
from .measures import (
    ExchangeableLaw,
    InversionTable,
    invert_urn,
    marginalize,
    product_law,
    reconstruct_check,
    simplex_grid,
    urn_coefficient,
    urn_measure,
)
from .ratlp import LinearProgram, LpOutcome, LpStatus, solve, verify
from .represent import SignedMixture, reconstruct, signed_mixture, tv_lower_bound
from .symmetrize import SymmetricFunction, apply_U, expectation, kernel_check, sup_norm
from .typespace import (
    Alphabet,
    Rational,
    TypeVector,
    enumerate_types,
    multiset_count,
    subtypes,
    type_of,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CapacityError",
    "CovarianceBound",
    "DEFAULT_RESOURCE_CAP",
    "ExchangeableLaw",
    "ExchkitError",
    "ExtendReport",
    "InfiniteOutcome",
    "InfiniteReport",
    "InputError",
    "InversionTable",
    "LinearProgram",
    "LpOutcome",
    "LpStatus",
    "Rational",
    "SignedMixture",
    "SymmetricFunction",
    "TypeVector",
    "Verdict",
    "apply_U",
    "check_extendible",
    "corollary_criterion",
    "covariance_bound",
    "enumerate_types",
    "expectation",
    "invert_urn",
    "kernel_check",
    "marginal_matches",
    "marginalize",
    "multiset_count",
    "norm_EN",
    "probe_infinite",
    "product_law",
    "reconstruct",
    "reconstruct_check",
    "resource_cap",
    "signed_mixture",
    "simplex_grid",
    "solve",
    "subtypes",
    "sup_norm",
    "tv_lower_bound",
    "type_of",
    "urn_coefficient",
    "urn_measure",
    "verify",
]
