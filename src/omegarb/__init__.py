"""Exact computation of Rota-Baxter operator varieties on omega-Lie algebras."""

from .poly import (
    DimensionMismatchError,
    MonomialOrder,
    PolyParseError,
    Polynomial,
    VariableTable,
    grevlex_order,
    lex_order,
    parse_polynomial,
    parse_rational,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    is_groebner_basis,
    reduce,
    s_polynomial,
)
from .ideals import (
    EMPTY_VARIETY,
    ComponentReport,
    Ideal,
    PrimalityCertificate,
    SplitResult,
    check_primality,
    colon,
    elimination,
    find_certificate,
    ideal_equal,
    ideal_membership,
    intersect,
    krull_dim,
    make_ideal,
    parse_ideal,
    product,
    radical_membership,
    sample_points,
    saturate,
    split_heuristic,
    verify_components,
)

__version__ = "0.1.0"
