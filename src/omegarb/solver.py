"""From an omega-Lie algebra and a constraint profile to the polynomial
ideal cutting out the corresponding operator variety, plus its analysis.
This module computes and does not judge: comparing a result with the
published tables is `cli.run_table_row`'s work alone.

The pipeline: introduce a generic operator matrix (x_ij), expand the chosen
operator identities on all basis pairs, project onto basis vectors to get one
polynomial per (pair, coordinate), and hand the resulting ideal to the ideal
engine for Groebner bases, dimension, and component verification.  The
identities themselves are not transcribed here: `generate_equations` reads
them from one pass of ``algebras.operator_identities`` over all basis pairs,
and from ``algebras.operator_square``, over polynomial entries and the
algebra's stored integer tables, the same code `classify_map` evaluates over
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .algebras import (
    OmegaAlgebra,
    OperatorMatrix,
    classify_map,
    operator_identities,
    operator_square,
)
from .ideals import (
    EMPTY_VARIETY,
    ComponentReport,
    Ideal,
    PrimalityCertificate,
    SplitResult,
    krull_dim,
    make_ideal,
    split_components,
    split_heuristic,
    verify_components,
)
from .poly import Polynomial, VariableTable, grevlex_order


@dataclass(frozen=True)
class ConstraintProfile:
    """Which operator variety to carve out.

    weight: the Rota-Baxter weight; compatible adds the omega-compatibility
    identity; isometric adds the omega-isometry identity; square_zero adds
    the entries of R*R.
    """

    weight: Fraction = Fraction(0)
    compatible: bool = False
    isometric: bool = False
    square_zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "weight", Fraction(self.weight))


# the four named varieties used throughout the reports
PROFILES: dict[str, ConstraintProfile] = {
    "b": ConstraintProfile(weight=0),
    "bc": ConstraintProfile(weight=0, compatible=True),
    "bi1": ConstraintProfile(weight=1, isometric=True),
    "bs": ConstraintProfile(weight=0, compatible=True, square_zero=True),
}


def profile_by_name(name: str) -> ConstraintProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; expected one of {sorted(PROFILES)}"
        ) from None


def entry_name(i: int, j: int) -> str:
    """Name of the generic matrix entry in row i, column j (1-based)."""
    if i < 10 and j < 10:
        return f"x{i}{j}"
    return f"x{i}_{j}"


@dataclass(frozen=True)
class GenericOperator:
    """The symbolic n x n matrix (x_ij), row-major over its own table."""

    dim: int
    table: VariableTable
    entries: tuple[tuple[Polynomial, ...], ...]

    @classmethod
    def of_dimension(cls, n: int) -> "GenericOperator":
        ks = range(1, n + 1)
        table = VariableTable(tuple(entry_name(i, j) for i in ks for j in ks))
        variables = [Polynomial.variable(table, name) for name in table.names]
        return cls(n, table, tuple(tuple(variables[i * n : (i + 1) * n]) for i in range(n)))


def generate_equations(
    L: OmegaAlgebra, profile: ConstraintProfile
) -> tuple[GenericOperator, list[Polynomial]]:
    """All defining polynomials for the chosen variety, pair by pair and
    then the entries of R*R; duplicates and zeros are pruned by
    generate_system.  The identities are read off the algebra's stored
    form (D c, D omega), so each pair polynomial is D times its rational
    value."""
    R = GenericOperator.of_dimension(L.dim)
    zero = Polynomial.zero(R.table)
    out: list[Polynomial] = []
    for ids in operator_identities(L.integral, R.entries, profile.weight, zero):
        out.extend(ids.rb)
        if profile.compatible:
            out.append(ids.compat)
        if profile.isometric:
            out.append(ids.isom)
    if profile.square_zero:
        for row in operator_square(R.entries, zero):
            out.extend(row)
    return R, out


@lru_cache(maxsize=256)
def generate_system(L: OmegaAlgebra, profile: ConstraintProfile) -> Ideal:
    """The variety-defining ideal: generated equations, made primitive with
    positive leading coefficient, deduplicated, zeros dropped.

    Cached per (algebra, profile): the returned Ideal also carries the
    Groebner cache, so repeated membership tests amortize."""
    R, equations = generate_equations(L, profile)
    order = grevlex_order(R.table)
    seen = dict.fromkeys(p.primitive(order) for p in equations if not p.is_zero())
    return make_ideal(R.table, tuple(seen))


def membership_check(
    L: OmegaAlgebra, profile: ConstraintProfile, R: OperatorMatrix
) -> bool:
    """Point-on-variety test: substituting R's entries kills every
    generator.  Agrees with classify_map by construction (cross-checked in
    the test suite on random operators)."""
    I = generate_system(L, profile)
    entries = R.entries
    point = {}
    for i in range(L.dim):
        for j in range(L.dim):
            point[entry_name(i + 1, j + 1)] = entries[i][j]
    return all(g.evaluate(point) == 0 for g in I.generators)


def profile_flags_match(
    L: OmegaAlgebra, profile: ConstraintProfile, R: OperatorMatrix
) -> bool:
    """The classification-side view of the same predicate."""
    cls = classify_map(L, R, profile.weight)
    ok = cls.is_rb
    if profile.compatible:
        ok = ok and cls.is_compatible
    if profile.isometric:
        ok = ok and cls.is_isometric
    if profile.square_zero:
        ok = ok and cls.is_square_zero
    return ok


# ---------------------------------------------------------------------------
# variety reports


@dataclass
class VarietyReport:
    """What `analyze_variety` computed for one cell: ``components`` holds one
    record per component (None without candidates), and ``discrepancy_flags``
    the one check made on the computed values alone: confirmed component
    dimensions whose maximum is not the total dimension."""

    ideal: Ideal
    dim: object  # int or EMPTY_VARIETY
    components: Optional[ComponentReport]
    split: Optional[SplitResult]
    discrepancy_flags: list[str]

    @property
    def n_components(self) -> int:
        return 0 if self.components is None else len(self.components.candidates)

    @property
    def component_dims(self) -> tuple:
        if self.components is None:
            return ()
        return self.components.dims

    @property
    def confirmed(self) -> bool:
        return self.components is not None and self.components.confirmed


def analyze_variety(
    L: OmegaAlgebra,
    profile: ConstraintProfile,
    candidates: Optional[Sequence[tuple[Ideal, Optional[PrimalityCertificate]]]] = None,
) -> VarietyReport:
    """Groebner basis, dimension, and components for one cell.

    Candidates supplied are verified as the irreducible components by
    ``verify_components``; otherwise the split's leaves are the components
    by construction (``split_components``).
    """
    I = generate_system(L, profile)
    dim = krull_dim(I)
    split = None
    if candidates is None:
        split = split_heuristic(I)
        comp = split_components(split)
    else:
        comp = verify_components(I, candidates) if candidates else None
    flags = []
    if comp is not None and comp.confirmed and dim is not EMPTY_VARIETY:
        dims = [d for d in comp.dims if d is not EMPTY_VARIETY]
        if dims and max(dims) != dim:
            flags.append(f"component dims {comp.dims} inconsistent with total dim {dim}")
    return VarietyReport(
        ideal=I,
        dim=dim,
        components=comp,
        split=split,
        discrepancy_flags=flags,
    )
