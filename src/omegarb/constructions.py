"""Structures built from Rota-Baxter operators: left-symmetric algebras,
deformed omega-Lie algebras, Hom-Lie algebras, and module twists.

Every construction starts from one pair (L, R) and reads one
``algebras.evaluate_operator`` pass over it, the code that also classifies
operators and generates the operator varieties.  Every construction reads
that pass through ``algebras.kept_evaluation``, as ``classify_map`` does:
L keeps the last evaluation made for it, with its operator and weight,
outside its fields, so the weight-0 constructions (the left-symmetric
product, the deformation and its iterates, the Hom-Lie algebra) on L with
an equal R read the one that classifying R at weight 0, or an earlier
construction, made; the weight-1 `module_twist` reads the same way.
Nothing is kept at module level, and nothing outlives L.  The pass decides
the hypotheses: a failed one raises :class:`PreconditionError` naming it,
since a silently misused construction produces tables that violate the
claimed identities.  The same pass gives the tables to build from, over
ints: an algebra or operator is cleared once, when it is built, so with
the algebra stored at scale D and the operator at scale d, the pass gives
the rows d R, the bracket [x,y]_R at scale D d and the form
omega(R(x),R(y)) at scale D d^2.  `iterate_deform` reads one evaluation of (L_{i-1}, R^i) per
step, which both decides the step and feeds the private `_deform`;
`omega_deform` is its first step.

Every output is stored the way an algebra is: its integer table with its
scale, reduced to content 1 by the one reduction of a table,
``IntegralAlgebra.reduced``, with Fraction views for output only; no
construction clears a table or takes its content itself.  L_R is built
from the bracket [x,y]_R, lifted to the form's scale D d^2, and the form,
the left-symmetric algebra from the product [R(x),y] at scale D d, and the
Hom-Lie algebra from [x,y]_R at scale D d.  Each output is then validated
by its public checker over those stored ints: the left-symmetric identity,
the twisted Jacobi identity, or for L_R the defining identity.  The same
integer data decide "image(R) inside ker(omega)" (the stored rows of R
times the stored omega vanish), the series of `homlie_structure` (ranks of
fraction-free echelon forms), the annihilator hypothesis of `module_twist`
(R([R(x),y]) at scale D d^2) and the module identity (at scale D).  The
two series share their first term [g, g], the echelon form of the stored
bracket rows c[i][j] for i < j, and a derived step brackets each unordered
pair of its term once: the bracket is skew, which a `HomLieAlgebra` checks
when it is made.

Solvability of the Hom-Lie algebra of R is a lemma, not a measurement.  A
weight-0 Rota-Baxter operator satisfies R[x,y]_R = [Rx,Ry], so R maps
(L, [,]_R) homomorphically onto (im R, [,]), and by induction
R(L^(k)) = (im R)^(k) for every term of the derived series.  For u, v in
ker R, [u,v]_R = 0, so (im R)^(k) = 0 gives L^(k+1) = 0: (L, [,]_R) is
solvable exactly when im R is, with a derived length at most one more
(Guo, An Introduction to Rota-Baxter Algebra, 2012, for the homomorphism).
Neither the Jacobi nor the omega-Lie identity is used.  With R^2 = 0 on a
4-dimensional L, im R lies in ker R, so dim im R <= 2 and the derived
length is at most 3: no table-3 component can be non-solvable.  The
"non-solvable" category stays, since `homlie_structure` takes any bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import add
from typing import Optional, Sequence

from .algebras import (
    IntegralAlgebra,
    OmegaAlgebra,
    OperatorMatrix,
    Subspace,
    apply_operator,
    jacobi_defect,
    kept_evaluation,
    structure_product,
    validate_algebra,
)
from .linalg import (
    Matrix,
    Vector,
    fraction_free_rref,
    identity,
    mat,
    nullspace,
)


class PreconditionError(ValueError):
    """A construction hypothesis failed; ``hypothesis`` names it."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        message = f"hypothesis not satisfied: {hypothesis}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class IterationHalted(RuntimeError):
    """Deformation iteration stopped because a power of the operator is not
    a compatible Rota-Baxter operator on the current algebra."""

    def __init__(self, step: int, produced: list):
        self.step = step
        self.produced = produced
        super().__init__(
            f"iteration halted at step {step}: R^{step} is not a compatible"
            f" weight-0 Rota-Baxter operator on the previous algebra"
        )


# ---------------------------------------------------------------------------
# left-symmetric algebras


@dataclass(frozen=True)
class LeftSymmetricAlgebra:
    """Multiplication table m[i][j][k]: e_i * e_j = sum_k m[i][j][k] e_k.

    Stored cleared of denominators as ``integral`` = (D, D m, ()) at content
    1; ``m`` is the Fraction view of it, rebuilt on each access."""

    dim: int
    basis_names: tuple[str, ...]
    integral: IntegralAlgebra

    @property
    def m(self) -> tuple[tuple[Vector, ...], ...]:
        return self.integral.c_view()


def _columns(c) -> list:
    """cols[j][a] = c[a][j]: [v, e_j] = sum_a v_a cols[j][a]."""
    n = len(c)
    return [tuple(c[a][j] for a in range(n)) for j in range(n)]


def _image_products(c, rows) -> tuple:
    """table[i][j] = [rows[i], e_j] over the integer table c: the product
    [R(e_i), e_j] at scale D d for c at scale D and rows = d R."""
    cols = _columns(c)
    return tuple(tuple(apply_operator(col, r, 0) for col in cols) for r in rows)


def is_left_symmetric(A: LeftSymmetricAlgebra) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz) on all basis triples, over the stored
    integer table (the identity is homogeneous); it is symmetric in x, y,
    so x < y suffices."""
    m = A.integral.c
    n = len(m)
    cols = _columns(m)

    def associator(x, y, z):
        left = apply_operator(cols[z], m[x][y], 0)  # (e_x e_y) e_z
        right = apply_operator(m[x], m[y][z], 0)  # e_x (e_y e_z)
        return [a - b for a, b in zip(left, right)]

    return all(
        associator(x, y, z) == associator(y, x, z)
        for x, y in combinations(range(n), 2)
        for z in range(n)
    )


def left_symmetric_from_rb(L: OmegaAlgebra, R: OperatorMatrix) -> LeftSymmetricAlgebra:
    """x*y := [R(x), y] is left-symmetric when R is a weight-0 Rota-Baxter
    operator whose image lies in ker(omega).  Both hypotheses are checked,
    the second as omega(R e_i, e_j) = 0 for all i, j: row i of the stored
    operator times the stored omega is zero.  The table [R e_i, e_j] is
    stored at scale D d, reduced, and checked by :func:`is_left_symmetric`."""
    A = L.integral
    ev = kept_evaluation(L, R)
    if not ev.flags.is_rb:
        raise PreconditionError("R is a Rota-Baxter operator of weight 0")
    for i, r in enumerate(ev.rows):  # row i is d R(e_i)
        if any(apply_operator(A.omega, r, 0)):  # omega(R e_i, e_j) over j
            raise PreconditionError(
                "image(R) inside ker(omega)",
                f"R({L.basis_names[i]}) is outside the kernel",
            )
    table = IntegralAlgebra(A.scale * ev.d, _image_products(A.c, ev.rows), ())
    out = LeftSymmetricAlgebra(L.dim, L.basis_names, table.reduced())
    if not is_left_symmetric(out):
        raise AssertionError("construction produced a non-left-symmetric table")
    return out


# ---------------------------------------------------------------------------
# deformed omega-Lie algebras


def omega_deform(L: OmegaAlgebra, R: OperatorMatrix) -> OmegaAlgebra:
    """The deformation L_R: bracket [x,y]_R = [R(x),y] + [x,R(y)] and form
    omega_R(x,y) = omega(R(x),R(y)); requires R compatible Rota-Baxter of
    weight 0.  The output is validated."""
    return iterate_deform(L, R, 1)[1]


def _deform(basis_names, ev) -> OmegaAlgebra:
    """L_R from the evaluation of (L, R), which has decided R already: the
    bracket, lifted from scale D d to D d^2, and the form make its integer
    algebra at scale D d^2, which ``OmegaAlgebra.from_integral`` reduces to
    content 1 and which is still validated."""
    d = ev.d
    c = tuple(tuple(tuple(d * x for x in v) for v in row) for row in ev.bracket)
    LR = OmegaAlgebra.from_integral(basis_names, IntegralAlgebra(ev.D * d * d, c, ev.form))
    check = validate_algebra(LR)
    if not check.ok:
        raise AssertionError(f"deformation violates the defining identity: {check.failures[:3]}")
    return LR


def iterate_deform(L: OmegaAlgebra, R: OperatorMatrix, steps: int) -> list[OmegaAlgebra]:
    """Iterated deformation: L_0 = L and L_i deforms L_{i-1} by R^i.

    Each step reads the kept evaluation of (L_{i-1}, R^i)
    (``algebras.kept_evaluation``), so step 1 reads the one that
    classification or an earlier construction on L with an equal R made,
    when there is one, and every later step evaluates on the fresh
    L_{i-1}.  The evaluation decides whether R^i is a compatible weight-0
    Rota-Baxter operator on L_{i-1}, and its bracket and form build L_i,
    which is validated.  A failure at
    step 1 (R on L) raises :class:`PreconditionError`; a later one halts the
    iteration with :class:`IterationHalted`, carrying the offending step
    and the algebras built so far.  R^i is R^{i-1} then R, one integer
    product of the stored matrices (``OperatorMatrix.then``).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    produced, power = [L], R
    for i in range(1, steps + 1):
        if i > 1:
            power = power.then(R)
        ev = kept_evaluation(produced[-1], power)
        if not (ev.flags.is_rb and ev.flags.is_compatible):
            if i == 1:
                raise PreconditionError("R is a compatible Rota-Baxter operator of weight 0")
            raise IterationHalted(i, produced)
        produced.append(_deform(L.basis_names, ev))
    return produced


# ---------------------------------------------------------------------------
# Hom-Lie algebras


@dataclass(frozen=True)
class HomLieAlgebra:
    """Skew bracket table with a twist map; the twisted Jacobi identity
    [[x,y],t(z)] + [[y,z],t(x)] + [[z,x],t(y)] = 0 holds on basis triples.

    The bracket is stored cleared of denominators as ``integral`` = (D, D c,
    ()) at content 1; ``c`` is the Fraction view of it, rebuilt on each
    access.  The bracket is skew, c[j][i] = -c[i][j] and c[i][i] = 0: that
    is checked when the algebra is made, and a table that breaks it raises
    ``ValueError``, since `homlie_structure` brackets unordered pairs."""

    dim: int
    basis_names: tuple[str, ...]
    integral: IntegralAlgebra
    twist: OperatorMatrix

    def __post_init__(self):
        c = self.integral.c
        for i, j in combinations_with_replacement(range(len(c)), 2):
            if any(map(add, c[i][j], c[j][i])):
                raise ValueError(
                    f"the bracket is not skew at [{self.basis_names[i]}, {self.basis_names[j]}]"
                )

    @property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        return self.integral.c_view()

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        D, c, _ = self.integral
        return tuple(x / D for x in structure_product(c, u, v))


def hom_jacobi_holds(g: HomLieAlgebra) -> bool:
    """The twisted Jacobi identity on basis triples, over the stored bracket
    and the twist's stored rows (the identity is homogeneous in each)."""
    c = g.integral.c
    n = len(c)
    no_form = ((0,) * n,) * n
    return not any(
        any(jacobi_defect(c, no_form, g.twist.rows, *ijk, 0))
        for ijk in combinations(range(n), 3)
    )


def homlie_from_rb(L: OmegaAlgebra, R: OperatorMatrix) -> HomLieAlgebra:
    """Hom-Lie algebra with bracket [x,y]_R and twist R, for R a compatible
    weight-0 Rota-Baxter operator with R^2 = 0.  The hypotheses are checked;
    the bracket is stored at scale D d, reduced, and checked by
    :func:`hom_jacobi_holds`."""
    ev = kept_evaluation(L, R)
    if not (ev.flags.is_rb and ev.flags.is_compatible):
        raise PreconditionError("R is a compatible Rota-Baxter operator of weight 0")
    if not ev.flags.is_square_zero:
        raise PreconditionError("R^2 = 0")
    bracket = IntegralAlgebra(ev.D * ev.d, ev.bracket, ())
    g = HomLieAlgebra(L.dim, L.basis_names, bracket.reduced(), R)
    if not hom_jacobi_holds(g):
        raise AssertionError("construction violates the twisted Jacobi identity")
    return g


# ---------------------------------------------------------------------------
# solvability / nilpotency of the bracket


@dataclass(frozen=True)
class SeriesReport:
    """Derived and lower central series of the bracket (the twist plays no
    role), with the first-vanishing indices."""

    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    abelian: bool
    solvable: bool
    solvable_length: Optional[int]
    nilpotent: bool
    nilpotent_class: Optional[int]

    @property
    def category(self) -> str:
        if self.abelian:
            return "abelian"
        if self.nilpotent:
            return "nilpotent"
        if self.solvable:
            return "solvable"
        return "non-solvable"


def _series_dims(c, first, lower: bool) -> tuple[int, ...]:
    """Dims of U_0 = the full space, U_1 = ``first`` = [g, g], and U_{k+1} =
    [U_k, U_k] (derived) or [U_k, g] (lower central), up to the first term
    that vanishes or stops shrinking.  Each U_k is held as the integer
    echelon rows of its spanning brackets; the bracket is skew, so a derived
    step brackets each unordered pair of U_k once."""
    full = identity(len(c)) if lower else None
    U, dims = first, [len(c)]
    while len(U) < dims[-1]:
        dims.append(len(U))
        if not U:
            break
        pairs = product(U, full) if lower else combinations(U, 2)
        U = fraction_free_rref([structure_product(c, u, w, 0) for u, w in pairs])[0]
    return tuple(dims)


def homlie_structure(g: HomLieAlgebra) -> SeriesReport:
    """Series dims start at the full space; length/class is the first index
    whose term vanishes (2 means [g,g] != 0 but the next term is zero).  The
    brackets are taken over the stored integer table, which spans the same
    terms, and each term's dim is the rank of its fraction-free echelon
    form.  Both series share their first term [g, g], the echelon form of
    the stored rows [e_i, e_j] = c[i][j] for i < j."""
    c = g.integral.c
    first = fraction_free_rref([c[i][j] for i, j in combinations(range(g.dim), 2)])[0]
    derived_dims = _series_dims(c, first, lower=False)
    lower_dims = _series_dims(c, first, lower=True)
    solvable = derived_dims[-1] == 0
    nilpotent = lower_dims[-1] == 0
    abelian = len(lower_dims) >= 2 and lower_dims[1] == 0 if g.dim else True
    return SeriesReport(
        derived_dims=derived_dims,
        lower_central_dims=lower_dims,
        abelian=abelian,
        solvable=solvable,
        solvable_length=len(derived_dims) - 1 if solvable else None,
        nilpotent=nilpotent,
        nilpotent_class=len(lower_dims) - 1 if nilpotent else None,
    )


# ---------------------------------------------------------------------------
# modules and twists


@dataclass(frozen=True)
class ModuleAction:
    """Action matrices rho[i] (column-vector convention): e_i . v = rho[i] v."""

    algebra_dim: int
    module_dim: int
    rho: tuple[Matrix, ...]

    @classmethod
    def from_matrices(cls, algebra_dim: int, matrices: Sequence) -> "ModuleAction":
        ms = tuple(mat(m) for m in matrices)
        if len(ms) != algebra_dim:
            raise ValueError("one action matrix per algebra basis vector required")
        mdim = len(ms[0]) if ms else 0
        for m in ms:
            if len(m) != mdim or any(len(r) != mdim for r in m):
                raise ValueError("action matrices must be square of equal size")
        return cls(algebra_dim, mdim, ms)

    def act_matrix(self, coords: Sequence[Fraction]) -> Matrix:
        """sum_i coords_i rho[i], in Fractions."""
        terms = [(ci, m) for ci, m in zip(coords, self.rho) if ci]
        n = self.module_dim
        return tuple(
            tuple(sum((ci * m[r][s] for ci, m in terms), Fraction(0)) for s in range(n))
            for r in range(n)
        )


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a b of square matrices: row r is b applied to row r of
    a, as ``apply_operator`` applies an operator's rows to a vector."""
    return tuple(apply_operator(b, row) for row in a)


@dataclass
class ModuleValidation:
    ok: bool
    failures: list  # (i, j, residual matrix)

    def __bool__(self) -> bool:
        return self.ok


def validate_module(L: OmegaAlgebra, V: ModuleAction) -> ModuleValidation:
    """Check the module identity [x,y].v = x.(y.v) - y.(x.v) + omega(x,y) v
    on all basis pairs, over the stored algebra (D c, D omega): both sides
    are taken at scale D, and each residual is divided back by D."""
    if V.algebra_dim != L.dim:
        raise ValueError("module and algebra dimensions differ")
    failures = []
    unit = identity(V.module_dim)
    D, c, omega = L.integral
    rho = V.rho
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = V.act_matrix(c[i][j])
            ij, ji = _mat_mul(rho[i], rho[j]), _mat_mul(rho[j], rho[i])
            rhs = tuple(
                tuple(D * (x - y) + omega[i][j] * e for x, y, e in zip(a, b, u))
                for a, b, u in zip(ij, ji, unit)
            )
            if lhs != rhs:
                residual = tuple(
                    tuple((x - y) / D for x, y in zip(a, b)) for a, b in zip(lhs, rhs)
                )
                failures.append((i, j, residual))
    return ModuleValidation(not failures, failures)


def annihilator(L: OmegaAlgebra, V: ModuleAction) -> Subspace:
    """{x in L : x . v = 0 for all v}: solve sum_i coords_i rho_i = 0."""
    if V.module_dim == 0:
        return Subspace.span(L.dim, identity(L.dim))
    rows = []
    for r in range(V.module_dim):
        for s in range(V.module_dim):
            rows.append(tuple(V.rho[i][r][s] for i in range(L.dim)))
    return Subspace.span(L.dim, nullspace(mat(rows)))


def module_twist(
    L: OmegaAlgebra, V: ModuleAction, R: OperatorMatrix
) -> ModuleAction:
    """Twisted action x * v := R(x) . v.

    Requires R isometric Rota-Baxter of weight 1 and R([R(L), L]) contained
    in the annihilator of V, checked pair by pair as R([R(e_i), e_j])
    acting by the zero matrix.  Both come from the kept weight-1
    evaluation of (L, R) (``algebras.kept_evaluation``):
    from its rows d R, [R(e_i), e_j] at scale D d and R of it at scale
    D d^2, and the action of R(e_i) as that of d R(e_i) divided by d.  The
    twisted action is validated before being returned.
    """
    ev = kept_evaluation(L, R, 1)
    if not (ev.flags.is_rb and ev.flags.is_isometric):
        raise PreconditionError("R is an isometric Rota-Baxter operator of weight 1")
    for i, products in enumerate(_image_products(L.integral.c, ev.rows)):
        for j, v in enumerate(products):
            w = apply_operator(ev.rows, v, 0)  # R([R e_i, e_j]) at scale D d^2
            if any(map(any, V.act_matrix(w))):
                raise PreconditionError(
                    "R([R(L), L]) inside the annihilator of the module",
                    f"R([R({L.basis_names[i]}), {L.basis_names[j]}]) acts nontrivially",
                )
    rho = tuple(tuple(tuple(x / ev.d for x in row) for row in V.act_matrix(r)) for r in ev.rows)
    out = ModuleAction(L.dim, V.module_dim, rho)
    check = validate_module(L, out)
    if not check.ok:
        raise AssertionError("twisted action violates the module identity")
    return out
