"""Structures built from Rota-Baxter operators: left-symmetric algebras,
deformed omega-Lie algebras, Hom-Lie algebras, and module twists.

Every construction starts from one pair (L, R) and makes one
``algebras.evaluate_operator`` pass over it, the code that also classifies
operators and generates the operator varieties.  That pass decides the
hypotheses: a failed one raises :class:`PreconditionError` naming it, since
a silently misused construction produces tables that violate the claimed
identities.  The same pass gives the tables to build from, over ints: an
algebra or operator is cleared once, when it is built, so with the algebra
stored at scale D and the operator at scale d, the pass gives the rows
d R, the bracket [x,y]_R at scale D d and the form omega(R(x),R(y)) at
scale D d^2.  `iterate_deform` makes one evaluation of (L_{i-1}, R^i) per
step, which both decides the step and feeds the private `_deform`;
`omega_deform` is its first step.

Every output is validated against its defining identities over ints (the
left-symmetric identity on the product [R(x),y] at scale D d, the twisted
Jacobi identity, and for L_R the defining identity on its stored integer
algebra).  L_R is built straight from the integer bracket and form, so
the next step evaluates it without clearing anything; the left-symmetric
and Hom-Lie tables are divided back to Fractions by D d.  The same integer
data decide "image(R) inside ker(omega)" (the stored rows of R times the
stored omega vanish) and the series of `homlie_structure` (ranks of
fraction-free echelon forms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .algebras import (
    IntegralAlgebra,
    OmegaAlgebra,
    OperatorMatrix,
    Subspace,
    apply_operator,
    evaluate_operator,
    integral_algebra,
    jacobi_defect,
    structure_product,
    validate_algebra,
)
from .linalg import (
    Matrix,
    Vector,
    divided,
    fraction_free_rref,
    identity,
    is_zero_matrix,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    nullspace,
    zeros,
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
    """Multiplication table m[i][j][k]: e_i * e_j = sum_k m[i][j][k] e_k."""

    dim: int
    basis_names: tuple[str, ...]
    m: tuple[tuple[Vector, ...], ...]


def _divided_table(table, m: int) -> tuple:
    return tuple(tuple(divided(v, m) for v in row) for row in table)


def _columns(c) -> list:
    """cols[j][a] = c[a][j]: [v, e_j] = sum_a v_a cols[j][a]."""
    n = len(c)
    return [tuple(c[a][j] for a in range(n)) for j in range(n)]


def _left_symmetric(m) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz) on basis triples of the integer table
    m; the identity is symmetric in x, y, so x < y suffices."""
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


def is_left_symmetric(A: LeftSymmetricAlgebra) -> bool:
    """(xy)z - x(yz) = (yx)z - y(xz) on all basis triples, over the table
    cleared of denominators (the identity is homogeneous)."""
    return _left_symmetric(integral_algebra(A.m).c)


def left_symmetric_from_rb(L: OmegaAlgebra, R: OperatorMatrix) -> LeftSymmetricAlgebra:
    """x*y := [R(x), y] is left-symmetric when R is a weight-0 Rota-Baxter
    operator whose image lies in ker(omega).  Both hypotheses are checked,
    the second as omega(R e_i, e_j) = 0 for all i, j: row i of the stored
    operator times the stored omega is zero.  The table is checked over
    ints before it is divided back."""
    A = L.integral
    ev = evaluate_operator(L, R)
    if not ev.flags.is_rb:
        raise PreconditionError("R is a Rota-Baxter operator of weight 0")
    for i, r in enumerate(ev.rows):  # row i is d R(e_i)
        if any(apply_operator(A.omega, r, 0)):  # omega(R e_i, e_j) over j
            raise PreconditionError(
                "image(R) inside ker(omega)",
                f"R({L.basis_names[i]}) is outside the kernel",
            )
    cols = _columns(A.c)
    # [R e_i, e_j] at scale D d
    table = tuple(tuple(apply_operator(col, r, 0) for col in cols) for r in ev.rows)
    if not _left_symmetric(table):
        raise AssertionError("construction produced a non-left-symmetric table")
    return LeftSymmetricAlgebra(L.dim, L.basis_names, _divided_table(table, A.scale * ev.d))


# ---------------------------------------------------------------------------
# deformed omega-Lie algebras


def omega_deform(L: OmegaAlgebra, R: OperatorMatrix) -> OmegaAlgebra:
    """The deformation L_R: bracket [x,y]_R = [R(x),y] + [x,R(y)] and form
    omega_R(x,y) = omega(R(x),R(y)); requires R compatible Rota-Baxter of
    weight 0.  The output is validated."""
    return iterate_deform(L, R, 1)[1]


def _deform(basis_names, ev) -> OmegaAlgebra:
    """L_R from the evaluation of (L, R), which has decided R already: the
    bracket, lifted from scale D d to D d^2, the form's scale, and the form
    make its integer algebra, which is still validated."""
    d = ev.d
    c = tuple(tuple(tuple(d * x for x in v) for v in row) for row in ev.bracket)
    LR = OmegaAlgebra.from_integral(
        basis_names, IntegralAlgebra(ev.D * d * d, c, tuple(map(tuple, ev.form)))
    )
    check = validate_algebra(LR)
    if not check.ok:
        raise AssertionError(f"deformation violates the defining identity: {check.failures[:3]}")
    return LR


def iterate_deform(L: OmegaAlgebra, R: OperatorMatrix, steps: int) -> list[OmegaAlgebra]:
    """Iterated deformation: L_0 = L and L_i deforms L_{i-1} by R^i.

    Each step makes one evaluation of (L_{i-1}, R^i).  It decides whether
    R^i is a compatible weight-0 Rota-Baxter operator on L_{i-1}, and its
    bracket and form build L_i, which is validated.  A failure at step 1
    (R on L) raises :class:`PreconditionError`; a later one halts the
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
        ev = evaluate_operator(produced[-1], power)
        if not (ev.flags.is_rb and ev.flags.is_compatible):
            if i == 1:
                raise PreconditionError("R is a compatible Rota-Baxter operator of weight 0")
            raise IterationHalted(i, produced)
        produced.append(_deform(L.basis_names, ev))
        del ev  # the next evaluation runs without this step's tables
    return produced


# ---------------------------------------------------------------------------
# Hom-Lie algebras


@dataclass(frozen=True)
class HomLieAlgebra:
    """Skew bracket table with a twist map; the twisted Jacobi identity
    [[x,y],t(z)] + [[y,z],t(x)] + [[z,x],t(y)] = 0 holds on basis triples."""

    dim: int
    basis_names: tuple[str, ...]
    c: tuple[tuple[Vector, ...], ...]
    twist: OperatorMatrix

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        return structure_product(self.c, u, v)


def _hom_jacobi_holds(c, twist_rows) -> bool:
    """The twisted Jacobi identity on basis triples, over ints."""
    n = len(c)
    no_form = ((0,) * n,) * n
    return not any(
        any(jacobi_defect(c, no_form, twist_rows, *ijk, 0))
        for ijk in combinations(range(n), 3)
    )


def hom_jacobi_holds(g: HomLieAlgebra) -> bool:
    """The twisted Jacobi identity, over the bracket cleared of denominators
    and the twist's stored rows (the identity is homogeneous in each)."""
    return _hom_jacobi_holds(integral_algebra(g.c).c, g.twist.rows)


def homlie_from_rb(L: OmegaAlgebra, R: OperatorMatrix) -> HomLieAlgebra:
    """Hom-Lie algebra with bracket [x,y]_R and twist R, for R a compatible
    weight-0 Rota-Baxter operator with R^2 = 0.  Hypotheses and the twisted
    Jacobi identity are both checked, the identity over ints before the
    bracket (at scale D d) is divided back."""
    ev = evaluate_operator(L, R)
    if not (ev.flags.is_rb and ev.flags.is_compatible):
        raise PreconditionError("R is a compatible Rota-Baxter operator of weight 0")
    if not ev.flags.is_square_zero:
        raise PreconditionError("R^2 = 0")
    if not _hom_jacobi_holds(ev.bracket, ev.rows):
        raise AssertionError("construction violates the twisted Jacobi identity")
    return HomLieAlgebra(L.dim, L.basis_names, _divided_table(ev.bracket, ev.D * ev.d), R)


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


def _series_dims(c, full, lower: bool) -> tuple[int, ...]:
    """Dims of U_0 = full and U_{k+1} = [U_k, U_k] (derived) or [U_k, full]
    (lower central), up to the first term that vanishes or stops shrinking.
    Each U_k is held as the integer echelon rows of its spanning brackets."""
    U, dims = full, [len(full)]
    while U:
        W = full if lower else U
        U = fraction_free_rref([structure_product(c, u, w, 0) for u in U for w in W])[0]
        if len(U) == dims[-1]:
            break
        dims.append(len(U))
    return tuple(dims)


def homlie_structure(g: HomLieAlgebra) -> SeriesReport:
    """Series dims start at the full space; length/class is the first index
    whose term vanishes (2 means [g,g] != 0 but the next term is zero).  The
    brackets are taken over the integer table cleared of denominators,
    which spans the same terms, and each term's dim is the rank of its
    fraction-free echelon form."""
    c = integral_algebra(g.c).c
    full = [tuple(int(a == b) for b in range(g.dim)) for a in range(g.dim)]
    derived_dims = _series_dims(c, full, lower=False)
    lower_dims = _series_dims(c, full, lower=True)
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
        out = zeros(self.module_dim)
        for ci, m in zip(coords, self.rho):
            if ci:
                out = mat_add(out, mat_scale(m, ci))
        return out


@dataclass
class ModuleValidation:
    ok: bool
    failures: list  # (i, j, residual matrix)

    def __bool__(self) -> bool:
        return self.ok


def validate_module(L: OmegaAlgebra, V: ModuleAction) -> ModuleValidation:
    """Check the module identity [x,y].v = x.(y.v) - y.(x.v) + omega(x,y) v
    on all basis pairs."""
    if V.algebra_dim != L.dim:
        raise ValueError("module and algebra dimensions differ")
    failures = []
    m = V.module_dim
    c, omega = L.c, L.omega
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = V.act_matrix(c[i][j])
            comm = mat_sub(mat_mul(V.rho[i], V.rho[j]), mat_mul(V.rho[j], V.rho[i]))
            rhs = mat_add(comm, mat_scale(identity(m), omega[i][j]))
            if lhs != rhs:
                failures.append((i, j, mat_sub(lhs, rhs)))
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
    acting by the zero matrix; the twisted action is validated before
    being returned.
    """
    flags = evaluate_operator(L, R, 1).flags
    if not (flags.is_rb and flags.is_isometric):
        raise PreconditionError("R is an isometric Rota-Baxter operator of weight 1")
    images = R.entries  # R(e_i) is row i
    basis = identity(L.dim)
    for i in range(L.dim):
        for j in range(L.dim):
            w = R.apply(L.bracket(images[i], basis[j]))
            if not is_zero_matrix(V.act_matrix(w)):
                raise PreconditionError(
                    "R([R(L), L]) inside the annihilator of the module",
                    f"R([R({L.basis_names[i]}), {L.basis_names[j]}]) acts nontrivially",
                )
    rho = tuple(V.act_matrix(images[i]) for i in range(L.dim))
    out = ModuleAction(L.dim, V.module_dim, rho)
    check = validate_module(L, out)
    if not check.ok:
        raise AssertionError("twisted action violates the module identity")
    return out
