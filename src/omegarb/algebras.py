"""omega-Lie algebras as exact data, and classification of linear operators.

An omega-Lie algebra is a vector space with a skew-symmetric bracket and a
skew-symmetric bilinear form omega satisfying, for all x, y, z:

    [[x,y],z] + [[y,z],x] + [[z,x],y] = omega(x,y) z + omega(y,z) x + omega(z,x) y

With omega identically zero this is exactly the Jacobi identity.  Operators
are n x n rational matrices acting by R(e_i) = sum_j entries[i][j] e_j (rows
index input basis vectors); all tables transcribed from the literature use
this convention.

The operator identities (Rota-Baxter of weight w, omega-compatibility,
isometry, R^2 = 0) and the deformed bracket [x,y]_R = [R(x),y] + [x,R(y)]
are written once, ring-generically, in :func:`pair_identities` and the
product, form and operator helpers it uses.  :func:`classify_map` reads its
flags from them over the rationals; ``solver.generate_equations`` reads the
variety's polynomials from them over the generic operator (x_ij); the
constructions read the deformed bracket and omega(R.,R.) from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .linalg import (
    Matrix,
    Vector,
    det,
    identity,
    inverse,
    is_zero_matrix,
    mat,
    mat_add,
    mat_mul,
    mat_scale,
    nullspace,
    rref,
    vec,
    zeros,
)


class SingularOperatorError(ValueError):
    """Raised when an inverse of a singular operator is requested."""


# ---------------------------------------------------------------------------
# the operator identities, over any ring: coordinates are Fractions or
# Polynomials (falsy exactly when zero); structure constants, the form and
# basis vectors stay rational; each function takes the ring's zero

_ZERO = Fraction(0)


def structure_product(c, u, v, zero=_ZERO) -> tuple:
    """The bilinear product sum_ij u_i v_j c[i][j] of structure constants
    c[i][j][k], visiting only nonzero coordinates and constants."""
    n = len(c)
    out = [zero] * n
    support = [(j, y) for j, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if not x:
            continue
        ci = c[i]
        for j, y in support:
            f = None
            for k, ck in enumerate(ci[j]):
                if ck:
                    if f is None:
                        f = x * y
                    out[k] += f * ck
    return tuple(out)


def form_value(omega, u, v, zero=_ZERO):
    """The bilinear form sum_ij u_i v_j omega[i][j]."""
    total = zero
    support = [(j, y) for j, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if not x:
            continue
        om = omega[i]
        for j, y in support:
            if om[j]:
                total += x * y * om[j]
    return total


def apply_operator(rows, v, zero=_ZERO) -> tuple:
    """R(v) = sum_i v_i R(e_i), where rows[i] = R(e_i)."""
    out = [zero] * len(rows)
    for x, row in zip(v, rows):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return tuple(out)


def operator_square(rows, zero=_ZERO) -> tuple:
    """The rows R(R(e_i)) of R^2."""
    return tuple(apply_operator(rows, r, zero) for r in rows)


class PairIdentities(NamedTuple):
    """The operator identities on one basis pair (e_i, e_j).  Each defect
    vanishes exactly when its identity holds on the pair."""

    image_bracket: tuple  # [R e_i, R e_j]
    deformed: tuple  # [e_i, e_j]_R = [R e_i, e_j] + [e_i, R e_j]
    image_form: object  # omega(R e_i, R e_j)
    rb: tuple  # [R e_i, R e_j] - R([e_i, e_j]_R + w [e_i, e_j])
    compat: object  # omega(R e_i, e_j) + omega(e_i, R e_j)
    isom: object  # omega(R e_i, R e_j) - omega(e_i, e_j)


def pair_identities(
    L: "OmegaAlgebra", rows, i: int, j: int, weight=_ZERO, zero=_ZERO
) -> PairIdentities:
    """Rota-Baxter of weight w, compatibility and isometry on (e_i, e_j),
    with rows[k] = R(e_k) over the ring of ``zero``."""
    c, omega = L.c, L.omega
    e_i, e_j = L.basis_vector(i), L.basis_vector(j)
    r_i, r_j = rows[i], rows[j]
    image_bracket = structure_product(c, r_i, r_j, zero)
    left, right = structure_product(c, r_i, e_j, zero), structure_product(c, e_i, r_j, zero)
    deformed = tuple(a + b for a, b in zip(left, right))
    inner = deformed
    if weight:
        inner = tuple(a + weight * ck if ck else a for a, ck in zip(deformed, c[i][j]))
    image_form = form_value(omega, r_i, r_j, zero)
    return PairIdentities(
        image_bracket,
        deformed,
        image_form,
        tuple(a - b for a, b in zip(image_bracket, apply_operator(rows, inner, zero))),
        form_value(omega, r_i, e_j, zero) + form_value(omega, e_i, r_j, zero),
        image_form - omega[i][j],
    )


def jacobi_defect(c, omega, twist_rows, i: int, j: int, k: int) -> tuple:
    """The cyclic sum over (a, b, d) of [[e_a, e_b], t(e_d)] - omega(e_a, e_b)
    t(e_d), with twist_rows[d] = t(e_d): the omega-Lie identity for t = id,
    the Hom-Lie identity for omega = 0."""
    out = [_ZERO] * len(c)
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        t, w = twist_rows[d], omega[a][b]
        for m, x in enumerate(structure_product(c, c[a][b], t)):
            if w and t[m]:
                x -= w * t[m]
            if x:
                out[m] += x
    return tuple(out)


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True)
class OmegaAlgebra:
    """Structure constants c[i][j][k] with [e_i,e_j] = sum_k c[i][j][k] e_k,
    plus the skew form omega[i][j] = omega(e_i, e_j)."""

    dim: int
    basis_names: tuple[str, ...]
    c: tuple[tuple[Vector, ...], ...]
    omega: Matrix
    params: Optional[tuple[tuple[str, Fraction], ...]] = None

    @classmethod
    def from_brackets(
        cls,
        basis_names: Sequence[str],
        brackets: Mapping[tuple[int, int], Sequence],
        omega: Mapping[tuple[int, int], object],
        params: Optional[Mapping[str, Fraction]] = None,
    ) -> "OmegaAlgebra":
        """Build from the nonzero relations [e_i,e_j] (i<j) and omega values;
        skew-symmetry fills in the rest."""
        n = len(basis_names)
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), coeffs in brackets.items():
            if i == j:
                raise ValueError("bracket [e_i,e_i] must be zero")
            row = vec(coeffs)
            for k in range(n):
                c[i][j][k] = row[k]
                c[j][i][k] = -row[k]
        om = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), val in omega.items():
            if i == j and Fraction(val) != 0:
                raise ValueError("omega(e_i,e_i) must be zero")
            om[i][j] = Fraction(val)
            om[j][i] = -Fraction(val)
        return cls(
            n,
            tuple(basis_names),
            tuple(tuple(tuple(r) for r in layer) for layer in c),
            tuple(tuple(r) for r in om),
            tuple(sorted(params.items())) if params else None,
        )

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        return structure_product(self.c, u, v)

    def omega_value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        return form_value(self.omega, u, v)

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def is_lie(self) -> bool:
        return is_zero_matrix(self.omega)


@dataclass(frozen=True)
class OperatorMatrix:
    """Linear operator in the row convention R(e_i) = sum_j entries[i][j] e_j."""

    entries: Matrix

    def __post_init__(self):
        object.__setattr__(self, "entries", mat(self.entries))
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ValueError("operator matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "OperatorMatrix":
        return cls(zeros(n))

    @classmethod
    def identity(cls, n: int) -> "OperatorMatrix":
        return cls(identity(n))

    def apply(self, v: Sequence[Fraction]) -> Vector:
        """R(v) = sum_i v_i R(e_i), skipping zero coordinates and entries."""
        n = self.dim
        if len(v) != n:
            raise ValueError(f"vector of length {len(v)} for a {n}x{n} operator")
        return apply_operator(self.entries, v)

    def then(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composition 'self then other' (x -> other(self(x)))."""
        return OperatorMatrix(mat_mul(self.entries, other.entries))

    def power(self, k: int) -> "OperatorMatrix":
        if k < 0:
            raise ValueError("operator power must be >= 0")
        if k == 0:
            return OperatorMatrix.identity(self.dim)
        out = self
        for _ in range(k - 1):
            out = out.then(self)
        return out

    def scale(self, q) -> "OperatorMatrix":
        return OperatorMatrix(mat_scale(self.entries, q))

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(mat_add(self.entries, other.entries))

    def is_zero(self) -> bool:
        return is_zero_matrix(self.entries)

    def is_invertible(self) -> bool:
        return det(self.entries) != 0

    def inverse_operator(self) -> "OperatorMatrix":
        inv = inverse(self.entries)
        if inv is None:
            raise SingularOperatorError("operator is singular")
        return OperatorMatrix(inv)


@dataclass(frozen=True)
class Subspace:
    """Subspace given by a reduced-echelon basis (canonical per subspace)."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [r for r in map(vec, vectors) if any(r)]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError(f"span of vectors whose length is not {ambient_dim}")
        if not rows:
            return cls(ambient_dim, ())
        red, pivots = rref(rows)
        return cls(ambient_dim, tuple(red[: len(pivots)]))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return Subspace.span(self.ambient_dim, list(self.basis) + [v]).dim == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace.span(self.ambient_dim, list(self.basis) + list(other.basis))

    def is_zero(self) -> bool:
        return not self.basis


# ---------------------------------------------------------------------------
# validation


@dataclass
class AlgebraValidation:
    ok: bool
    failures: list  # (kind, indices, residual) triples

    def __bool__(self) -> bool:
        return self.ok


def validate_algebra(L: OmegaAlgebra) -> AlgebraValidation:
    """Check skew-symmetry of the bracket and of omega, and the twisted
    Jacobi identity on all basis triples i<j<k (multilinearity plus
    skew-symmetry make this exhaustive).  Failures are reported, not thrown."""
    failures = []
    n = L.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if L.c[i][j][k] != -L.c[j][i][k]:
                    failures.append(("bracket-skew", (i, j, k), L.c[i][j][k] + L.c[j][i][k]))
            if L.omega[i][j] != -L.omega[j][i]:
                failures.append(("omega-skew", (i, j), L.omega[i][j] + L.omega[j][i]))
    if not failures:
        basis = identity(n)
        for i, j, k in combinations(range(n), 3):
            residual = jacobi_defect(L.c, L.omega, basis, i, j, k)
            if any(residual):
                failures.append(("jacobi", (i, j, k), residual))
    return AlgebraValidation(not failures, failures)


def kernel_omega(L: OmegaAlgebra) -> Subspace:
    """{x : omega(x, y) = 0 for all y}: the null space of the omega matrix
    (omega is skew, so left and right kernels agree)."""
    return Subspace.span(L.dim, nullspace(L.omega))


# ---------------------------------------------------------------------------
# operator classification


@dataclass(frozen=True)
class MapClassification:
    weight: Fraction
    is_rb: bool
    is_compatible: bool
    is_isometric: bool
    is_derivation: bool
    is_automorphism: bool
    is_square_zero: bool
    is_invertible: bool


def classify_map(L: OmegaAlgebra, R: OperatorMatrix, weight=0) -> MapClassification:
    """Exact checks of all operator identities on basis pairs.

    Rota-Baxter of weight w: [R(x),R(y)] = R([R(x),y] + [x,R(y)] + w [x,y]);
    compatible: omega(R(x),y) + omega(x,R(y)) = 0;
    isometric: omega(R(x),R(y)) = omega(x,y).
    Derivation and automorphism use the bracket alone; bilinearity reduces
    every identity to basis pairs.
    """
    if R.dim != L.dim:
        raise ValueError("operator and algebra dimensions differ")
    w = Fraction(weight)
    rows = R.entries  # R(e_i) is row i
    is_rb = is_compat = is_isom = is_der = is_auto_bracket = True
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            ids = pair_identities(L, rows, i, j, w)
            is_rb = is_rb and not any(ids.rb)
            is_compat = is_compat and not ids.compat
            is_isom = is_isom and not ids.isom
            if is_der or is_auto_bracket:
                r_cij = apply_operator(rows, L.c[i][j])
                is_der = is_der and r_cij == ids.deformed
                is_auto_bracket = is_auto_bracket and r_cij == ids.image_bracket
    invertible = R.is_invertible()
    return MapClassification(
        weight=w,
        is_rb=is_rb,
        is_compatible=is_compat,
        is_isometric=is_isom,
        is_derivation=is_der,
        is_automorphism=is_auto_bracket and invertible,
        is_square_zero=not any(map(any, operator_square(rows))),
        is_invertible=invertible,
    )


def inverse_correspondence(L: OmegaAlgebra, R: OperatorMatrix) -> OperatorMatrix:
    """The bijection between invertible weight-0 Rota-Baxter operators and
    invertible derivations: R maps to its inverse."""
    return R.inverse_operator()
