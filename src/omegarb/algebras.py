"""omega-Lie algebras as exact data, and classification of linear operators.

An omega-Lie algebra is a vector space with a skew-symmetric bracket and a
skew-symmetric bilinear form omega satisfying, for all x, y, z:

    [[x,y],z] + [[y,z],x] + [[z,x],y] = omega(x,y) z + omega(y,z) x + omega(z,x) y

With omega identically zero this is exactly the Jacobi identity.  Operators
are n x n rational matrices acting by R(e_i) = sum_j entries[i][j] e_j (rows
index input basis vectors); all tables transcribed from the literature use
this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .linalg import (
    Matrix,
    Vector,
    det,
    identity,
    inverse,
    is_zero_matrix,
    mat,
    mat_mul,
    nullspace,
    rref,
    vec,
    zeros,
)


class SingularOperatorError(ValueError):
    """Raised when an inverse of a singular operator is requested."""


# ---------------------------------------------------------------------------
# core types


def structure_product(
    c: Sequence[Sequence[Sequence[Fraction]]], u: Sequence[Fraction], v: Sequence[Fraction]
) -> Vector:
    """The bilinear product sum_ij u_i v_j c[i][j] of structure constants
    c[i][j][k], visiting only nonzero coordinates and constants."""
    n = len(c)
    out = [Fraction(0)] * n
    support = [(j, v[j]) for j in range(n) if v[j]]
    for i in range(n):
        x = u[i]
        if not x:
            continue
        ci = c[i]
        for j, y in support:
            f = x * y
            for k, ck in enumerate(ci[j]):
                if ck:
                    out[k] += f * ck
    return tuple(out)


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
        total = Fraction(0)
        support = [(j, v[j]) for j in range(self.dim) if v[j]]
        for i in range(self.dim):
            x = u[i]
            if not x:
                continue
            om = self.omega[i]
            for j, y in support:
                if om[j]:
                    total += x * y * om[j]
        return total

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
        out = [Fraction(0)] * n
        for x, row in zip(v, self.entries):
            if x:
                for j, y in enumerate(row):
                    if y:
                        out[j] += x * y
        return tuple(out)

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
        q = Fraction(q)
        return OperatorMatrix(tuple(tuple(q * x for x in r) for r in self.entries))

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(
            tuple(
                tuple(x + y for x, y in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        )

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
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [[e_a,e_b],e_c] - omega(e_a,e_b) e_c, summed cyclically
                    residual = [Fraction(0)] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for t, x in enumerate(L.bracket(L.c[a][b], basis[c])):
                            if x:
                                residual[t] += x
                        if L.omega[a][b]:
                            residual[c] -= L.omega[a][b]
                    if any(residual):
                        failures.append(("jacobi", (i, j, k), tuple(residual)))
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
    n = L.dim
    basis = identity(n)
    images = R.entries  # R(e_i) is row i
    is_rb = True
    is_compat = True
    is_isom = True
    is_der = True
    is_auto_bracket = True
    for i in range(n):
        ei, ri = basis[i], images[i]
        for j in range(i + 1, n):
            ej, rj = basis[j], images[j]
            c_ij = L.c[i][j]
            lhs = L.bracket(ri, rj)
            cross = tuple(a + b for a, b in zip(L.bracket(ri, ej), L.bracket(ei, rj)))
            if is_rb:
                inner = tuple(a + w * c for a, c in zip(cross, c_ij)) if w else cross
                is_rb = lhs == R.apply(inner)
            if is_compat:
                is_compat = L.omega_value(ri, ej) + L.omega_value(ei, rj) == 0
            if is_isom:
                is_isom = L.omega_value(ri, rj) == L.omega[i][j]
            if is_der or is_auto_bracket:
                r_cij = R.apply(c_ij)
                is_der = is_der and r_cij == cross
                is_auto_bracket = is_auto_bracket and r_cij == lhs
    invertible = R.is_invertible()
    return MapClassification(
        weight=w,
        is_rb=is_rb,
        is_compatible=is_compat,
        is_isometric=is_isom,
        is_derivation=is_der,
        is_automorphism=is_auto_bracket and invertible,
        is_square_zero=is_zero_matrix(mat_mul(R.entries, R.entries)),
        is_invertible=invertible,
    )


def inverse_correspondence(L: OmegaAlgebra, R: OperatorMatrix) -> OperatorMatrix:
    """The bijection between invertible weight-0 Rota-Baxter operators and
    invertible derivations: R maps to its inverse."""
    return R.inverse_operator()
