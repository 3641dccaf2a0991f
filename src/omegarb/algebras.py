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
are written once, ring-generically, in :func:`operator_identities`: one
pass over all basis pairs, which fills the tables [R e_i, e_b] and
omega(R e_i, e_b) from the nonzero structure constants and form entries
and reads every pair from them.  ``solver.generate_equations`` reads the
variety's polynomials from it over the stored integer algebra and the
generic operator (x_ij), at scale 1.

Everything else reads them over ints.  An algebra or operator is cleared
once, when it is built, and keeps only its cleared form: an
:class:`OmegaAlgebra` holds (D, D c, D omega), an :class:`IntegralAlgebra`
with D the lcm of its denominators, and an :class:`OperatorMatrix` holds
(d, d R), with d the lcm of R's denominators.  Both are reduced to content
1, so equal rational data gives equal objects; ``c``, ``omega`` and
``entries`` are Fraction views of them, for output.  An algebra is cleared
in one place, :func:`integral_algebra`, which the constructor calls
(``OmegaAlgebra.from_brackets`` only fills the dense tables for it), and
integer data handed to ``OmegaAlgebra.from_integral`` is reduced in one,
``IntegralAlgebra.reduced``.
:func:`operator_identities` takes the operator's scale, so that the weight
term is w d and the isometry defect subtracts d^2 (D omega_ij).
:func:`evaluate_operator` reads that pass over the ints of (L, R): it lifts
d to clear the weight too, tests integer values for zero or equality,
never divides, and returns the flags (all that :func:`classify_map`
reports) together with the deformed bracket and the image form at their
integer scales.  :func:`kept_evaluation` is its one reader for
classification and the constructions (see ``constructions``): L keeps the
last evaluation made for it, with its operator and weight, outside its
fields, so classifying R and then building from it on the same L takes the
checks and the tables from one pass.
:func:`validate_algebra` takes the Jacobi defect with the form at scale
D^2, and divides each residual it reports back: the skew residuals by D,
the Jacobi residuals by D^2.  ``OperatorMatrix.then`` composes two
operators the same way: one integer product of the stored matrices, at
scale a b, reduced to content 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import neg, sub
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .linalg import (
    Matrix,
    Vector,
    cleared,
    divided,
    fraction_free_rref,
    identity,
    integral_rows,
    lcm_of_denominators,
    mat,
    nullspace,
    rref,
    vec,
    zeros,
)


class SingularOperatorError(ValueError):
    """Raised when an inverse of a singular operator is requested."""


# ---------------------------------------------------------------------------
# the operator identities, over any ring: coordinates are ints, Fractions or
# Polynomials (falsy exactly when zero); structure constants and the form are
# ints or Fractions; each function takes the ring's zero

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
    """The operator identities on one basis pair (e_i, e_j), i < j.  Each
    defect vanishes exactly when its identity holds on the pair.  With the
    algebra at scale D and the operator at scale s (see
    :func:`operator_identities`), the fields are the values for (c, omega,
    R) times D*s or D*s^2."""

    i: int
    j: int
    image_bracket: tuple  # [R e_i, R e_j]  (D s^2)
    deformed: tuple  # [e_i, e_j]_R = [R e_i, e_j] + [e_i, R e_j]  (D s)
    image_form: object  # omega(R e_i, R e_j)  (D s^2)
    rb: tuple  # [R e_i, R e_j] - R([e_i, e_j]_R + w [e_i, e_j])  (D s^2)
    compat: object  # omega(R e_i, e_j) + omega(e_i, R e_j)  (D s)
    isom: object  # omega(R e_i, R e_j) - omega(e_i, e_j)  (D s^2)
    image_of_bracket: tuple  # R([e_i, e_j])  (D s)


def operator_identities(A, rows, weight=0, zero=0, scale=1):
    """Rota-Baxter of weight w, compatibility and isometry on every basis
    pair (e_i, e_j), i < j in the order of ``combinations``, with rows[k] =
    scale * R(e_k) over the ring of ``zero``; A is an
    :class:`IntegralAlgebra` (scale D).

    One pass over the nonzero structure constants and form entries fills
    two flat tables, T[(i n + b) n + k] = [R e_i, e_b]_k and U[i n + b] =
    omega(R e_i, e_b), and every pair is read from them: the deformed
    bracket is T[i,j] - T[j,i], the image bracket sum_b r_jb T[i,b], the
    compatibility defect U[i,j] - U[j,i] and the image form
    sum_b r_jb U[i,b].  The weight term is w * scale, an integer whenever
    the scale clears w's denominator, and the isometry defect subtracts
    scale^2 * omega[i][j]."""
    c, omega = A.c, A.omega
    n = len(c)
    nn = n * n
    structure = [
        (a, b * n + k, x)
        for a, layer in enumerate(c)
        for b, v in enumerate(layer)
        if any(v)
        for k, x in enumerate(v)
        if x
    ]
    form = [(a, b, x) for a in range(n) for b, x in enumerate(omega[a]) if x]
    T = [zero] * (n * nn)
    U = [zero] * nn
    for i, r in enumerate(rows):
        if not any(r):
            continue
        at = i * nn
        for a, bk, x in structure:
            y = r[a]
            if y:
                T[at + bk] += y * x
        at = i * n
        for a, b, x in form:
            y = r[a]
            if y:
                U[at + b] += y * x
    ws = weight * scale if weight else 0
    if ws and ws.denominator == 1:
        ws = ws.numerator
    span = range(n)
    for i, j in combinations(span, 2):
        p, q = (i * n + j) * n, (j * n + i) * n
        deformed = tuple(map(sub, T[p : p + n], T[q : q + n]))
        image = [zero] * n
        image_form = zero
        for b, y in enumerate(rows[j]):
            if y:
                at = (i * n + b) * n
                for k in span:
                    t = T[at + k]
                    if t:
                        image[k] += y * t
                u = U[i * n + b]
                if u:
                    image_form += y * u
        image_of_bracket = apply_operator(rows, c[i][j], zero)
        inner = apply_operator(rows, deformed, zero)
        if ws:
            inner = tuple(a + r * ws if r else a for a, r in zip(inner, image_of_bracket))
        yield PairIdentities(
            i,
            j,
            tuple(image),
            deformed,
            image_form,
            tuple(map(sub, image, inner)),
            U[i * n + j] - U[j * n + i],
            image_form - scale * scale * omega[i][j],
            image_of_bracket,
        )


def jacobi_defect(c, omega, twist_rows, i: int, j: int, k: int, zero=_ZERO) -> tuple:
    """The cyclic sum over (a, b, d) of [[e_a, e_b], t(e_d)] - omega(e_a, e_b)
    t(e_d), with twist_rows[d] = t(e_d): the omega-Lie identity for t = id,
    the Hom-Lie identity for omega = 0.  Over cleared data c = D c', the
    form must be passed at scale D^2 and the defect has scale D^2."""
    out = [zero] * len(c)
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        t, w = twist_rows[d], omega[a][b]
        for m, x in enumerate(structure_product(c, c[a][b], t, zero)):
            if w and t[m]:
                x -= w * t[m]
            if x:
                out[m] += x
    return tuple(out)


# ---------------------------------------------------------------------------
# the stored form: the same data cleared of denominators


class IntegralAlgebra(NamedTuple):
    """Structure constants and form cleared of denominators: c = scale * c'
    and omega = scale * omega' in ints, for the rational data (c', omega')."""

    scale: int
    c: tuple
    omega: tuple

    def reduced(self) -> "IntegralAlgebra":
        """The same rational data divided by the common factor of the scale
        and every entry: content 1, so equal rational data gives equal
        tables."""
        g = _common_factor(
            self.scale,
            [x for layer in self.c for row in layer for x in row]
            + [x for row in self.omega for x in row],
        )
        if g == 1:
            return self
        return IntegralAlgebra(
            self.scale // g,
            tuple(tuple(tuple(x // g for x in row) for row in layer) for layer in self.c),
            tuple(tuple(x // g for x in row) for row in self.omega),
        )

    def c_view(self) -> tuple:
        """The table c / scale in Fractions, rebuilt on each call: the
        read-only view the stored types give out."""
        return tuple(tuple(divided(row, self.scale) for row in layer) for layer in self.c)


def integral_algebra(c, omega=()) -> IntegralAlgebra:
    """(D, D*c, D*omega) with D the lcm of every denominator in c and omega;
    c is a table c[i][j][k], omega a matrix (or empty), their entries ints
    or Fractions: any other type, a float among them, raises TypeError.
    The lcm leaves no common factor: for each prime of D, some entry's
    denominator carries its full power, and that entry's cleared numerator
    is prime to it.  This is the one place an algebra is cleared."""
    rows = [row for layer in c for row in layer] + list(omega)
    for row in rows:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{x!r} is not an int or a Fraction; use exact rationals")
    D = lcm_of_denominators(rows)
    return IntegralAlgebra(
        D,
        tuple(tuple(cleared(row, D) for row in layer) for layer in c),
        tuple(cleared(row, D) for row in omega),
    )


def _common_factor(scale: int, entries) -> int:
    """The gcd of a positive scale and the integer entries, which the
    cleared data is divided by."""
    if scale <= 0:
        raise ValueError(f"cleared data needs a positive scale, got {scale}")
    return gcd(scale, *entries)


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True, init=False)
class OmegaAlgebra:
    """Structure constants c[i][j][k] with [e_i,e_j] = sum_k c[i][j][k] e_k,
    plus the skew form omega[i][j] = omega(e_i, e_j).

    Stored cleared of denominators as ``integral`` = (D, D c, D omega), D
    the lcm of the denominators; ``c`` and ``omega`` are Fraction views of
    it, rebuilt on each access."""

    dim: int
    basis_names: tuple[str, ...]
    integral: IntegralAlgebra
    params: Optional[tuple[tuple[str, Fraction], ...]] = None

    def __init__(self, dim, basis_names, c, omega, params=None):
        self._store(dim, basis_names, integral_algebra(c, omega), params)

    def _store(self, dim, basis_names, integral, params) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", tuple(basis_names))
        object.__setattr__(self, "integral", integral)
        object.__setattr__(self, "params", params)

    @classmethod
    def from_integral(
        cls, basis_names: Sequence[str], A: IntegralAlgebra, params=None
    ) -> "OmegaAlgebra":
        """The algebra with structure constants A.c / A.scale and form
        A.omega / A.scale, its cleared data reduced to content 1."""
        L = cls.__new__(cls)
        L._store(len(A.c), basis_names, A.reduced(), params)
        return L

    @classmethod
    def from_brackets(
        cls,
        basis_names: Sequence[str],
        brackets: Mapping[tuple[int, int], Sequence],
        omega: Mapping[tuple[int, int], object],
        params: Optional[Mapping[str, Fraction]] = None,
    ) -> "OmegaAlgebra":
        """Build from the nonzero relations [e_i,e_j] and omega values, ints
        or Fractions; skew-symmetry fills in the rest, and a later relation
        on a pair overrides an earlier one.  The dense tables are cleared
        by the constructor, :func:`integral_algebra`."""
        n = len(basis_names)
        c = [[(0,) * n] * n for _ in range(n)]
        for (i, j), row in brackets.items():
            if i == j:
                raise ValueError("bracket [e_i,e_i] must be zero")
            if len(row) != n:
                raise ValueError(f"bracket [e_{i},e_{j}] needs {n} coordinates, got {len(row)}")
            c[i][j], c[j][i] = tuple(row), tuple(-x for x in row)
        om = [[0] * n for _ in range(n)]
        for (i, j), q in omega.items():
            if i == j and q != 0:
                raise ValueError("omega(e_i,e_i) must be zero")
            om[i][j], om[j][i] = q, -q
        return cls(n, basis_names, c, om, tuple(sorted(params.items())) if params else None)

    @property
    def c(self) -> tuple[tuple[Vector, ...], ...]:
        return self.integral.c_view()

    @property
    def omega(self) -> Matrix:
        D, _, omega = self.integral
        return tuple(divided(row, D) for row in omega)

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
        D, c, _ = self.integral
        return tuple(x / D for x in structure_product(c, u, v))

    def omega_value(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        D, _, omega = self.integral
        return form_value(omega, u, v) / D

    def basis_vector(self, i: int) -> Vector:
        return tuple(Fraction(1 if k == i else 0) for k in range(self.dim))

    def is_lie(self) -> bool:
        return not any(map(any, self.integral.omega))


@dataclass(frozen=True, init=False)
class OperatorMatrix:
    """Linear operator in the row convention R(e_i) = sum_j entries[i][j] e_j.

    Stored cleared of denominators: ``rows`` is d R in ints, d the lcm of
    the denominators; ``entries`` is the Fraction view, rebuilt on each
    access."""

    d: int
    rows: tuple

    def __init__(self, entries):
        d, rows = integral_rows(mat(entries))
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("operator matrix must be square")
        self._store(d, rows)

    def _store(self, d, rows) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_integral(cls, d: int, rows) -> "OperatorMatrix":
        """The operator rows / d, its cleared data divided by their common
        factor."""
        g = _common_factor(d, [x for r in rows for x in r])
        R = cls.__new__(cls)
        R._store(d // g, tuple(tuple(x // g for x in r) for r in rows))
        return R

    @property
    def entries(self) -> Matrix:
        return tuple(divided(r, self.d) for r in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

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
        return tuple(x / self.d for x in apply_operator(self.rows, v))

    def _same_dim(self, other: "OperatorMatrix") -> None:
        if other.dim != self.dim:
            raise ValueError(f"operators of dimensions {self.dim} and {other.dim}")

    def then(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Composition 'self then other' (x -> other(self(x))): the integer
        product (a A)(b B) of the stored matrices, at scale a b."""
        self._same_dim(other)
        product = tuple(apply_operator(other.rows, r, 0) for r in self.rows)
        return OperatorMatrix.from_integral(self.d * other.d, product)

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
        return OperatorMatrix.from_integral(
            self.d * q.denominator, tuple(tuple(x * q.numerator for x in r) for r in self.rows)
        )

    def add(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """A/a + B/b as ((l/a) A + (l/b) B)/l, l = lcm(a, b)."""
        self._same_dim(other)
        l = lcm(self.d, other.d)
        a, b = l // self.d, l // other.d
        return OperatorMatrix.from_integral(
            l,
            tuple(tuple(a * x + b * y for x, y in zip(r, s)) for r, s in zip(self.rows, other.rows)),
        )

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def is_invertible(self) -> bool:
        """Full rank: the integer rows d R have a pivot in every column."""
        return len(fraction_free_rref(self.rows)[1]) == self.dim

    def inverse_operator(self) -> "OperatorMatrix":
        """(A/d)^-1 = d A^-1: the right half of p times the reduced form of
        [A | 1] is p A^-1, p the last pivot, so the inverse is that half
        times d over p."""
        n = self.dim
        X, pivots, p = fraction_free_rref([r + e for r, e in zip(self.rows, identity(n))])
        if pivots[:n] != list(range(n)):
            raise SingularOperatorError("operator is singular")
        sign = 1 if p > 0 else -1
        return OperatorMatrix.from_integral(
            sign * p, tuple(tuple(sign * self.d * x for x in row[n:]) for row in X)
        )


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


def validate_algebra(L) -> AlgebraValidation:
    """Check skew-symmetry of the bracket and of omega, and the twisted
    Jacobi identity on all basis triples i<j<k (multilinearity plus
    skew-symmetry make this exhaustive).  Failures are reported, not thrown.

    The checks run over the stored ints (c = D c', omega = D omega'): the
    Jacobi defect is taken with the form at scale D^2, and each residual is
    divided back, by D for the skew checks and by D^2 for the Jacobi
    identity."""
    D, c, omega = L.integral
    failures = []
    n = len(c)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if c[i][j][k] != -c[j][i][k]:
                    residual = Fraction(c[i][j][k] + c[j][i][k], D)
                    failures.append(("bracket-skew", (i, j, k), residual))
            if omega[i][j] != -omega[j][i]:
                failures.append(("omega-skew", (i, j), Fraction(omega[i][j] + omega[j][i], D)))
    if not failures:
        basis = identity(n)
        form = tuple(tuple(D * x for x in row) for row in omega)
        for i, j, k in combinations(range(n), 3):
            residual = jacobi_defect(c, form, basis, i, j, k, 0)
            if any(residual):
                failures.append(("jacobi", (i, j, k), tuple(Fraction(x, D * D) for x in residual)))
    return AlgebraValidation(not failures, failures)


def kernel_omega(L: OmegaAlgebra) -> Subspace:
    """{x : omega(x, y) = 0 for all y}: the null space of the omega matrix
    (omega is skew, so left and right kernels agree), read off the stored
    D omega."""
    return Subspace.span(L.dim, nullspace(L.integral.omega))


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


class OperatorEvaluation(NamedTuple):
    """One pass of the operator identities over (L, R): the flags, and the
    tables the constructions build from.  With L at scale D and R at scale
    d, ``rows[i]`` is d R(e_i), ``bracket[i][j]`` is [e_i, e_j]_R at scale
    D d, and ``form[i][j]`` is omega(R e_i, R e_j) at scale D d^2; both
    tables are skew, and tuples, so an evaluation can be shared."""

    flags: MapClassification
    D: int
    d: int
    rows: tuple
    bracket: tuple
    form: tuple


def evaluate_operator(L: OmegaAlgebra, R: OperatorMatrix, weight=0) -> OperatorEvaluation:
    """Exact checks of all operator identities on basis pairs, and the
    deformed bracket and image form they compute on the way.

    Rota-Baxter of weight w: [R(x),R(y)] = R([R(x),y] + [x,R(y)] + w [x,y]);
    compatible: omega(R(x),y) + omega(x,R(y)) = 0;
    isometric: omega(R(x),R(y)) = omega(x,y).
    Derivation and automorphism use the bracket alone; bilinearity reduces
    every identity to basis pairs, all read from one
    :func:`operator_identities` pass.  Every check runs over the stored
    ints, the algebra at scale D and the operator at scale d, lifted to the
    lcm of d and the weight's denominator when d does not clear it: the
    derivation compares R(c_ij) with the deformed bracket, both at scale
    D d; the automorphism compares d R(c_ij) with the image bracket, both at
    scale D d^2; invertibility is a pivot in every column of d R.  A weight
    that is not an int or a Fraction, a float among them, raises TypeError.
    """
    w = _exact_weight(weight)
    A = L.integral  # (D, D c, D omega)
    n = len(A.c)
    if R.dim != n:
        raise ValueError("operator and algebra dimensions differ")
    d, rows = R.d, R.rows  # rows[i] = d R(e_i)
    if d % w.denominator:
        lift = lcm(d, w.denominator) // d
        d, rows = d * lift, tuple(tuple(lift * x for x in r) for r in rows)
    bracket = [(0,) * n] * (n * n)  # bracket[i n + j] = [e_i, e_j]_R
    form = [0] * (n * n)
    is_rb = is_compat = is_isom = is_der = is_auto_bracket = True
    for ids in operator_identities(A, rows, w, 0, d):
        i, j = ids.i, ids.j
        bracket[i * n + j], bracket[j * n + i] = ids.deformed, tuple(map(neg, ids.deformed))
        form[i * n + j], form[j * n + i] = ids.image_form, -ids.image_form
        is_rb = is_rb and not any(ids.rb)
        is_compat = is_compat and not ids.compat
        is_isom = is_isom and not ids.isom
        r_cij = ids.image_of_bracket  # D d R(c_ij)
        is_der = is_der and r_cij == ids.deformed
        is_auto_bracket = is_auto_bracket and tuple(d * x for x in r_cij) == ids.image_bracket
    invertible = R.is_invertible()
    flags = MapClassification(
        weight=w,
        is_rb=is_rb,
        is_compatible=is_compat,
        is_isometric=is_isom,
        is_derivation=is_der,
        is_automorphism=is_auto_bracket and invertible,
        is_square_zero=not any(map(any, operator_square(rows, 0))),
        is_invertible=invertible,
    )
    return OperatorEvaluation(
        flags,
        A.scale,
        d,
        rows,
        tuple(tuple(bracket[i * n : i * n + n]) for i in range(n)),
        tuple(tuple(form[i * n : i * n + n]) for i in range(n)),
    )


def _exact_weight(weight) -> Fraction:
    """The weight as a Fraction: any type but an int or a Fraction, a float
    among them, raises TypeError."""
    if not isinstance(weight, (int, Fraction)):
        raise TypeError(f"weight {weight!r} is not an int or a Fraction; use exact rationals")
    return Fraction(weight)


def kept_evaluation(L: OmegaAlgebra, R: OperatorMatrix, weight=0) -> OperatorEvaluation:
    """The evaluation of (L, R) at weight w that classification and the
    constructions share.  L keeps the last one made for it, with its
    operator and weight, in an attribute that is not a field, so it is
    outside L's equality, hash and repr and goes when L goes; a call with
    an operator equal to that one (by value) and an equal weight reads it,
    any other evaluates and replaces it.  The weight's type is checked
    before the lookup, so a float raises TypeError even where it equals the
    kept weight.  The evaluation's tables are tuples, so a reader cannot
    change what the next one reads."""
    w = _exact_weight(weight)
    kept = getattr(L, "_kept_evaluation", None)
    if kept is not None and kept[1] == w and kept[0] == R:
        return kept[2]
    ev = evaluate_operator(L, R, w)
    object.__setattr__(L, "_kept_evaluation", (R, w, ev))
    return ev


def classify_map(L: OmegaAlgebra, R: OperatorMatrix, weight=0) -> MapClassification:
    """The flags of the evaluation of (L, R) at the weight, read through
    :func:`kept_evaluation`."""
    return kept_evaluation(L, R, weight).flags


def inverse_correspondence(L: OmegaAlgebra, R: OperatorMatrix) -> OperatorMatrix:
    """The bijection between invertible weight-0 Rota-Baxter operators and
    invertible derivations: R maps to its inverse."""
    return R.inverse_operator()
