"""Dense exact-rational linear algebra: matrices are tuples of Fraction rows.

``rref``, ``nullspace`` and ``det`` clear the denominators, run the one
fraction-free elimination :func:`fraction_free_rref` over ints, and divide
only their outputs back to Fractions.  Matrix products go through
``algebras.apply_operator`` and inverses through
``OperatorMatrix.inverse_operator``, which reads the right half of
``fraction_free_rref([A | I])``."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable

from .poly import parse_rational

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def _exact(v) -> Fraction:
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"{v!r} is not an int, a Fraction or p/q text; use exact rationals")


def vec(values: Iterable) -> Vector:
    """The values as Fractions: a Fraction is immutable and kept as given,
    an int or a rational literal (``poly.parse_rational``, such as ``"1/2"``)
    is converted.  Any other type, a float among them, raises TypeError."""
    return tuple(v if isinstance(v, Fraction) else _exact(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def identity(n: int) -> tuple:
    """The n x n identity in ints; ``mat`` or ``vec`` turns it into Fractions."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def fraction_free_rref(rows) -> tuple[list[list[int]], list[int], int]:
    """``(X, pivots, d)`` for an integer matrix: X is the nonzero rows of d
    times its reduced row echelon form, d the last pivot.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968), applied
    above each pivot as well as below, so forward elimination and
    back-substitution are one pass.  Every entry stays a minor of the input,
    so every division is exact.  A row swap negates the row it moves down,
    which keeps the determinant: for square nonsingular input, d is it."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], [-x for x in rows[r]]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(c)
    return rows[: len(pivots)], pivots, d


_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def lcm_of_denominators(rows) -> int:
    """The lcm of the denominators of every entry (ints or Fractions)."""
    dens = set()
    for r in rows:
        dens.update(map(_denominator, r))
    return lcm(*dens)


def cleared(values, m: int) -> tuple:
    """m * values in ints, for m a multiple of every denominator.  At m = 1
    a tuple already in ints is returned as it is, so a table keeps sharing
    its rows (the zero rows of an algebra, say)."""
    if m == 1:
        if all(type(x) is int for x in values):
            return tuple(values)
        return tuple(map(_numerator, values))
    return tuple(x.numerator * (m // x.denominator) for x in values)


def integral_rows(rows) -> tuple[int, tuple]:
    """(d, d*rows) with d = lcm_of_denominators(rows)."""
    d = lcm_of_denominators(rows)
    return d, tuple(cleared(r, d) for r in rows)


_ZERO = Fraction(0)


def divided(row, d: int) -> Vector:
    """The integer row divided by d, as Fractions with one shared zero."""
    return tuple(Fraction(x, d) if x else _ZERO for x in row)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns; the zero rows come
    last, so the form has as many rows as ``a``."""
    X, pivots, d = fraction_free_rref(integral_rows(a)[1])
    zero = (_ZERO,) * (len(a[0]) if a else 0)
    return tuple(divided(row, d) for row in X) + (zero,) * (len(a) - len(X)), pivots


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {x : a*x = 0}, in reduced echelon form."""
    m = len(a[0]) if a else 0
    X, pivots, d = fraction_free_rref(integral_rows(a)[1])
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        x = [0] * m
        x[fc] = d
        for row, pc in zip(X, pivots):
            x[pc] = -row[fc]
        basis.append(divided(x, d))
    return basis


def det(a) -> Fraction:
    """Determinant of a square matrix of ints or Fractions: the last pivot
    of the matrix cleared to scale d, divided by d^n."""
    scale, rows = integral_rows(a)
    _, pivots, d = fraction_free_rref(rows)
    return Fraction(d, scale ** len(rows)) if len(pivots) == len(rows) else _ZERO

