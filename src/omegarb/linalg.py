"""Dense exact-rational linear algebra helpers (lists of Fractions)."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(values: Iterable) -> Vector:
    """The values as Fractions; a Fraction is immutable and kept as given."""
    return tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def zeros(n: int, m: int | None = None) -> Matrix:
    m = n if m is None else m
    return tuple((Fraction(0),) * m for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, q) -> Matrix:
    q = Fraction(q)
    return tuple(tuple(x * q for x in r) for r in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Row-by-row product that skips zero coefficients of either factor."""
    if not a or not b:
        return ()
    m = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * m
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns."""
    rows = [list(r) for r in a]
    if not rows:
        return (), []
    m = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right kernel {x : a*x = 0}, in reduced echelon form."""
    if not a:
        return []
    m = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(m) if c not in pivots]
    basis = []
    for fc in free:
        x = [Fraction(0)] * m
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][fc]
        basis.append(tuple(x))
    return basis


def det(a) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968): each row is cleared of its denominators once, every division
    below is exact over the integers, and the product of the row
    multipliers is divided back at the end.  Entries may be ints or
    Fractions."""
    n = len(a)
    rows, scale = [], 1
    for r in a:
        m = lcm(*(x.denominator for x in r))
        rows.append([x.numerator * (m // x.denominator) for x in r])
        scale *= m
    sign, prev = 1, 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        top = rows[c]
        p = top[c]
        for i in range(c + 1, n):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    return Fraction(sign * prev, scale)


def inverse(a: Matrix) -> Matrix | None:
    """Exact inverse, or None when singular."""
    n = len(a)
    aug = [list(r) + list(e) for r, e in zip(a, identity(n))]
    red, pivots = rref(tuple(tuple(r) for r in aug))
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in red[:n])
