"""The benchmark's own reference answers and the checker that applies them.

Table cells are checked against values copied from the published survey
tables, with the recorded internal inconsistency of the table-2 `L1`
dimension taken at its verified value.  Nothing here is read from
`src/omegarb/data`, so an edit to the shipped expectation files cannot
change what the benchmark counts as a failure.

Construction outcomes are checked against an independent oracle: plain
`Fraction` linear algebra over structure constants transcribed below, which
shares no code with the package under test.
"""

from __future__ import annotations

from fractions import Fraction

# (table, algebra) -> expected dimension, component count and component dims
# (compared sorted).  Every decomposition must come out confirmed.
CELLS = {
    (1, "L1"): dict(dim=3, components=2, component_dims=[3, 3]),
    (1, "L2"): dict(dim=2, components=3, component_dims=[2, 2, 2]),
    # published dim 3 contradicts the published components (three of dim 2)
    (2, "L1"): dict(dim=2, components=3, component_dims=[2, 2, 2]),
    (2, "L2"): dict(dim=2, components=2, component_dims=[2, 1]),
}


def check_cell(table_id: int, row: dict) -> list[str]:
    """Problems with one `run_table_row` result; empty when it is correct."""
    ref = CELLS[(table_id, row["algebra"])]
    got = row.get("computed") or {}
    problems = []
    if row.get("status") not in ("PASS", "DISCREPANCY"):
        problems.append(f"status {row.get('status')}")
    for key in ("dim", "components"):
        if got.get(key) != ref[key]:
            problems.append(f"{key} {got.get(key)!r} != {ref[key]!r}")
    if sorted(got.get("component_dims") or [], key=str) != sorted(ref["component_dims"], key=str):
        problems.append(f"component_dims {got.get('component_dims')!r} != {ref['component_dims']!r}")
    if got.get("decomposition_confirmed") is not True:
        problems.append("decomposition not confirmed")
    return problems


# ---------------------------------------------------------------------------
# independent oracle for the constructions workload

# name -> (dimension, {(i, j): [e_i, e_j] coefficients}, {(i, j): omega(e_i, e_j)}),
# 0-based basis indices, i < j; transcribed from the source classifications.
ALGEBRAS = {
    "L1": (3, {(0, 1): (0, 1, 0), (1, 2): (0, 0, 1)}, {(0, 1): 1}),
    "L2": (3, {(0, 2): (0, 1, 0), (1, 2): (0, 0, 1)}, {(0, 2): 1}),
    "L1_2": (
        4,
        {(0, 1): (0, 0, 0, 1), (0, 2): (-1, 0, 0, 0), (1, 2): (0, 0, 1, 0), (2, 3): (0, 0, 0, 1)},
        {(1, 2): 1},
    ),
    "L1_8": (
        4,
        {(0, 1): (1, 0, 1, 0), (0, 2): (-1, 0, 0, 1), (1, 2): (0, 0, 1, 0), (2, 3): (0, 0, 0, 1)},
        {(0, 1): 1, (1, 2): 1},
    ),
}


class _Algebra:
    """Skew bracket c[i][j] and skew form w[i][j] over Fractions."""

    def __init__(self, n, c, w):
        self.n, self.c, self.w = n, c, w

    @classmethod
    def from_relations(cls, n, brackets, omega):
        zero = (Fraction(0),) * n
        c = [[zero] * n for _ in range(n)]
        w = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in brackets.items():
            c[i][j] = tuple(Fraction(x) for x in v)
            c[j][i] = tuple(-Fraction(x) for x in v)
        for (i, j), v in omega.items():
            w[i][j], w[j][i] = Fraction(v), -Fraction(v)
        return cls(n, c, w)

    def bracket(self, u, v):
        out = [Fraction(0)] * self.n
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj:
                    f = ui * vj
                    for k, x in enumerate(self.c[i][j]):
                        if x:
                            out[k] += f * x
        return tuple(out)

    def form(self, u, v):
        total = Fraction(0)
        for i, ui in enumerate(u):
            for j, vj in enumerate(v):
                if ui and vj and self.w[i][j]:
                    total += ui * vj * self.w[i][j]
        return total

    def basis(self, i):
        return tuple(Fraction(int(k == i)) for k in range(self.n))


def _apply(R, v):
    """Row convention: R(e_i) = sum_j R[i][j] e_j, so R(v) = v * R."""
    out = [Fraction(0)] * len(R)
    for vi, row in zip(v, R):
        if vi:
            for j, x in enumerate(row):
                if x:
                    out[j] += vi * x
    return tuple(out)


def _matmul(A, B):
    n = len(A)
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _rank(rows) -> int:
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _rb_and_compatible(L: _Algebra, R) -> tuple[bool, bool]:
    """Whether R is a weight-0 Rota-Baxter operator on L, and whether it is
    omega-compatible, checked on basis pairs."""
    rb = compatible = True
    for i in range(L.n):
        for j in range(i + 1, L.n):
            ei, ej = L.basis(i), L.basis(j)
            ri, rj = _apply(R, ei), _apply(R, ej)
            inner = tuple(a + b for a, b in zip(L.bracket(ri, ej), L.bracket(ei, rj)))
            rb = rb and L.bracket(ri, rj) == _apply(R, inner)
            compatible = compatible and L.form(ri, ej) + L.form(ei, rj) == 0
    return rb, compatible


def _deform(L: _Algebra, R) -> _Algebra:
    n = L.n
    images = [_apply(R, L.basis(i)) for i in range(n)]
    c = [
        [
            tuple(a + b for a, b in zip(L.bracket(images[i], L.basis(j)), L.bracket(L.basis(i), images[j])))
            for j in range(n)
        ]
        for i in range(n)
    ]
    w = [[L.form(images[i], images[j]) for j in range(n)] for i in range(n)]
    return _Algebra(n, c, w)


def _series_category(g: _Algebra) -> str:
    """Category of the bracket from its derived and lower central series."""
    n = g.n
    full = [g.basis(i) for i in range(n)]

    def series(step_with_full: bool) -> bool:
        current = full
        while True:
            other = full if step_with_full else current
            nxt = [g.bracket(u, v) for u in current for v in other]
            r = _rank(nxt)
            if r == 0:
                return True
            if r == _rank(current):
                return False
            current = [v for v in nxt if any(v)]

    if _rank([g.bracket(u, v) for u in full for v in full]) == 0:
        return "abelian"
    if series(True):
        return "nilpotent"
    if series(False):
        return "solvable"
    return "non-solvable"


def oracle_outcome(algebra: str, R) -> tuple:
    """(compatible RB of weight 0, square-zero, LSA outcome, deform outcome
    over two steps, Hom-Lie outcome) for the operator R on ``algebra``."""
    n, brackets, omega = ALGEBRAS[algebra]
    L = _Algebra.from_relations(n, brackets, omega)
    R = tuple(tuple(Fraction(x) for x in row) for row in R)
    rb, compatible = _rb_and_compatible(L, R)
    compat_rb = rb and compatible
    square_zero = not any(any(row) for row in _matmul(R, R))
    images = [_apply(R, L.basis(i)) for i in range(n)]
    in_kernel = all(L.form(v, L.basis(j)) == 0 for v in images for j in range(n))
    lsa = "accepted" if rb and in_kernel else "rejected"
    if not compat_rb:
        deform = "rejected"
    else:
        current, power, deform = L, R, "accepted"
        for step in (1, 2):
            if step > 1:
                power = _matmul(power, R)
            if not all(_rb_and_compatible(current, power)):
                deform = f"halted at {step}"
                break
            current = _deform(current, power)
    if compat_rb and square_zero:
        homlie = _series_category(_deform(L, R))
    else:
        homlie = "rejected"
    return (compat_rb, square_zero, lsa, deform, homlie)
