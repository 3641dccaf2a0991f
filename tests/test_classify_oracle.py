"""`classify_map` against a test-side transcription of the defining identities.

The oracle reads the structure constants ``L.c`` and the form ``L.omega`` as
plain data and shares no code with ``omegarb.algebras`` or ``omegarb.linalg``.
It applies an operator as R(v) = sum_i v_i R(e_i), with R(e_i) the i-th row,
evaluates each identity on every ordered pair of basis vectors (no reduction
to i < j), and decides invertibility by its own elimination.
"""

import random
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import OmegaAlgebra, OperatorMatrix, classify_map
from omegarb.cli import _load_builtin_candidates
from omegarb.ideals import find_certificate, sample_points
from omegarb.solver import GenericOperator, entry_name

WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1, 2))
DIMS = {"L1": 3, "L2": 3, "L1_2": 4, "L1_8": 4, "sl2": 3}


@pytest.fixture(scope="module")
def algebras(catalog):
    out = {name: catalog[name].instantiate() for name in ("L1", "L2", "L1_2", "L1_8")}
    # sl2, a Lie algebra (omega = 0): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    out["sl2"] = OmegaAlgebra.from_brackets(
        ["h", "e", "f"], {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}, {}
    )
    assert {name: L.dim for name, L in out.items()} == DIMS
    return out


# shipped component files: table 1 (compatible, weight 0), table 2
# (isometric, weight 1), table 3 (compatible, weight 0, square zero)
SHIPPED = {
    "L1": ("table1_L1", "table2_L1"),
    "L2": ("table1_L2", "table2_L2"),
    "L1_2": ("table3_L1_2",),
    "L1_8": ("table3_L1_8",),
}


def _apply(rows, v):
    n = len(rows)
    out = [Fraction(0)] * n
    for i in range(n):
        for k in range(n):
            out[k] += v[i] * rows[i][k]
    return out


def _bracket(c, u, v):
    n = len(u)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * c[i][j][k]
    return out


def _form(omega, u, v):
    n = len(u)
    return sum((u[i] * v[j] * omega[i][j] for i in range(n) for j in range(n)), Fraction(0))


def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle(L, rows, weight):
    """The eight `MapClassification` fields, from the identities themselves."""
    n = L.dim
    w = Fraction(weight)
    rows = [[Fraction(x) for x in r] for r in rows]
    basis = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    c, omega = L.c, L.omega
    rb = compatible = isometric = derivation = bracket_preserving = True
    for x in basis:
        for y in basis:
            Rx, Ry = _apply(rows, x), _apply(rows, y)
            xy = _bracket(c, x, y)
            cross = [a + b for a, b in zip(_bracket(c, Rx, y), _bracket(c, x, Ry))]
            RxRy = _bracket(c, Rx, Ry)
            R_xy = _apply(rows, xy)
            # [R x, R y] = R([R x, y] + [x, R y] + w [x, y])
            rb &= RxRy == _apply(rows, [a + w * b for a, b in zip(cross, xy)])
            # omega(R x, y) + omega(x, R y) = 0
            compatible &= _form(omega, Rx, y) + _form(omega, x, Ry) == 0
            # omega(R x, R y) = omega(x, y)
            isometric &= _form(omega, Rx, Ry) == _form(omega, x, y)
            # R [x, y] = [R x, y] + [x, R y]
            derivation &= R_xy == cross
            # R [x, y] = [R x, R y]
            bracket_preserving &= R_xy == RxRy
    invertible = _rank(rows) == n
    zero = [Fraction(0)] * n
    return dict(
        weight=w,
        is_rb=rb,
        is_compatible=compatible,
        is_isometric=isometric,
        is_derivation=derivation,
        is_automorphism=bracket_preserving and invertible,
        is_square_zero=all(_apply(rows, _apply(rows, x)) == zero for x in basis),
        is_invertible=invertible,
    )


def _check(L, rows, weight):
    got = asdict(classify_map(L, OperatorMatrix(rows), weight))
    want = oracle(L, rows, weight)
    assert got == want, (rows, weight)
    return got


def _scaled_identity(n, q):
    return [[Fraction(q) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _shipped_points(source, n, rng, per_component=2):
    """Operator rows at sampled points of each component in `source`."""
    table = GenericOperator.of_dimension(n).table
    out = []
    for component, cert in _load_builtin_candidates(source, table):
        cert = cert or find_certificate(component)
        for pt in sample_points(component, cert, per_component, rng):
            out.append([[pt[entry_name(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)])
    return out


def _fixed_operators(name, rng):
    """Scalar maps (-w id is Rota-Baxter of weight w), shipped points and
    their multiples (a weight-1 operator scaled by q has weight q)."""
    n = DIMS[name]
    ops = [_scaled_identity(n, q) for q in (0, 1, 2, -1, Fraction(1, 2))]
    for source in SHIPPED.get(name, ()):
        for rows in _shipped_points(source, n, rng):
            ops.append(rows)
            ops.append([[-x / 2 for x in r] for r in rows])
    return ops


def test_classification_matches_oracle_on_fixed_operators(algebras):
    rng = random.Random(20261018)
    seen = []
    for name, L in algebras.items():
        for rows in _fixed_operators(name, rng):
            for w in WEIGHTS:
                seen.append(_check(L, rows, w))
    # every flag is exercised both ways, and Rota-Baxter both ways at w != 0
    for flag in (
        "is_rb", "is_compatible", "is_isometric", "is_derivation",
        "is_automorphism", "is_square_zero", "is_invertible",
    ):
        assert {f[flag] for f in seen} == {True, False}, flag
    assert {f["is_rb"] for f in seen if f["weight"] == 1} == {True, False}
    assert {f["is_rb"] for f in seen if f["weight"] == Fraction(-1, 2)} == {True, False}
    assert any(f["is_invertible"] and not f["is_automorphism"] for f in seen)


def test_weight_one_shipped_points_are_rota_baxter_of_weight_one(algebras):
    rng = random.Random(7)
    for name in ("L1", "L2"):
        L = algebras[name]
        for rows in _shipped_points(f"table2_{name}", L.dim, rng):
            got = _check(L, rows, 1)
            assert got["is_rb"] and got["is_isometric"]
            assert _check(L, [[-x / 2 for x in r] for r in rows], Fraction(-1, 2))["is_rb"]


SPARSE_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def sparse_cases(draw):
    name = draw(st.sampled_from(sorted(DIMS)))
    n = DIMS[name]
    rows = draw(st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    return name, rows, draw(st.sampled_from(WEIGHTS))


@settings(max_examples=150, deadline=None)
@given(sparse_cases())
def test_classification_matches_oracle_on_sparse_operators(algebras, case):
    name, rows, w = case
    _check(algebras[name], rows, w)


@pytest.mark.parametrize("name", sorted(DIMS))
def test_oracle_accepts_the_structure_as_given(algebras, name):
    # the oracle's own sanity: the zero map is a square-zero derivation
    # and a Rota-Baxter operator of every weight; the identity preserves
    # the bracket and is invertible
    L = algebras[name]
    for w in WEIGHTS:
        zero = oracle(L, _scaled_identity(L.dim, 0), w)
        assert zero["is_rb"] and zero["is_derivation"] and zero["is_square_zero"]
    one = oracle(L, _scaled_identity(L.dim, 1), 0)
    assert one["is_automorphism"] and one["is_invertible"]
