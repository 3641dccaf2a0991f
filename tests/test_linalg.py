"""The sparse-skipping kernels against their dense definitions:
`OperatorMatrix.then`, `OperatorMatrix.apply` and `OperatorMatrix.power`;
the fraction-free `det` against the Leibniz formula; `rref`, `nullspace`,
`det`, `OperatorMatrix.inverse_operator` and `Subspace.span` against a
`Fraction` Gauss-Jordan reference; `vec` keeps the Fractions it is given,
and `identity` is in ints."""

from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import OmegaAlgebra, OperatorMatrix, SingularOperatorError, Subspace
from omegarb.constructions import ModuleAction
from omegarb.linalg import (
    det,
    fraction_free_rref,
    identity,
    integral_rows,
    nullspace,
    rref,
    vec,
)
from omegarb.poly import PolyParseError

# zeros are drawn often, so zero rows and columns come up; negative
# fractions come from the range
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)


def matrices(rows, cols):
    return st.lists(
        st.tuples(*[ENTRY] * cols), min_size=rows, max_size=rows
    ).map(tuple)


@st.composite
def square_operators(draw):
    n = draw(st.integers(1, 4))
    rows = draw(matrices(n, n))
    if draw(st.booleans()):
        rows = ((Fraction(0),) * n,) + rows[1:]
    return OperatorMatrix(rows)


def dense_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


@settings(max_examples=150, deadline=None)
@given(square_operators(), st.data())
def test_then_matches_dense_definition(R, data):
    # the integer composition of operators is the dense product
    S = OperatorMatrix(data.draw(matrices(R.dim, R.dim)))
    composed = R.then(S).entries
    assert composed == dense_mul(R.entries, S.entries)
    assert all(isinstance(x, Fraction) for row in composed for x in row)


@settings(max_examples=150, deadline=None)
@given(square_operators(), st.data())
def test_apply_matches_dense_definition(R, data):
    n = R.dim
    v = data.draw(st.tuples(*[ENTRY] * n))
    # R(v) = sum_i v_i R(e_i), row i being R(e_i)
    want = tuple(sum((v[i] * R.entries[i][j] for i in range(n)), Fraction(0)) for j in range(n))
    assert R.apply(v) == want


@settings(max_examples=100, deadline=None)
@given(square_operators())
def test_power_matches_repeated_dense_product(R):
    n = R.dim
    expected = identity(n)
    for k in range(4):
        assert R.power(k).entries == expected
        expected = dense_mul(expected, R.entries)


def test_power_zero_is_the_identity():
    R = OperatorMatrix([[0, 2], [Fraction(-1, 3), 0]])
    assert R.power(0) == OperatorMatrix.identity(2)
    assert R.power(1) == R


def test_negative_power_is_rejected():
    with pytest.raises(ValueError):
        OperatorMatrix.identity(2).power(-1)


def test_apply_rejects_a_vector_of_the_wrong_length():
    R = OperatorMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="length"):
        R.apply((1, 2))
    with pytest.raises(ValueError, match="length"):
        R.apply((1, 2, 3, 4))


def leibniz_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(square_operators())
def test_det_matches_leibniz_formula(R):
    want = leibniz_det(R.entries)
    got = det(R.entries)
    assert type(got) is Fraction and got == want
    # the same matrix cleared of denominators, as ints: det scales by m^n
    m = 1
    for row in R.entries:
        for x in row:
            m = lcm(m, x.denominator)
    scaled = [[int(x * m) for x in row] for row in R.entries]
    assert det(scaled) == want * m ** R.dim


def test_det_needs_a_row_swap_and_an_empty_matrix_is_one():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 2, 0], [Fraction(1, 2), 0, 0]]) == -1
    assert det([]) == 1


def test_identity_is_in_ints():
    assert identity(2) == ((1, 0), (0, 1)) and identity(0) == ()
    assert all(type(x) is int for row in identity(3) for x in row)


def test_vec_keeps_fractions_and_converts_the_rest():
    q = Fraction(2, 3)
    v = vec([q, 1, "1/2"])
    assert v[0] is q
    assert v[1:] == (Fraction(1), Fraction(1, 2)) and all(type(x) is Fraction for x in v)


@pytest.mark.parametrize("text", ["0.5", "1e3", " 1_0 ", "1e5000"])
def test_text_entries_are_read_as_rational_literals(text):
    # Fraction(text) reads all four (1e5000 as a 5,001-digit integer); the
    # package's one literal reader refuses them
    with pytest.raises(PolyParseError):
        vec([text])
    with pytest.raises(PolyParseError):
        OperatorMatrix([[text]])
    with pytest.raises(PolyParseError):
        ModuleAction.from_matrices(1, [[[text]]])


def test_text_entries_keep_signs_and_spaces():
    assert vec(["-3/4", " 2 "]) == (Fraction(-3, 4), Fraction(2))
    assert OperatorMatrix([["-3/4"]]).entries == ((Fraction(-3, 4),),)


def test_float_entries_are_rejected():
    # Fraction(0.1) is 3602879701896397/36028797018963968, which would clear
    # the operator below to d = 2**55
    with pytest.raises(TypeError):
        vec([Fraction(1), 0.1])
    with pytest.raises(TypeError):
        OperatorMatrix([[0.1, 0], [0, 1]])
    # an algebra is cleared in one place, which refuses a float the same way
    c = [[(0, 0), (0.5, 0)], [(-0.5, 0), (0, 0)]]
    with pytest.raises(TypeError):
        OmegaAlgebra(2, ["x", "y"], c, [[0, 0], [0, 0]])
    with pytest.raises(TypeError):
        OmegaAlgebra(2, ["x", "y"], [[(0, 0)] * 2] * 2, [[0, 0.5], [-0.5, 0]])
    with pytest.raises(TypeError):
        OmegaAlgebra.from_brackets(["x", "y"], {(0, 1): [0.5, 0]}, {})
    with pytest.raises(TypeError):
        OmegaAlgebra.from_brackets(["x", "y"], {}, {(0, 1): 0.5})


# -- the one elimination against a Fraction Gauss-Jordan reference ----------------


def gauss_jordan(a):
    """(reduced echelon form, pivot columns, determinant) by Gauss-Jordan
    elimination over Fractions; the determinant is the swap sign times the
    product of the pivots, and is only meaningful for square input."""
    rows = [[Fraction(x) for x in r] for r in a]
    if not rows:
        return (), [], Fraction(1)
    m = len(rows[0])
    pivots: list[int] = []
    sign, product = 1, Fraction(1)
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            sign = -sign
        pv = rows[r][c]
        product *= pv
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    full = len(pivots) == len(rows) == m
    return tuple(tuple(row) for row in rows), pivots, sign * product if full else Fraction(0)


@st.composite
def echelon_inputs(draw, square=False):
    """Matrices of 0 to 5 rows and columns (square on request), with zero
    rows, all-zero matrices and rows that repeat a combination of others."""
    n = draw(st.integers(0, 5))
    m = n if square else draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["any", "zero", "deficient"]))
    if kind == "zero":
        return tuple((Fraction(0),) * m for _ in range(n))
    rows = list(draw(matrices(n, m)))
    if kind == "deficient" and n >= 2:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 2))
        a, b = draw(ENTRY), draw(ENTRY)
        others = [r for k, r in enumerate(rows) if k != i]
        rows[i] = tuple(a * x + b * y for x, y in zip(others[j], others[-1]))
    return tuple(rows)


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_rref_matches_gauss_jordan(a):
    want, want_pivots, _ = gauss_jordan(a)
    got, pivots = rref(a)
    assert (got, pivots) == (want, want_pivots) and all_fractions(got)
    # the integer form underneath: d times the nonzero rows, in ints
    X, pivots, d = fraction_free_rref(integral_rows(a)[1])
    assert pivots == want_pivots and d != 0
    assert all(type(x) is int for row in X for x in row)
    assert tuple(tuple(Fraction(x, d) for x in row) for row in X) == want[: len(pivots)]


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_nullspace_matches_gauss_jordan(a):
    if not a:
        assert nullspace(a) == []
        return
    m = len(a[0])
    red, pivots, _ = gauss_jordan(a)
    want = []
    for fc in (c for c in range(m) if c not in pivots):
        x = [Fraction(0)] * m
        x[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][fc]
        want.append(tuple(x))
    got = nullspace(a)
    assert got == want and all_fractions(got)
    assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a for v in got)


@settings(max_examples=150, deadline=None)
@given(echelon_inputs(square=True))
def test_inverse_and_det_match_gauss_jordan(a):
    n = len(a)
    _, _, want_det = gauss_jordan(a)
    got_det = det(a)
    assert type(got_det) is Fraction and got_det == want_det
    # the inverse is the right half of the reduced form of [a | 1]
    red, pivots, _ = gauss_jordan([list(r) + list(e) for r, e in zip(a, identity(n))])
    R = OperatorMatrix(a)
    if pivots[:n] != list(range(n)):
        assert want_det == 0
        with pytest.raises(SingularOperatorError):
            R.inverse_operator()
    else:
        got = R.inverse_operator().entries
        assert got == tuple(row[n:] for row in red[:n]) and all_fractions(got)
        assert dense_mul(a, got) == identity(n) if n else got == ()


@settings(max_examples=150, deadline=None)
@given(echelon_inputs())
def test_span_matches_gauss_jordan(a):
    m = len(a[0]) if a else 0
    red, pivots, _ = gauss_jordan([r for r in a if any(r)])
    got = Subspace.span(m, a)
    assert got.basis == tuple(red[: len(pivots)]) and all_fractions(got.basis)
    # the basis is canonical: the same subspace from its own basis, reversed
    assert Subspace.span(m, reversed(got.basis)) == got


def test_echelon_edge_cases():
    assert rref(()) == ((), [])
    assert rref(((), ())) == (((), ()), [])
    assert det(()) == 1 and OperatorMatrix(()).inverse_operator().entries == ()
    zero = ((Fraction(0),) * 3,) * 2
    assert rref(zero) == (zero, [])
    assert len(nullspace(zero)) == 3 and Subspace.span(3, zero).dim == 0
    assert det(((0, 0), (0, 0))) == 0
    with pytest.raises(SingularOperatorError):
        OperatorMatrix(zero[:1] * 3).inverse_operator()
