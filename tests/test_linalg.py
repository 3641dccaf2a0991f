"""The sparse-skipping kernels against their dense definitions: `mat_mul`,
`OperatorMatrix.apply` and `OperatorMatrix.power`; the fraction-free `det`
against the Leibniz formula; `vec` keeps the Fractions it is given."""

from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import OperatorMatrix
from omegarb.linalg import det, identity, mat_mul, vec

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
def products(draw):
    p, q, r = (draw(st.integers(1, 4)) for _ in range(3))
    a = draw(matrices(p, q))
    if draw(st.booleans()):
        a = a[:-1] + ((Fraction(0),) * q,)  # a zero row
    return a, draw(matrices(q, r))


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
@given(products())
def test_mat_mul_matches_dense_definition(ab):
    a, b = ab
    got = mat_mul(a, b)
    assert got == dense_mul(a, b)
    assert all(isinstance(x, Fraction) for row in got for x in row)


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


def test_vec_keeps_fractions_and_converts_the_rest():
    q = Fraction(2, 3)
    v = vec([q, 1, "1/2"])
    assert v[0] is q
    assert v[1:] == (Fraction(1), Fraction(1, 2)) and all(type(x) is Fraction for x in v)
