"""The stored form of algebras and operators: the rational data cleared of
denominators once, when it is built, and reduced to content 1, with the
Fraction views giving the data back."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import IntegralAlgebra, OmegaAlgebra, OperatorMatrix
from omegarb.constructions import omega_deform
from omegarb.linalg import identity

# zeros are drawn often, so zero rows and tables come up
ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


def square(n):
    return st.tuples(*[st.tuples(*[ENTRY] * n)] * n)


@st.composite
def tables(draw):
    """(c, omega) for a random dimension, skew or not."""
    n = draw(st.integers(1, 3))
    return draw(st.tuples(*[square(n)] * n)), draw(square(n))


def skew(c, omega):
    """The skew tables with the upper triangles of c and omega."""
    n = len(c)
    zero = (Fraction(0),) * n
    c = tuple(
        tuple(c[i][j] if i < j else tuple(-x for x in c[j][i]) if i > j else zero for j in range(n))
        for i in range(n)
    )
    omega = tuple(
        tuple(omega[i][j] if i < j else -omega[j][i] if i > j else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return c, omega


def names(n):
    return tuple(f"e{i}" for i in range(1, n + 1))


def flat(table):
    """Every number in a nested table."""
    if isinstance(table, (tuple, list)):
        return [x for part in table for x in flat(part)]
    return [table]


@settings(max_examples=100, deadline=None)
@given(tables())
def test_the_views_give_back_the_input_cleared_by_the_lcm(data):
    c, omega = data
    L = OmegaAlgebra(len(c), names(len(c)), c, omega)
    assert L.c == c and L.omega == omega
    assert all(type(x) is Fraction for x in flat(L.c) + flat(L.omega))
    D, ic, iomega = L.integral
    assert D == lcm(*(x.denominator for x in flat(c) + flat(omega)))
    assert all(type(x) is int for x in flat(ic) + flat(iomega))
    assert flat(ic) == [x * D for x in flat(c)]
    assert flat(iomega) == [x * D for x in flat(omega)]
    assert gcd(D, *flat(ic), *flat(iomega)) == 1


@settings(max_examples=100, deadline=None)
@given(tables(), st.integers(1, 30))
def test_every_constructor_gives_one_algebra(data, k):
    c, omega = skew(*data)
    n = len(c)
    positional = OmegaAlgebra(n, names(n), c, omega)
    built = OmegaAlgebra.from_brackets(
        names(n),
        {(i, j): c[i][j] for i, j in combinations(range(n), 2) if any(c[i][j])},
        {(j, i): -omega[i][j] for i, j in combinations(range(n), 2) if omega[i][j]},
    )
    # integer data at k times the stored scale, as a deformation produces it
    D, ic, iomega = positional.integral
    scaled = OmegaAlgebra.from_integral(
        names(n),
        IntegralAlgebra(
            k * D,
            tuple(tuple(tuple(k * x for x in row) for row in layer) for layer in ic),
            tuple(tuple(k * x for x in row) for row in iomega),
        ),
    )
    assert positional == built == scaled
    assert hash(positional) == hash(built) == hash(scaled)
    assert scaled.integral == positional.integral


@settings(max_examples=60, deadline=None)
@given(ENTRY, ENTRY)
def test_a_deformation_equals_the_algebra_of_its_values(L1, d, e):
    # a compatible weight-0 Rota-Baxter operator on L1 for every d, e; the
    # deformed data comes out at scale D d^2 and is reduced
    LR = omega_deform(L1, OperatorMatrix([[0, 0, d], [0, 0, e], [0, 0, 0]]))
    c, omega = LR.c, LR.omega
    again = OmegaAlgebra(3, L1.basis_names, c, omega)
    assert LR == again and hash(LR) == hash(again)
    assert gcd(*flat(LR.integral)) == 1


def dense_mul(a, b):
    """The matrix product a b by its definition."""
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


@st.composite
def operators(draw, count):
    n = draw(st.integers(1, 4))
    return tuple(draw(square(n)) for _ in range(count))


@settings(max_examples=100, deadline=None)
@given(operators(2), ENTRY)
def test_operators_store_the_lcm_clearing_through_every_product(ms, q):
    a, b = ms
    R, S = OperatorMatrix(a), OperatorMatrix(b)
    assert R.entries == a
    assert R.d == lcm(*(x.denominator for x in flat(a)))
    assert flat(R.rows) == [x * R.d for x in flat(a)]
    assert gcd(R.d, *flat(R.rows)) == 1
    for got, want in (
        (R.then(S), dense_mul(a, b)),
        (R.scale(q), tuple(tuple(x * q for x in r) for r in a)),
        (R.power(0), identity(len(a))),
        (R.power(1), a),
        (R.power(3), dense_mul(dense_mul(a, a), a)),
    ):
        assert got.entries == want
        # the stored form is the one the rational data gives
        assert got == OperatorMatrix(want) and hash(got) == hash(OperatorMatrix(want))
