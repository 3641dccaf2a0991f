"""The division/S-polynomial/Buchberger layer, pinned against the worked
localization computation in 6 variables (z > x12 > x13 > x21 > x22 > x23)."""

import signal
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from itertools import chain

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from omegarb import groebner
from omegarb.algebras import OmegaAlgebra, validate_algebra
from omegarb.groebner import (
    GroebnerBasis,
    _packing,
    _Packing,
    buchberger,
    exact_divide,
    is_groebner_basis,
    reduce,
    s_polynomial,
)
from omegarb.ideals import (
    _in_radical_by_square,
    ideal_contains,
    ideal_equal,
    ideal_membership,
    krull_dim,
    make_ideal,
)
from omegarb.poly import (
    DimensionMismatchError,
    MonomialOrder,
    Polynomial,
    VariableTable,
    elimination_order,
    grevlex_order,
    lex_order,
    mono_divides,
    mono_lcm,
    mono_mul,
    parse_polynomial,
)
from omegarb.solver import PROFILES, generate_system
from tests.conftest import SMALL_COEFF, small_polys

T = VariableTable.of("z", "x12", "x13", "x21", "x22", "x23")
O = grevlex_order(T)


def P(s):
    return parse_polynomial(s, T)


L1Q = P("x12*x21 + x22^2")
L2Q = P("x12*x23 - x13*x22")
L3Q = P("x13*x21 + x22*x23")


@pytest.fixture(scope="module")
def D():
    return [
        P("x12") * L1Q,
        P("z") * L3Q,
        P("x12") * L3Q,
        P("z*x13*x22 - x12*x23"),
        P("x12") * L2Q,
        P("z*x22^2 + x12*x21"),
        P("z*x12 - x12"),
    ]


def test_leading_monomials_of_basis(D):
    lms = [f.leading_monomial(O) for f in D]
    expected = [
        P("x12^2*x21"),
        P("z*x13*x21"),
        P("x12*x13*x21"),
        P("z*x13*x22"),
        P("x12*x13*x22"),
        P("z*x22^2"),
        P("z*x12"),
    ]
    assert lms == [e.leading_monomial(O) for e in expected]


def test_s_polynomial_of_first_pair(D):
    sp = s_polynomial(D[0], D[1], O)
    assert sp == P("z*x12*x13*x22^2 - z*x12^2*x22*x23")
    assert reduce(sp, D, O).is_zero()


def test_s_polynomial_self_cancels(D):
    assert s_polynomial(D[0], D[0], O).is_zero()


def test_coprime_leading_monomials_reduce():
    t = VariableTable.of("x", "y")
    o = grevlex_order(t)
    f = parse_polynomial("x^2", t)
    g = parse_polynomial("y^2", t)
    assert reduce(s_polynomial(f, g, o), [f, g], o).is_zero()


def test_s_polynomial_of_zero_rejected(D):
    from omegarb.poly import Polynomial

    with pytest.raises(ValueError):
        s_polynomial(D[0], Polynomial.zero(T), O)


def test_basis_satisfies_buchberger_criterion(D):
    assert is_groebner_basis(D, O)


def test_basis_generates_the_tagged_ideal(D):
    J = make_ideal(
        T, [P("z") * L1Q, P("z") * L2Q, P("z") * L3Q, P("x12") * (P("1") - P("z"))]
    )
    assert ideal_equal(make_ideal(T, D), J)


def test_reduce_examples():
    assert reduce(L1Q, [L1Q], O).is_zero()
    t = VariableTable.of("x")
    o = lex_order(t)
    f = parse_polynomial("x^2 + 1", t)
    assert reduce(f, [parse_polynomial("x", t)], o) == parse_polynomial("1", t)
    assert reduce(f, [], o) == f


def test_reduce_is_normal_form(D):
    f = P("z^2*x12*x21 + x13^2 + 5")
    r = reduce(f, D, O)
    lms = [g.leading_monomial(O) for g in D]
    for mono in r.terms:
        assert not any(mono_divides(lm, mono) for lm in lms)


def test_buchberger_single_variable():
    t = VariableTable.of("x")
    gb = buchberger([parse_polynomial("x", t)], lex_order(t))
    assert [g.to_text() for g in gb.elements] == ["x"]


def test_buchberger_zero_ideal():
    from omegarb.poly import Polynomial

    gb = buchberger([Polynomial.zero(T)], O)
    assert gb.elements == ()
    assert not gb.contains_one()


def test_buchberger_of_tag_trick_ideal_matches(D):
    J = make_ideal(
        T, [P("z") * L1Q, P("z") * L2Q, P("z") * L3Q, P("x12") * (P("1") - P("z"))]
    )
    gb = J.groebner(O)
    assert is_groebner_basis(gb.elements, O)
    # same ideal as the seven-element set (mutual reduction)
    assert all(reduce(f, gb.elements, O).is_zero() for f in D)
    assert all(reduce(g, D, O).is_zero() for g in gb.elements)


def test_reduced_basis_independent_of_generator_order(rng):
    gens = [L1Q, L2Q, L3Q, P("z*x12 - x12")]
    reference = buchberger(gens, O).elements
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, O).elements == reference


XYZ = VariableTable.of("x", "y", "z")
REDUCED_ORDERS = [grevlex_order(XYZ), lex_order(XYZ), elimination_order(XYZ, ["x"])]


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys(XYZ, SMALL_COEFF), min_size=1, max_size=3), st.sampled_from(REDUCED_ORDERS))
def test_reduced_basis_is_reduced(gens, order):
    # reducedness rests on the loop invariant of buchberger's reducers:
    # monic elements, no term divisible by another element's leading
    # monomial, ascending by leading monomial
    elements = buchberger(gens, order).elements
    lms = [g.leading_monomial(order) for g in elements]
    assert lms == sorted(lms, key=order.key)
    for i, g in enumerate(elements):
        assert g.leading_coefficient(order) == 1
        for mono in g.terms:
            assert not any(mono_divides(lm, mono) for j, lm in enumerate(lms) if j != i)


def test_criteria_do_not_change_result():
    # the pair criteria drop only redundant pairs: the basis passes the full
    # Buchberger check and equals sympy's reduced basis (skipped without sympy)
    from test_groebner_oracle import sympy_basis

    gens = [L1Q, L2Q, L3Q, P("z") * L1Q]
    ours = buchberger(gens, O).elements
    assert is_groebner_basis(ours, O)
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gens, T)


def test_exact_divide():
    f = P("x12") * L1Q
    assert exact_divide(f, P("x12"), O) == L1Q
    with pytest.raises(ArithmeticError):
        exact_divide(L1Q, P("x12"), O)


# -- determinism: divisor choice and reduction order are pinned ---------------

T4 = VariableTable.of("x", "y", "z", "w")


def test_first_divisor_in_list_order_wins():
    # both leading monomials (x*y and x*z) divide x*y*z; the basis is not a
    # Groebner basis, so the choice shows in the remainder
    t = VariableTable.of("x", "y", "z")
    o = grevlex_order(t)
    g1 = parse_polynomial("x*y + z^2", t)
    g2 = parse_polynomial("x*z + z^2", t)
    f = parse_polynomial("x*y*z", t)
    assert reduce(f, [g1, g2], o) == parse_polynomial("-z^3", t)
    assert reduce(f, [g2, g1], o) == parse_polynomial("-y*z^2", t)


REDUCE_BASIS = ["x*y - z^2 + 1/2", "x*z + y*w - 3", "y^2 - x*w + 2*z"]
REDUCE_INPUTS = ["x^2*y*z + y^3*w - 5*x*z*w + 7/3", "(x + y + z + w)^3"]

# remainders as (monomial, coefficient) in the remainder's term order, which
# is descending in the monomial order
PINNED_REMAINDERS = {
    ("lex", 0): [
        ((0, 3, 0, 1), "1"), ((0, 1, 2, 1), "-1"), ((0, 1, 0, 2), "5"),
        ((0, 1, 0, 1), "1/2"), ((0, 0, 2, 0), "3"), ((0, 0, 0, 1), "-15"),
        ((0, 0, 0, 0), "5/6"),
    ],
    ("lex", 1): [
        ((3, 0, 0, 0), "1"), ((1, 0, 0, 0), "15/2"), ((0, 3, 0, 0), "1"),
        ((0, 2, 1, 0), "3"), ((0, 2, 0, 1), "6"), ((0, 1, 2, 0), "9"),
        ((0, 1, 0, 2), "-3"), ((0, 1, 0, 1), "-6"), ((0, 1, 0, 0), "-3"),
        ((0, 0, 3, 0), "7"), ((0, 0, 2, 1), "6"), ((0, 0, 1, 2), "3"),
        ((0, 0, 1, 1), "6"), ((0, 0, 1, 0), "15"), ((0, 0, 0, 3), "1"),
        ((0, 0, 0, 1), "33/2"), ((0, 0, 0, 0), "18"),
    ],
    ("grevlex", 0): [
        ((0, 1, 2, 1), "-1"), ((0, 0, 2, 2), "1"), ((0, 1, 1, 1), "-2"),
        ((0, 1, 0, 2), "5"), ((0, 0, 2, 0), "3"), ((0, 1, 0, 1), "1/2"),
        ((0, 0, 0, 2), "-1/2"), ((0, 0, 0, 1), "-15"), ((0, 0, 0, 0), "5/6"),
    ],
    ("grevlex", 1): [
        ((3, 0, 0, 0), "1"), ((0, 1, 2, 0), "6"), ((0, 0, 3, 0), "7"),
        ((2, 0, 0, 1), "3"), ((0, 0, 2, 1), "7"), ((1, 0, 0, 2), "6"),
        ((0, 1, 0, 2), "-6"), ((0, 0, 1, 2), "3"), ((0, 0, 0, 3), "1"),
        ((0, 1, 1, 0), "-2"), ((0, 0, 2, 0), "-6"), ((0, 0, 1, 1), "-6"),
        ((1, 0, 0, 0), "15/2"), ((0, 1, 0, 0), "-3/2"), ((0, 0, 1, 0), "15"),
        ((0, 0, 0, 1), "25"),
    ],
    ("grevlex_wzxy", 0): [
        ((0, 3, 0, 1), "1"), ((0, 4, 0, 0), "-1"), ((0, 1, 0, 2), "5"),
        ((0, 2, 1, 0), "-2"), ((1, 1, 0, 0), "3"), ((0, 0, 0, 1), "-15"),
        ((0, 0, 0, 0), "7/3"),
    ],
    ("grevlex_wzxy", 1): [
        ((0, 0, 0, 3), "1"), ((0, 0, 1, 2), "3"), ((3, 0, 0, 0), "1"),
        ((0, 1, 0, 2), "-3"), ((0, 1, 1, 1), "6"), ((2, 1, 0, 0), "6"),
        ((0, 2, 0, 1), "-1"), ((0, 2, 1, 0), "3"), ((1, 2, 0, 0), "9"),
        ((0, 3, 0, 0), "7"), ((0, 0, 1, 1), "6"), ((0, 1, 0, 1), "-6"),
        ((0, 1, 1, 0), "12"), ((0, 0, 0, 1), "39/2"), ((0, 0, 1, 0), "1/2"),
        ((1, 0, 0, 0), "21/2"), ((0, 1, 0, 0), "45/2"), ((0, 0, 0, 0), "18"),
    ],
}


@pytest.mark.parametrize("key", sorted(PINNED_REMAINDERS))
def test_reduce_remainders_are_pinned(key):
    orders = {
        "lex": lex_order(T4),
        "grevlex": grevlex_order(T4),
        "grevlex_wzxy": grevlex_order(T4, ["w", "z", "x", "y"]),
    }
    name, i = key
    basis = [parse_polynomial(s, T4) for s in REDUCE_BASIS]
    r = reduce(parse_polynomial(REDUCE_INPUTS[i], T4), basis, orders[name])
    assert [(m, str(c)) for m, c in r.terms.items()] == PINNED_REMAINDERS[key]


# -- exactness: the integer normal form against the rational one ---------------


def fraction_normal_form(terms, basis, order):
    """Reference implementation: the rational normal form that divides by the
    divisor's leading coefficient at every step, with the kernel's term order
    (heap on the negated key) and divisor choice (first in list order)."""
    from fractions import Fraction
    from heapq import heapify, heappop, heappush
    from operator import neg

    from omegarb.poly import mono_div, mono_divides, mono_mul

    def desc(m):
        return tuple(map(neg, order.key(m)))

    leads = [(g.leading_monomial(order), g.leading_coefficient(order), g) for g in basis if g]
    work = dict(terms)
    heap = [(desc(m), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for lm, lc, g in leads:
            if mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = Fraction(c) / lc
                for gm, gc in g.terms.items():
                    t = mono_mul(gm, shift)
                    if t == m:
                        continue
                    old = work.get(t)
                    if old is None:
                        work[t] = -factor * gc
                        heappush(heap, (desc(t), t))
                    else:
                        work[t] = old - factor * gc
                break
        else:
            remainder[m] = c
    return remainder


T3 = VariableTable.of("x", "y", "z")
REDUCE_ORDERS = [
    lex_order(T3),
    lex_order(T3, ["z", "x", "y"]),
    grevlex_order(T3),
    grevlex_order(T3, ["y", "z", "x"]),
]
_mono3 = st.tuples(*[st.integers(0, 2)] * 3)
_coeff = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
_poly3 = st.dictionaries(_mono3, _coeff, min_size=1, max_size=4).map(
    lambda terms: Polynomial(T3, terms)
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(REDUCE_ORDERS),
    st.lists(_poly3, min_size=1, max_size=3),
    st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), _coeff, max_size=6),
)
def test_reduce_matches_rational_reference(order, basis, terms):
    # divisors with rational, non-unit leading coefficients; the remainder
    # must agree term for term, coefficient for coefficient, in dict order
    f = Polynomial(T3, terms)
    want = fraction_normal_form(f.terms, basis, order)
    assert list(reduce(f, basis, order).terms.items()) == list(want.items())


# -- pair selection ---------------------------------------------------------------

STALL_TABLE = VariableTable.of("x", "y", "z")
STALL_INPUT = [
    "36/7*x^2*y - 9/7*y*z - 27/7*x",
    "240/7*x^2*z - 180/7*y^2*z + 60/7*y^2",
    "-120/7*x*y^2 - 60/7*z^2 + 180/7*y",
]


@contextmanager
def time_limit(seconds, what):
    def stalled(signum, frame):
        raise TimeoutError(f"{what} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_lex_pairs_follow_the_order():
    # Taking pairs by lcm degree first grew remainders of total degree 29,
    # with 100,000-bit coefficients, on this input under lex z > x > y, and
    # did not finish in 300 s; smallest lcm in the order takes 0.03 s.
    gens = [parse_polynomial(g, STALL_TABLE) for g in STALL_INPUT]
    order = lex_order(STALL_TABLE, ["z", "x", "y"])
    with time_limit(10, "the lex basis"):
        basis = buchberger(gens, order).elements
    assert len(basis) == 6
    sympy = pytest.importorskip("sympy")

    def expr(text):
        return sympy.expand(sympy.sympify(text.replace("^", "**")))

    want = sympy.groebner([expr(g) for g in STALL_INPUT], *sympy.symbols("z x y"), order="lex")
    assert {expr(g.to_text()) for g in basis} == set(want.exprs)


def test_generic_bi1_cell_keeps_its_reducers_reduced():
    # A generic 3-dimensional omega-Lie algebra (omega read off the
    # Jacobiator) under profile bi1.  Reducers whose tails are reduced only
    # at the end drag those tails into every remainder, and the basis takes
    # 15 to 18 s; kept reduced as they enter, it takes under a second.
    L = OmegaAlgebra.from_brackets(
        ["x", "y", "z"],
        {(0, 1): [1, -2, -2], (0, 2): [-1, -1, -2], (1, 2): [-2, 2, 1]},
        {(1, 2): 7, (2, 0): -6, (0, 1): -2},
    )
    assert validate_algebra(L).ok
    I = generate_system(L, PROFILES["bi1"])
    order = I.default_order()
    with time_limit(10, "the bi1 basis"):
        basis = I.groebner(order).elements
        dim = krull_dim(I)
    assert dim == 1
    assert len(basis) == 10
    assert is_groebner_basis(basis, order)
    assert all(reduce(g, basis, order).is_zero() for g in I.generators)


# -- packed monomials ---------------------------------------------------------------


@st.composite
def packed_pairs(draw):
    """A packing of 1 to 12 variables under a random order kind, priority
    and block, with two monomials whose sum still fits its fields."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["lex", "grevlex", "elimination"] if n > 1 else ["lex", "grevlex"]))
    priority = tuple(draw(st.permutations(range(n))))
    block = draw(st.integers(1, n - 1)) if kind == "elimination" else 0
    width = draw(st.sampled_from([16, 32, 64]))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, (1 << (width - 2)) - 1))
    a = draw(st.tuples(*[exponent] * n))
    b = draw(st.one_of(st.tuples(*[exponent] * n), st.just(a)))
    return _Packing(MonomialOrder(kind, priority, block), width), a, b


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_monomials_follow_the_tuples(case):
    P, a, b = case
    key, guard = P.order.key, P.guard
    pa, pb = P.pack(a), P.pack(b)
    assert P.unpack(pa) == a and P.unpack(pb) == b
    assert not (pa | pb) & guard
    assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        assert ((((py | guard) - px) & guard) == guard) == mono_divides(x, y)
    ab = mono_mul(a, b)
    assert pa + pb == P.pack(ab) and P.unpack(pa + pb) == ab
    assert ((((pa + pb) | guard) - pa) & guard) == guard
    assert P.lcm(pa, pb) == P.pack(mono_lcm(a, b))
    assert P.max_fields(pa & P.low, pb & P.low) == P.pack(mono_lcm(a, b)) & P.low


# lex z > y > x: the reduced basis of these generators reaches x^6
WIDE_GENERATORS = ["x*y - z^2", "x*z - y^2 + 1", "y^3 - x*z^2"]
T3_ZYX = lex_order(T3, ["z", "y", "x"])


def _x_to_the(p: Polynomial, k: int) -> Polynomial:
    """p with x replaced by x^k, built term by term."""
    out = Polynomial.zero(T3)
    for (i, j, l), c in p.terms.items():
        out = out + Polynomial.monomial(T3, (k * i, j, l), c)
    return out


@pytest.mark.parametrize("k", [2**14 + 1, 2**15 + 3])
def test_wide_exponents_restart_with_wider_fields(k):
    # x -> x^k keeps the lex order and divisibility, so the reduced basis
    # maps over.  At k = 2^14 + 1 every input fits 16-bit fields but the
    # basis reaches x^(6k), so the run restarts from a new term; at
    # k = 2^15 + 3 the input itself is past 2^15.
    gens = [parse_polynomial(g, T3) for g in WIDE_GENERATORS]
    small = buchberger(gens, T3_ZYX)
    assert max(m[0] for g in small.elements for m in g.terms) == 6
    wide = buchberger([_x_to_the(g, k) for g in gens], T3_ZYX)
    assert wide.elements == tuple(_x_to_the(g, k) for g in small.elements)
    assert wide.leading_monomials() == [(k * i, j, l) for i, j, l in small.leading_monomials()]
    assert is_groebner_basis(wide.elements, T3_ZYX)
    member = _x_to_the(gens[0] * gens[1] + gens[2], k)
    assert wide.contains(member) and not wide.contains(member + 1)
    # a basis built elsewhere packs its own lead table, as wide as it needs
    assert GroebnerBasis(T3_ZYX, wide.elements).contains(member)


def test_wide_exponents_reduce_and_s_polynomial():
    x, y = Polynomial.monomial(T3, (2**15, 0, 0)), Polynomial.variable(T3, "y")
    big = Polynomial.monomial(T3, (2**16, 0, 0))
    assert reduce(big, [x - y], lex_order(T3)) == y * y
    # y * x^(2^16) - x^(2^15) * (x^(2^15) * y - 1)
    assert s_polynomial(big, x * y - 1, lex_order(T3)) == x
    with pytest.raises(OverflowError):
        buchberger([Polynomial.monomial(T3, (2**63, 0, 0)) - y], lex_order(T3))


# -- the pair update and the reducer rewrite against their references --------------


def _reference_install(k, basis, active, pairs, P):
    """The pair update as it stood before its loops were unrolled: the
    Gebauer-Moeller criteria through ``any`` over every other new pair, and
    the lcm fields of two packed monomials taken with their keys masked
    off."""
    h = basis[k].lm
    guard, low = P.guard, P.low

    def fields(a, b):
        a &= low
        b &= low
        pick = ((((a | guard) - b) & guard) >> (P.width - 1)) * P.fill
        return (a & pick) | (b & ~pick)

    fresh = []
    for i in active:
        g = basis[i].lm
        t = fields(g, h)
        fresh.append((t, t == (g + h) & low, i))
    kept = []
    while fresh:
        p = fresh.pop()
        tg = p[0] | guard
        if p[1] or not any((tg - q[0]) & guard == guard for q in chain(fresh, kept)):
            kept.append(p)
    survivors = [
        p
        for p in pairs
        if ((p[0] | guard) - h) & guard != guard
        or fields(basis[p[1]].lm, h) == p[0] & low
        or fields(basis[p[2]].lm, h) == p[0] & low
    ]
    if len(survivors) < len(pairs):
        pairs[:] = survivors
        heapify(pairs)
    for t, coprime, i in kept:
        if not coprime:
            heappush(pairs, (P.pack(P.unpack(t)), i, k))
    active = [i for i in active if ((basis[i].lm | guard) - h) & guard != guard]
    active.append(k)
    return active


@st.composite
def packings(draw, widths=(16, 32)):
    """A shared packing under lex, grevlex or an elimination order over a
    permuted priority of 2 to 5 variables, with its exponents drawn small
    (so that divisibility is common) or up to the field's limit."""
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["lex", "grevlex", "elimination"]))
    priority = tuple(draw(st.permutations(range(n))))
    block = draw(st.integers(1, n - 1)) if kind == "elimination" else 0
    P = _packing(MonomialOrder(kind, priority, block), draw(st.sampled_from(widths)))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, P.limit))
    return P, st.tuples(*[exponent] * n).map(P.pack)


@st.composite
def pair_updates(draw):
    """(k, lead table, active indices, pair heap, packing) for installing
    the last entry: the active list is any ordered subset of the others,
    and the heap holds the lcm of each drawn pair of earlier entries."""
    P, packed = draw(packings())
    lms = draw(st.lists(packed, min_size=1, max_size=10))
    basis = [groebner._Lead(lm, 1, {lm: 1}, P) for lm in lms]
    k = len(basis) - 1
    active = draw(st.permutations(sorted(draw(st.sets(st.integers(0, k - 1), max_size=k)) if k else [])))
    index_pairs = draw(
        st.lists(st.tuples(st.integers(0, max(k - 1, 0)), st.integers(0, max(k - 1, 0))), max_size=12)
    )
    pairs = [(P.lcm(lms[i], lms[j]), i, j) for i, j in index_pairs if i < j]
    heapify(pairs)
    return k, basis, list(active), pairs, P


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(pair_updates())
def test_the_pair_update_matches_its_reference(case):
    k, basis, active, pairs, P = case
    want_pairs = pairs[:]
    want_active = _reference_install(k, basis, active[:], want_pairs, P)
    got_active = groebner._install(k, basis, active[:], pairs, P)
    assert got_active == want_active
    assert sorted(pairs) == sorted(want_pairs)
    # a valid heap: the next pair popped is the same
    assert [heappop(pairs) for _ in range(len(pairs))] == sorted(want_pairs)


@seed(20261021)
@settings(max_examples=300, deadline=None)
@given(packings().flatmap(lambda c: st.tuples(st.just(c[0]), st.lists(c[1], min_size=1, max_size=8), c[1])))
def test_the_order_filtered_rewrite_test_matches_the_full_scan(case):
    P, monomials, h = case
    terms = dict.fromkeys(monomials, 1)
    e = groebner._Lead(max(terms), 1, terms, P)
    guard = P.guard
    full = any(((m | guard) - h) & guard == guard for m in terms)
    assert groebner._has_multiple(e, h, guard) == full
    # h is drawn among the terms too, so that a divisible term comes up
    for t in terms:
        assert groebner._has_multiple(e, t, guard)


# -- one packing per order ------------------------------------------------------------


def test_equal_orders_share_one_packing(monkeypatch):
    first, second = (MonomialOrder("grevlex", (2, 0, 1)) for _ in range(2))
    assert first is not second and first == second
    gens = [parse_polynomial(g, T3) for g in WIDE_GENERATORS]
    a, b = buchberger(gens, first), buchberger(gens, second)
    P = a._leads[0].pack
    assert b._leads[0].pack is P and _packing(second) is P and P.width == 16
    used = []
    widening = groebner._widening
    monkeypatch.setattr(groebner, "_widening", lambda P, run: used.append(P) or widening(P, run))
    reduce(gens[0] * gens[1] + 1, b.elements, second)
    s_polynomial(gens[0], gens[1], second)
    assert is_groebner_basis(a.elements, second)
    assert a.contains(gens[2]) and GroebnerBasis(second, b.elements).contains(gens[0])
    assert len(used) == 5 and all(Q is P for Q in used)


def test_an_overflowed_run_reuses_the_wider_packing():
    first, second = (MonomialOrder("lex", (2, 0, 1)) for _ in range(2))
    gens = [_x_to_the(parse_polynomial(g, T3), 2**15 + 3) for g in WIDE_GENERATORS]
    P = buchberger(gens, first)._leads[0].pack
    assert P.width == 32 and P is _packing(second, 32) and P is _packing(first).wider()
    assert buchberger(gens, second)._leads[0].pack is P


# -- membership against a basis over another table ----------------------------------


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z", "w")])
def test_polynomials_over_another_table_are_rejected(names):
    # packed against three variables, x*w would lose w and read as a member of <x>
    other = VariableTable(names)
    f = parse_polynomial("x*y" if len(names) == 2 else "x*w", other)
    order = grevlex_order(T3)
    x = parse_polynomial("x", T3)
    basis = buchberger([x], order)
    with pytest.raises(DimensionMismatchError):
        basis.contains(f)
    with pytest.raises(DimensionMismatchError):
        GroebnerBasis(order, basis.elements).contains(f)
    with pytest.raises(DimensionMismatchError):
        reduce(f, basis.elements, order)
    with pytest.raises(DimensionMismatchError):
        exact_divide(f, x, order)
    with pytest.raises(DimensionMismatchError):
        ideal_membership(f, make_ideal(T3, [x]))
    with pytest.raises(DimensionMismatchError):
        ideal_contains(make_ideal(T3, [x]), make_ideal(other, [f]))


# -- ideal-to-ideal tests on the packed lead tables -----------------------------------

T3_GREVLEX = grevlex_order(T3)
WIDE = 2**14  # its square needs 32-bit fields


def _T3(text: str) -> Polynomial:
    return parse_polynomial(text, T3)


def _reference_cover(I, factors, cap):
    """The radical cover's survivors built from polynomials: the
    reduced-basis elements outside I, multiplied one factor at a time, a
    product dropped when it or its square lies in I."""
    kept = [[g for g in F.groebner().elements if not ideal_membership(g, I)] for F in factors]
    if not all(kept):
        return []
    partial = [Polynomial.constant(T3, 1)]
    for gens in kept:
        if len(partial) * len(gens) > cap:
            return None
        products = dict.fromkeys(p * g for p in partial for g in gens)
        partial = [p for p in products if not _in_radical_by_square(p, I)]
    return partial


def _packed_cover(I, factors, cap):
    survivors = I.groebner().product_cover([F.groebner() for F in factors], cap)
    return None if survivors is None else [p.monic(T3_GREVLEX) for p in survivors]


small_ideals = st.lists(small_polys(T3, SMALL_COEFF), min_size=1, max_size=2).map(
    lambda gens: make_ideal(T3, gens)
)


def _wide(*texts: str):
    """The ideal of the polynomials with x replaced by x^WIDE."""
    return make_ideal(T3, [_x_to_the(_T3(t), WIDE) for t in texts])


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(small_ideals, st.lists(small_ideals, min_size=1, max_size=3), st.sampled_from([2, 60]))
# two squares and a product past 16-bit fields
@example(_wide("y^2", "z"), [_wide("x + y")], 60)
@example(_wide("y^2"), [_wide("x*y")], 60)
@example(_wide("y*z"), [_wide("x + z"), _wide("x - y")], 60)
def test_packed_ideal_tests_match_the_polynomial_reference(I, factors, cap):
    for J in factors:
        assert ideal_contains(I, J) == all(ideal_membership(g, I) for g in J.generators)
    assert _packed_cover(I, factors, cap) == _reference_cover(I, factors, cap)


def test_the_cover_restarts_wider_when_a_square_overflows():
    I, F = _wide("y^2"), _wide("x*y + z")
    gb = I.groebner()
    assert gb._leads[0].pack.width == 16
    # (x^WIDE*y + z)^2 has x^(2*WIDE), past a 16-bit field
    assert gb.product_cover([F.groebner()], 60) == list(F.generators)
    assert gb._leads[0].pack.width == 32
    assert gb.product_cover([_wide("x*y").groebner()], 60) == []


def test_the_zero_ideal_through_the_packed_tests():
    x = _T3("x")
    X = buchberger([x], T3_GREVLEX)
    built = GroebnerBasis(T3_GREVLEX, ())  # builds its empty lead table on first use
    for zero in (buchberger([], T3_GREVLEX), built, built):
        assert zero.contains_ideal(zero) and X.contains_ideal(zero)
        assert not zero.contains_ideal(X)
        # x and x^2 lie outside the zero ideal; a zero factor makes the product zero
        assert zero.product_cover([X], 60) == [x] and X.product_cover([zero], 60) == []
        assert zero.extend([x]).elements == X.elements
        assert zero.leading_monomials() == []
        assert zero.contains(Polynomial.zero(T3)) and not zero.contains(x)
    assert ideal_contains(make_ideal(T3, [x]), make_ideal(T3, []))
    assert not ideal_contains(make_ideal(T3, []), make_ideal(T3, [x]))


def test_the_unit_ideal_through_the_packed_tests():
    one, x = Polynomial.constant(T3, 1), _T3("x")
    unit, X = buchberger([one], T3_GREVLEX), buchberger([x], T3_GREVLEX)
    assert unit.contains_ideal(X) and unit.contains_ideal(unit) and not X.contains_ideal(unit)
    # x lies in the unit ideal; 1 lies outside <x>, and so does its square
    assert unit.product_cover([X, X], 60) == [] and X.product_cover([unit], 60) == [one]
    assert unit.extend([x]).elements == (one,) and X.extend([3 * one]).elements == (one,)
    assert ideal_contains(make_ideal(T3, [one]), make_ideal(T3, [x]))


def test_extending_a_basis_packs_only_the_new_generators(monkeypatch):
    gens = [_T3(g) for g in WIDE_GENERATORS]
    gb = buchberger(gens[:2], T3_GREVLEX)
    leads = list(gb._leads)
    packed = []
    pack_terms = _Packing.pack_terms
    monkeypatch.setattr(_Packing, "pack_terms", lambda P, terms: packed.append(terms) or pack_terms(P, terms))
    extended = gb.extend(gens[2:])
    assert len(packed) == 1
    assert extended.elements == buchberger(gens, T3_GREVLEX).elements
    # the run rewrote its own copy of the lead table
    assert gb._leads == leads and gb.contains(gens[0]) and not gb.contains(gens[2])


def test_packed_tests_reject_another_order():
    x = _T3("x")
    gb = buchberger([x], T3_GREVLEX)
    other = buchberger([x], T3_ZYX)
    with pytest.raises(ValueError):
        gb.contains_ideal(other)
    with pytest.raises(ValueError):
        gb.product_cover([other], 60)
