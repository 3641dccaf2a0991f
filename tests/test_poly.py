import re
import sys
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from omegarb.catalog import evaluate_rational_expression
from omegarb.poly import (
    MAX_EXPONENT,
    DimensionMismatchError,
    MonomialOrder,
    PolyParseError,
    Polynomial,
    VariableTable,
    elimination_order,
    grevlex_order,
    lex_order,
    mono_mul,
    parse_polynomial,
    parse_rational,
)

T2 = VariableTable.of("x", "y")
T3 = VariableTable.of("x", "y", "z")


def P(text, table=T3):
    return parse_polynomial(text, table)


# -- monomial comparison ------------------------------------------------------


def test_lex_x2_vs_xy():
    o = lex_order(T2)
    assert o.key((2, 0)) > o.key((1, 1))


def test_grevlex_xz_below_y_squared():
    # same total degree; the exponent difference (1,-2,1) has its last
    # nonzero entry positive, so x*z is the smaller monomial
    o = grevlex_order(T3)
    assert o.key((1, 0, 1)) < o.key((0, 2, 0))


@pytest.mark.parametrize("mono", [(0, 0, 0), (1, 2, 3), (5, 0, 1)])
def test_key_grows_with_each_variable(mono):
    for o in (lex_order(T3), grevlex_order(T3)):
        for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            assert o.key(mono) < o.key(mono_mul(mono, unit))


def test_leading_monomial_rejects_an_order_of_another_length():
    with pytest.raises(DimensionMismatchError):
        P("x + y").leading_monomial(lex_order(T2))
    with pytest.raises(DimensionMismatchError):
        P("x + y", T2).leading_monomial(grevlex_order(T3))


MONO3 = st.tuples(*[st.integers(0, 4)] * 3)


@given(st.dictionaries(MONO3, st.integers(-3, 3).filter(bool), max_size=12))
def test_sorted_terms_descend_by_key(terms):
    p = Polynomial(T3, terms)
    orders = (
        lex_order(T3),
        grevlex_order(T3, ["z", "x", "y"]),
        elimination_order(T3, ["y"]),
        elimination_order(T3, ["x", "z"]),
    )
    for o in orders:
        keys = [o.key(m) for m, _ in p.sorted_terms(o)]
        assert all(a > b for a, b in zip(keys, keys[1:]))
        assert sorted(p.sorted_terms(o)) == sorted(p.terms.items())


def test_grevlex_priority_permutation():
    o = grevlex_order(T3, ["z", "y", "x"])
    # with z largest: z^2 > z*y
    assert o.key((0, 0, 2)) > o.key((0, 1, 1))


# -- elimination orders --------------------------------------------------------

T4 = VariableTable.of("x", "y", "z", "t")
MONO4 = st.tuples(*[st.integers(0, 4)] * 4)
ELIMINATED = [["t"], ["x"], ["y"], ["x", "z"], ["y", "t", "x"]]


def reference_key(eliminated):
    """The elimination order as Cox-Little-O'Shea define it (3.1, Exercise
    6): total degree in the eliminated variables, then grevlex with the
    eliminated variables first and the rest, each block in table order."""
    block = [n for n in T4.names if n in eliminated]
    grevlex = grevlex_order(T4, block + [n for n in T4.names if n not in eliminated])
    idx = [T4.index(n) for n in eliminated]
    return lambda m: (sum(m[i] for i in idx), grevlex.key(m))


@given(MONO4, MONO4, MONO4, st.sampled_from(ELIMINATED))
def test_elimination_order_is_a_monomial_order(a, b, c, eliminated):
    o = elimination_order(T4, eliminated)
    ref = reference_key(eliminated)
    assert (o.key(a) < o.key(b)) == (ref(a) < ref(b))
    assert (o.key(a) == o.key(b)) == (a == b)  # total
    assert (o.key(a) < o.key(b)) == (o.key(mono_mul(a, c)) < o.key(mono_mul(b, c)))
    assert o.key((0, 0, 0, 0)) <= o.key(a)
    assert len(o.key(a)) == len(T4) + 1


@given(MONO4, MONO4, st.sampled_from(ELIMINATED))
def test_elimination_order_ranks_eliminated_monomials_above_the_rest(a, b, eliminated):
    o = elimination_order(T4, eliminated)
    idx = [T4.index(n) for n in eliminated]
    if any(a[i] for i in idx) and not any(b[i] for i in idx):
        assert o.key(a) > o.key(b)


def test_elimination_order_names_its_block():
    o = elimination_order(T4, ["z", "x"])
    assert (o.kind, o.priority, o.block) == ("elimination", (0, 2, 1, 3), 2)
    assert o == elimination_order(T4, ["x", "z", "x"])
    # x*z^2 and x^3 tie on the block; grevlex breaks the tie toward x^3
    assert o.key((3, 0, 0, 0)) > o.key((1, 0, 2, 0))


@pytest.mark.parametrize(
    "eliminated, message",
    [(["q"], "unknown variables \\['q'\\]"), ([], "some, but not all"), (T4.names, "some, but not all")],
)
def test_elimination_order_rejects_out_of_range_sets(eliminated, message):
    with pytest.raises(ValueError, match=message):
        elimination_order(T4, eliminated)


@pytest.mark.parametrize("kind, block", [("elimination", 0), ("elimination", 4), ("grevlex", 1), ("lex", 2)])
def test_monomial_order_checks_the_block(kind, block):
    with pytest.raises(ValueError):
        MonomialOrder(kind, (0, 1, 2, 3), block)


# -- arithmetic ---------------------------------------------------------------


def test_add_cancels():
    assert P("x + y") + P("x - y") == P("2x")


def test_product_matches_worked_example():
    t = VariableTable.of("x12", "x13", "x21", "x22", "x23")
    f = parse_polynomial("x12*x21 + x22^2", t) * parse_polynomial("x12", t)
    assert f == parse_polynomial("x12^2*x21 + x12*x22^2", t)


def test_multiply_by_zero():
    f = P("x^2*y - 3*z")
    assert f * Polynomial.zero(T3) == Polynomial.zero(T3)
    assert f.scale(0).is_zero()


def test_table_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        P("x", T2) + P("x", T3)


# -- evaluation ---------------------------------------------------------------


def test_evaluate_satisfies_quadratic_constraint():
    t = VariableTable.of("a", "b", "c")
    f = parse_polynomial("a^2 + b*c", t)
    assert f.evaluate({"a": 1, "b": 1, "c": -1}) == 0


def test_evaluate_linear_relation_at_point():
    t = VariableTable.of("a", "b", "c", "d", "r", "u")
    f = parse_polynomial("a*b + d*u + c*r", t)
    point = {"a": 0, "b": 0, "c": 1, "d": 0, "r": 0, "u": 0}
    assert f.evaluate(point) == 0
    assert f.evaluate(dict(point, r=2)) == 2


# -- canonical form and ring axioms -------------------------------------------


def test_normalization_idempotent():
    f = Polynomial(T3, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(0)})
    again = Polynomial(T3, dict(f.terms))
    assert f.terms == again.terms
    assert (0, 1, 0) not in f.terms


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
monos = st.tuples(*(st.integers(0, 3) for _ in range(3)))
polys = st.dictionaries(monos, coeffs, max_size=4).map(
    lambda d: Polynomial(T3, d)
)


def as_fractions(f):
    return {m: Fraction(c) for m, c in f.terms.items()}


def assert_canonical(f):
    """Each coefficient of f is an int, or a Fraction whose denominator is
    above 1, and f equals, and hashes equal to, the polynomial of the same
    values given as Fractions."""
    for c in f.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)
    g = Polynomial(f.table, as_fractions(f))
    assert f == g and hash(f) == hash(g) and f.terms == g.terms


small_polys = st.dictionaries(
    st.tuples(*(st.integers(0, 2) for _ in range(3))), coeffs, max_size=3
).map(lambda d: Polynomial(T3, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, coeffs, monos, small_polys, small_polys)
def test_coefficients_are_canonical(f, g, q, mono, a, b):
    from omegarb.groebner import buchberger, exact_divide, reduce

    order = grevlex_order(T3)
    F, G = as_fractions(f), as_fractions(g)
    # the arithmetic against the same sums and products taken in Fractions
    total, difference, product = dict(F), dict(F), {}
    for m, c in G.items():
        total[m] = total.get(m, Fraction(0)) + c
        difference[m] = difference.get(m, Fraction(0)) - c
    for m, c in F.items():
        for n, d in G.items():
            k = mono_mul(m, n)
            product[k] = product.get(k, Fraction(0)) + c * d
    for result, want in (
        (f + g, total),
        (f - g, difference),
        (f * g, product),
        (f.scale(q), {m: c * q for m, c in F.items()}),
        (f.mul_term(mono, q), {mono_mul(m, mono): c * q for m, c in F.items()}),
    ):
        assert_canonical(result)
        assert result.terms == {m: c for m, c in want.items() if c}
    results = [f.monic(order), f.primitive(order), f.lift(T3.extend("t"))]
    results.append(reduce(f, [a, b], order))
    if g:
        quotient = exact_divide(f * g, g, order)
        assert quotient == f
        results.append(quotient)
    results.extend(buchberger([a, b], order).elements)
    for result in results:
        assert_canonical(result)
    if f:
        assert f.monic(order).leading_coefficient(order) == 1


def test_float_coefficients_are_rejected():
    T = VariableTable.of("x", "y")
    # Fraction(0.1) would store 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Polynomial(T, {(1, 0): 0.1})
    with pytest.raises(TypeError):
        Polynomial.constant(T, 0.5)
    with pytest.raises(TypeError):
        Polynomial.variable(T, "x").scale(0.5)
    with pytest.raises(TypeError):
        Polynomial.variable(T, "x").evaluate({"x": 0.5})


@pytest.mark.parametrize("other", [0.5, "a"])
@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_arithmetic_with_another_operand_type_raises_type_error(op, other):
    # the operation returns NotImplemented, so Python raises TypeError
    x = Polynomial.variable(T3, "x")
    with pytest.raises(TypeError):
        op(x, other)
    with pytest.raises(TypeError):
        op(other, x)


# ints and Fractions, with integral Fractions among the drawn values
SCALARS = st.one_of(st.integers(-3, 3), coeffs, st.integers(-3, 3).map(lambda k: Fraction(2 * k, 2)))


@st.composite
def merging_pairs(draw):
    """(f, g) over T3 where g takes some of f's monomials with a value that
    cancels f's term in f + g or in f - g, or makes that sum or difference
    integral, and others with any value."""
    f = Polynomial(T3, draw(st.dictionaries(monos, SCALARS, max_size=5)))
    g = dict(draw(st.dictionaries(monos, SCALARS, max_size=3)))
    for m, c in f.terms.items():
        k = draw(st.integers(-2, 2))
        g[m] = draw(st.sampled_from([-c, c, k - c, c - k, c + Fraction(1, 2)]))
    return f, Polynomial(T3, g)


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(merging_pairs(), SCALARS)
def test_arithmetic_keeps_the_stored_form(fg, q):
    f, g = fg
    F, G = as_fractions(f), as_fractions(g)
    total, difference, product = dict(F), dict(F), {}
    for m, c in G.items():
        total[m] = total.get(m, Fraction(0)) + c
        difference[m] = difference.get(m, Fraction(0)) - c
    for m, c in F.items():
        for n, d in G.items():
            k = mono_mul(m, n)
            product[k] = product.get(k, Fraction(0)) + c * d
    constant = (0, 0, 0)
    plus_q, minus_q = dict(F), {m: -c for m, c in F.items()}
    plus_q[constant] = plus_q.get(constant, Fraction(0)) + q
    minus_q[constant] = minus_q.get(constant, Fraction(0)) + q
    for result, want in (
        (f + g, total),
        (f - g, difference),
        (-f, {m: -c for m, c in F.items()}),
        (f * g, product),
        (f + q, plus_q),
        (q + f, plus_q),
        (f - q, {m: -c for m, c in minus_q.items()}),
        (q - f, minus_q),
        (f * q, {m: c * q for m, c in F.items()}),
        (q * f, {m: c * q for m, c in F.items()}),
    ):
        # the validating constructor's result, and no zero stored
        assert result.terms == Polynomial(T3, want).terms
        assert all(result.terms.values())
        assert_canonical(result)
    mixed = Polynomial.variable(T2, "x")
    for op in (add, sub, mul):
        for a, b in ((f, mixed), (mixed, f)):
            with pytest.raises(DimensionMismatchError):
                op(a, b)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_leading_term_multiplicative(f, g):
    for order in (lex_order(T3), grevlex_order(T3)):
        if f.is_zero() or g.is_zero():
            continue
        mf, cf = f.leading_term(order)
        mg, cg = g.leading_term(order)
        mfg, cfg = (f * g).leading_term(order)
        assert mfg == tuple(a + b for a, b in zip(mf, mg))
        assert cfg == cf * cg


# -- parsing and printing ------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    ["0", "1", "-5/3", "x", "x^2*y - 3*z", "x12*x21 + x22^2", "2*x - 1/2"],
)
def test_parse_print_round_trip(text):
    table = VariableTable.of("x", "y", "z", "x12", "x21", "x22")
    f = parse_polynomial(text, table)
    assert parse_polynomial(f.to_text(), table) == f


@settings(max_examples=60, deadline=None)
@given(polys)
def test_random_round_trip(f):
    assert parse_polynomial(f.to_text(), T3) == f


def test_implicit_multiplication_and_spaces():
    assert P("2x y") == P("2*x*y")
    assert P("x(y + z)") == P("x*y + x*z")


def test_unknown_variable_rejected():
    with pytest.raises(PolyParseError):
        P("q + x")


def test_float_literal_rejected():
    for text in ("0.5*x", "1/0*x"):
        with pytest.raises(PolyParseError):
            P(text)


def test_deep_nesting_rejected():
    deep = "(" * 3000 + "x" + ")" * 3000
    with pytest.raises(PolyParseError, match="nested too deeply"):
        P(deep)
    assert P("(" * 50 + "x" + ")" * 50) == P("x")


TAB = VariableTable.of("a", "b")
AT_3_1 = {"a": 3, "b": 1}


@pytest.mark.parametrize(
    "text, value",
    [("-a^2", -9), ("2*-a^2", -18), ("b - -a^2", 10), ("b+-a^2", -8), ("2 -a^2", -7), ("(-a)^2", 9)],
)
def test_unary_minus_binds_looser_than_power(text, value):
    assert parse_polynomial(text, TAB).evaluate(AT_3_1) == value


def test_exponent_bound():
    assert P(f"x^{MAX_EXPONENT}") == Polynomial.monomial(T3, (MAX_EXPONENT, 0, 0))
    for text in (f"x^{MAX_EXPONENT + 1}", "y + x^100000", "x^9999999999"):
        with pytest.raises(PolyParseError, match=f"above the limit {MAX_EXPONENT} at position {text.index('^') + 1}"):
            P(text)


def test_nested_powers_multiply_against_the_bound():
    assert P("(x^8)^8") == Polynomial.monomial(T3, (64, 0, 0))
    assert P("(x^8 + y)^2 * z^64") == P("x^16 z^64 + 2 x^8 y z^64 + y^2 z^64")
    for text, power, at in [("(x^8)^9", 72, 6), ("((2^64)^64)^64", 4096, 8), ("(x^8 - y)^9", 72, 10)]:
        with pytest.raises(
            PolyParseError,
            match=fr"nested exponents multiply to {power}, above the limit 64 at position {at} ",
        ):
            P(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("x + )", "expected a term, found ')' at position 4"),
        ("x +  y^ 99", "exponent 99 is above the limit 64 at position 8"),
        ("  q", "unknown name 'q' at position 2"),
        ("x ^ y", "exponent must be a nonnegative integer at position 4"),
        ("x + $", "unexpected character '$' at position 4"),
        ("x +  1/0", "zero denominator in '1/0' at position 5"),
        ("\t(x", "expected ')' at position 3"),
    ],
)
@pytest.mark.parametrize(
    "read",
    [lambda t: P(t), lambda t: evaluate_rational_expression(t, {"x": 1, "y": 2})],
    ids=["polynomial", "operator-entry"],
)
def test_error_position_is_the_token_start(text, message, read):
    # whitespace before a token is not part of it
    with pytest.raises(PolyParseError, match=re.escape(message)):
        read(text)


@pytest.mark.parametrize("text", ["x/y", "x / 2", "(x/y)", "2*x/3"])
def test_division_rejected_in_polynomial_text(text):
    with pytest.raises(PolyParseError, match="position"):
        P(text)


@pytest.mark.parametrize("text", ["2^2^2", "x^2^2", "(x^2)^2^2"])
def test_second_power_rejected(text):
    with pytest.raises(PolyParseError, match="'\\^'"):
        P(text)


def test_unary_plus_only_at_the_start_or_after_open_parenthesis():
    assert P("+x") == P("(+x)") == P("x")
    assert P("+-x") == P("-x")
    for text in ("x + +y", "x*+y", "-+x", "++x"):
        with pytest.raises(PolyParseError, match="expected a term, found '\\+'"):
            P(text)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int() has no digit limit")
def test_overlong_literal_is_a_parse_error():
    n = sys.get_int_max_str_digits() + 1  # int() refuses literals this long
    for text in ("1" * n, "x^" + "1" * n, "1/" + "3" * n):
        with pytest.raises(PolyParseError, match="number too long"):
            P(text)


def test_long_minus_chain_is_not_nesting():
    assert P("-" * 5001 + "x") == P("-x")


def test_rational_round_trip():
    for s in ("3", "-3", "3/4", "-17/5", "0"):
        q = parse_rational(s)
        assert parse_rational(str(q)) == q
    with pytest.raises(PolyParseError):
        parse_rational("1.5")


def test_rational_literals_are_the_grammar_numbers():
    # Fraction() alone also reads 1e3, 1_000 and 1e5000
    for text, want in (("3", 3), (" -3/4 ", Fraction(-3, 4)), ("+2", 2), ("10/4", Fraction(5, 2))):
        assert parse_rational(text) == want
    for text in ("1e3", "1_000", "1e5000", "0x10", "- 3", "--3", "3/-4", "3 / 4", "1/0", "", "+", "x"):
        with pytest.raises(PolyParseError, match="bad rational literal"):
            parse_rational(text)


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int() has no digit limit")
def test_overlong_rational_literal_is_named_briefly():
    with pytest.raises(PolyParseError, match="number too long") as exc:
        parse_rational("-" + "1" * (sys.get_int_max_str_digits() + 1))
    assert len(str(exc.value)) < 200


def test_printer_uses_order():
    f = P("x + y^2")
    assert f.to_text(lex_order(T3)) == "x + y^2"
    assert f.to_text(grevlex_order(T3)) == "y^2 + x"
