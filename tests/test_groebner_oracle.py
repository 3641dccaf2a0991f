"""Differential check of the Groebner kernel against sympy's: the reduced
grevlex basis of an ideal, made monic, is unique, so both implementations
must return the same set of polynomials.  Skipped when sympy is missing."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegarb.groebner import buchberger
from omegarb.ideals import elimination, make_ideal
from omegarb.poly import Polynomial, VariableTable, elimination_order, grevlex_order, lex_order
from omegarb.solver import PROFILES, generate_system
from tests.conftest import SMALL_COEFF, small_polys

sympy = pytest.importorskip("sympy")


def sympy_basis(gens, table, order=None):
    """Monic reduced basis of <gens> computed by sympy under ``order``
    (default: grevlex in table order), with sympy's variables listed in the
    order's priority."""
    order = order or grevlex_order(table)
    symbols = sympy.symbols(table.names)
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
            for m, c in g.terms.items()
        )
        for g in gens
    ]
    ranked = [symbols[i] for i in order.priority]
    out = set()
    for p in sympy.groebner(exprs, *ranked, order=order.kind).polys:
        terms = {}
        for ranked_mono, c in p.terms():
            mono = [0] * len(table)
            for i, e in zip(order.priority, ranked_mono):
                mono[i] = e
            terms[tuple(mono)] = Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
        out.add(Polynomial(table, terms).monic(order))
    return out


def assert_matches_sympy(gens, table, order=None):
    order = order or grevlex_order(table)
    ours = buchberger(gens, order).elements
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gens, table, order)


@pytest.mark.parametrize(
    "algebra, profile", [("L1", "bc"), ("L2", "bc"), ("L1", "bi1"), ("L2", "bi1")]
)
def test_shipped_system_basis_matches_sympy(catalog, algebra, profile):
    I = generate_system(catalog[algebra].instantiate(), PROFILES[profile])
    assert_matches_sympy(I.generators, I.table)


TABLES = {3: VariableTable.of("x", "y", "z"), 4: VariableTable.of("x", "y", "z", "w")}


@st.composite
def small_ideals(draw):
    table = TABLES[draw(st.sampled_from(sorted(TABLES)))]
    n = len(table)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    mono = st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: sum(m) <= 3)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda terms: Polynomial(table, terms)
    )
    return table, draw(st.lists(poly, min_size=1, max_size=3))


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(small_ideals())
def test_random_ideal_basis_matches_sympy(data):
    table, gens = data
    assert_matches_sympy(gens, table)


# -- the kernel's other call shapes -------------------------------------------

XYZ = VariableTable.of("x", "y", "z")
XYZT = XYZ.extend("t")


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.lists(small_polys(XYZ, SMALL_COEFF, 2), min_size=1, max_size=2),
    st.lists(small_polys(XYZ, SMALL_COEFF, 2), min_size=1, max_size=2),
)
def test_elimination_lex_basis_matches_sympy(I, J):
    # the shape of ideals.intersect, t*I + (1 - t)*J, under lex with the tag
    # variable first: a lex kernel oracle (ideals.elimination itself uses
    # an elimination order, checked below)
    t = Polynomial.variable(XYZT, "t")
    gens = [t * g.lift(XYZT) for g in I] + [(1 - t) * g.lift(XYZT) for g in J]
    assert_matches_sympy(gens, XYZT, lex_order(XYZT, ["t", "x", "y", "z"]))


@st.composite
def tagged_ideals(draw):
    """Generators in the shape of ideals.intersect, t*I + (1 - t)*J, or of
    ideals.saturate, I + <1 - t*f>, with t the tag to eliminate."""
    t = Polynomial.variable(XYZT, "t")
    lifted = st.lists(small_polys(XYZ, SMALL_COEFF, 2).map(lambda g: g.lift(XYZT)), min_size=1, max_size=2)
    I = draw(lifted)
    if draw(st.booleans()):
        return [t * g for g in I] + [(1 - t) * g for g in draw(lifted)]
    return I + [1 - t * draw(small_polys(XYZ, SMALL_COEFF, 2)).lift(XYZT)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tagged_ideals())
def test_elimination_order_eliminates_the_ideal_sympy_lex_does(gens):
    # the generator sets differ by design (a grevlex basis against lex
    # basis elements), so their reduced grevlex bases are compared
    ours = elimination(make_ideal(XYZT, gens), XYZ.names).generators
    t = XYZT.index("t")
    lex = [
        g
        for g in sympy_basis(gens, XYZT, lex_order(XYZT, ["t", "x", "y", "z"]))
        if not any(m[t] for m in g.terms)
    ]
    order = grevlex_order(XYZT)
    assert ours == buchberger(ours, order).elements  # already the reduced basis
    assert ours == buchberger(lex, order).elements


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(small_polys(XYZ, SMALL_COEFF), min_size=1, max_size=3), small_polys(XYZ, SMALL_COEFF))
def test_prefix_extension_matches_sympy(gens, f):
    # the shape of ideals.radical_membership: a cached basis, lifted, plus
    # 1 - t*f, with no pairs among the cached elements
    gb = buchberger(gens, grevlex_order(XYZ)).elements
    t = Polynomial.variable(XYZT, "t")
    ext = [g.lift(XYZT) for g in gb] + [1 - t * f.lift(XYZT)]
    order = grevlex_order(XYZT)
    with_prefix = buchberger(ext, order, groebner_prefix=len(gb)).elements
    assert with_prefix == buchberger(ext, order).elements
    assert set(with_prefix) == sympy_basis(ext, XYZT, order)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(small_polys(XYZ, SMALL_COEFF), min_size=1, max_size=3), small_polys(XYZ, SMALL_COEFF))
def test_seeded_elimination_matches_sympy(gens, f):
    # the shape of ideals.saturate: a cached grevlex basis, lifted, plus
    # 1 - t*f under the elimination order of t, with the lifted basis as a
    # reduced Groebner basis prefix
    gb = buchberger(gens, grevlex_order(XYZ)).elements
    t = Polynomial.variable(XYZT, "t")
    ext = [g.lift(XYZT) for g in gb] + [1 - t * f.lift(XYZT)]
    order = elimination_order(XYZT, ["t"])
    seeded = buchberger(ext, order, groebner_prefix=len(gb)).elements
    assert seeded == buchberger(ext, order).elements
    tag = XYZT.index("t")
    ours = {g.restrict(XYZ) for g in seeded if not any(m[tag] for m in g.terms)}
    lex = [
        g.restrict(XYZ)
        for g in sympy_basis(ext, XYZT, lex_order(XYZT, ["t", "x", "y", "z"]))
        if not any(m[tag] for m in g.terms)
    ]
    assert ours == (sympy_basis(lex, XYZ) if lex else set())


@st.composite
def scaled_polys(draw):
    # integer coefficients with a common factor, times a rational scale: the
    # inputs are seldom primitive or monic, so both the content stripping and
    # the final division by the leading coefficient have work to do
    content = draw(st.sampled_from([2, 3, 6, 10]))
    scale = draw(st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
    coeff = st.integers(-4, 4).filter(bool).map(lambda k: k * content * scale)
    return draw(small_polys(XYZ, coeff))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(scaled_polys(), min_size=1, max_size=3), st.sampled_from(["grevlex", "lex"]))
def test_non_unit_coefficients_match_sympy(gens, kind):
    order = grevlex_order(XYZ) if kind == "grevlex" else lex_order(XYZ, ["z", "x", "y"])
    assert_matches_sympy(gens, XYZ, order)
