"""Differential check of the Groebner kernel against sympy's: the reduced
grevlex basis of an ideal, made monic, is unique, so both implementations
must return the same set of polynomials.  Skipped when sympy is missing."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegarb.groebner import buchberger
from omegarb.poly import Polynomial, VariableTable, grevlex_order
from omegarb.solver import PROFILES, generate_system

sympy = pytest.importorskip("sympy")


def sympy_basis(gens, table):
    """Monic reduced grevlex basis of <gens> computed by sympy, with the
    table order as sympy's variable order."""
    symbols = sympy.symbols(table.names)
    exprs = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
            for m, c in g.terms.items()
        )
        for g in gens
    ]
    order = grevlex_order(table)
    out = set()
    for p in sympy.groebner(exprs, *symbols, order="grevlex").polys:
        terms = {
            m: Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q))
            for m, c in p.terms()
        }
        out.add(Polynomial(table, terms).monic(order))
    return out


def assert_matches_sympy(gens, table):
    ours = buchberger(gens, grevlex_order(table)).elements
    assert len(set(ours)) == len(ours)
    assert set(ours) == sympy_basis(gens, table)


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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(small_ideals())
def test_random_ideal_basis_matches_sympy(data):
    table, gens = data
    assert_matches_sympy(gens, table)
