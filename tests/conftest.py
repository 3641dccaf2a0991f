import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from omegarb.catalog import load_builtin_catalog
from omegarb.poly import Polynomial


@pytest.fixture(scope="session")
def catalog():
    return load_builtin_catalog()


@pytest.fixture(scope="session")
def L1(catalog):
    return catalog["L1"].instantiate()


@pytest.fixture(scope="session")
def L2(catalog):
    return catalog["L2"].instantiate()


@pytest.fixture(scope="session")
def L1_1(catalog):
    return catalog["L1_1"].instantiate()


@pytest.fixture(scope="session")
def L1_2(catalog):
    return catalog["L1_2"].instantiate()


@pytest.fixture(scope="session")
def L1_8(catalog):
    return catalog["L1_8"].instantiate()


@pytest.fixture(scope="session")
def atilde(catalog):
    def make(alpha):
        return catalog["Atilde_alpha"].instantiate({"alpha": Fraction(alpha)})

    return make


@pytest.fixture
def rng():
    return random.Random(20260811)


def random_rational(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3)))


def random_poly(rng, table, max_terms=4, max_deg=3):
    n = len(table)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_deg) for _ in range(n))
        terms[mono] = random_rational(rng)
    return Polynomial(table, terms)


SMALL_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def small_polys(table, coeff, max_terms=3):
    """Polynomials over ``table`` of degree at most 3, each exponent at
    most 2, with up to ``max_terms`` coefficients drawn from ``coeff``."""
    mono = st.tuples(*[st.integers(0, 2)] * len(table)).filter(lambda m: sum(m) <= 3)
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda terms: Polynomial(table, terms)
    )
