"""Ideal algebra on the 9-entry operator ring and small toy rings."""

import gc
from fractions import Fraction

import pytest

from omegarb import ideals
from omegarb.groebner import GroebnerBasis
from omegarb.ideals import (
    EMPTY_VARIETY,
    colon,
    elimination,
    ideal_contains,
    ideal_equal,
    ideal_membership,
    intersect,
    krull_dim,
    make_ideal,
    parse_ideal,
    product,
    radical_contains,
    radical_membership,
    saturate,
    split_heuristic,
)
from omegarb.poly import DimensionMismatchError, VariableTable, parse_polynomial
from omegarb.solver import PROFILES, generate_system

A = VariableTable.of(*[f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)])
B5 = VariableTable.of("x12", "x13", "x21", "x22", "x23")
TXY = VariableTable.of("x", "y")


def PA(s):
    return parse_polynomial(s, A)


def PB(s):
    return parse_polynomial(s, B5)


def PXY(s):
    return parse_polynomial(s, TXY)


@pytest.fixture(scope="module")
def six_gen_ideal():
    # the radical ideal cutting out the compatible weight-0 variety on L1
    return make_ideal(
        A,
        [
            PA(s)
            for s in [
                "x31",
                "x32",
                "x33",
                "x11 + x22",
                "x12*x21 + x22^2",
                "x12*x23 - x13*x22",
            ]
        ],
    )


@pytest.fixture(scope="module")
def minors():
    return [PB("x12*x21 + x22^2"), PB("x12*x23 - x13*x22"), PB("x13*x21 + x22*x23")]


# -- membership ----------------------------------------------------------------


def test_two_argument_entry_points_reject_mismatched_tables():
    # one check raises the one error, before any basis is computed
    I, J, f = make_ideal(A, [PA("x11")]), make_ideal(B5, [PB("x12")]), PB("x12")
    calls = {
        "ideal_membership": lambda: ideal_membership(f, I),
        "ideal_contains": lambda: ideal_contains(I, J),
        "ideal_equal": lambda: ideal_equal(I, J),
        "intersect": lambda: intersect(I, J),
        "product": lambda: product(I, J),
        "colon": lambda: colon(I, f),
        "saturate": lambda: saturate(I, f),
        "radical_membership": lambda: radical_membership(f, I),
        "radical_contains": lambda: radical_contains(I, J),
    }
    for name, call in calls.items():
        with pytest.raises(DimensionMismatchError, match="different variable tables"):
            call()
        assert not I._cache and not J._cache, name


def test_known_multiple_is_member(six_gen_ideal):
    assert ideal_membership(PA("x11*(x13*x21 + x22*x23)"), six_gen_ideal)


def test_zero_always_member(six_gen_ideal):
    from omegarb.poly import Polynomial

    assert ideal_membership(Polynomial.zero(A), six_gen_ideal)


def test_one_not_in_proper_ideal():
    assert not ideal_membership(PA("1"), make_ideal(A, [PA("x11")]))


# -- elimination ----------------------------------------------------------------


def test_elimination_drops_tag_variable(minors):
    T = VariableTable.of("z", "x12", "x13", "x21", "x22", "x23")
    z = parse_polynomial("z", T)
    lift = lambda f: parse_polynomial(f.to_text(), T)
    x12 = parse_polynomial("x12", T)
    J = make_ideal(
        T,
        [z * lift(m) for m in minors] + [x12 * (parse_polynomial("1", T) - z)],
    )
    eliminated = elimination(J, ["x12", "x13", "x21", "x22", "x23"])
    expected = make_ideal(T, [x12 * lift(m) for m in minors])
    assert ideal_equal(eliminated, expected)


def test_eliminate_nothing_is_identity(six_gen_ideal):
    assert elimination(six_gen_ideal, A.names) is six_gen_ideal


def test_elimination_can_be_zero_ideal():
    I = make_ideal(TXY, [PXY("x - y")])
    assert elimination(I, ["y"]).is_zero_ideal()


# -- intersection ----------------------------------------------------------------


def test_intersection_with_principal(minors):
    L = make_ideal(B5, minors)
    x12 = PB("x12")
    meet = intersect(L, make_ideal(B5, [x12]))
    assert ideal_equal(meet, make_ideal(B5, [x12 * m for m in minors]))


def test_intersection_idempotent(six_gen_ideal):
    assert ideal_equal(intersect(six_gen_ideal, six_gen_ideal), six_gen_ideal)


def test_intersection_of_monomial_ideals():
    I = make_ideal(TXY, [PXY("x")])
    J = make_ideal(TXY, [PXY("y")])
    assert ideal_equal(intersect(I, J), make_ideal(TXY, [PXY("x*y")]))


# -- colon and saturation ---------------------------------------------------------


def test_colon_stability_of_minor_ideal(minors):
    L = make_ideal(B5, minors)
    assert ideal_equal(colon(L, PB("x12")), L)


def test_colon_by_constant(six_gen_ideal):
    assert ideal_equal(colon(six_gen_ideal, PA("1")), six_gen_ideal)


def test_colon_divides_out():
    I = make_ideal(TXY, [PXY("x*y")])
    assert ideal_equal(colon(I, PXY("x")), make_ideal(TXY, [PXY("y")]))


def test_colon_by_zero_rejected(six_gen_ideal):
    from omegarb.poly import Polynomial

    with pytest.raises(ValueError):
        colon(six_gen_ideal, Polynomial.zero(A))


def test_saturation_strips_powers():
    T = TXY
    I = make_ideal(T, [PXY("x^2*y")])
    assert ideal_equal(saturate(I, PXY("y")), make_ideal(T, [PXY("x^2")]))


def test_saturation_of_stable_ideal(minors):
    L = make_ideal(B5, minors)
    assert ideal_equal(saturate(L, PB("x12")), L)


def test_saturation_idempotent():
    I = make_ideal(TXY, [PXY("x^2*y^3")])
    s1 = saturate(I, PXY("y"))
    assert ideal_equal(saturate(s1, PXY("y")), s1)


def test_colon_identity_property(six_gen_ideal, rng):
    f = PA("x12 + 2*x22")
    quotient = colon(six_gen_ideal, f)
    for g in quotient.generators:
        assert ideal_membership(f * g, six_gen_ideal)
    for g in six_gen_ideal.generators:
        assert ideal_membership(g, quotient)


# -- product ----------------------------------------------------------------------


def test_product_generators_land_in_intersection(six_gen_ideal):
    p1 = make_ideal(A, [PA(s) for s in ["x11", "x12", "x22", "x31", "x32", "x33"]])
    p2 = make_ideal(
        A,
        [
            PA(s)
            for s in [
                "x31",
                "x32",
                "x33",
                "x11 + x22",
                "x12*x21 + x22^2",
                "x12*x23 - x13*x22",
                "x13*x21 + x22*x23",
            ]
        ],
    )
    prod = product(p1, p2)
    assert all(ideal_membership(g, six_gen_ideal) for g in prod.generators)


def test_product_with_unit_ideal(six_gen_ideal):
    one = make_ideal(A, [PA("1")])
    assert ideal_equal(product(six_gen_ideal, one), six_gen_ideal)


def test_product_of_principal_ideals():
    I = make_ideal(TXY, [PXY("x")])
    J = make_ideal(TXY, [PXY("y")])
    assert ideal_equal(product(I, J), make_ideal(TXY, [PXY("x*y")]))


# -- radical membership -------------------------------------------------------------


def test_radical_detects_nilpotent():
    I = make_ideal(TXY, [PXY("x^2")])
    assert radical_membership(PXY("x"), I)
    assert not ideal_membership(PXY("x"), I)


def test_radical_membership_by_square_needs_no_groebner_run(monkeypatch):
    # (x*y)^2 lies in <x^2*y^2> and x*y does not: normal forms settle it
    I = make_ideal(TXY, [PXY("x^2*y^2")])
    I.groebner()

    def refuse(*args, **kwargs):
        raise AssertionError("a basis computed")

    monkeypatch.setattr(ideals, "buchberger", refuse)
    monkeypatch.setattr(GroebnerBasis, "extend", refuse)
    assert not ideal_membership(PXY("x*y"), I)
    assert radical_membership(PXY("x*y"), I)


def test_radical_membership_past_the_square_runs_rabinowitsch(monkeypatch):
    # x^2 is not in <x^3>, so x in sqrt(<x^3>) needs 1 in <x^3, 1 - t*x>
    I = make_ideal(TXY, [PXY("x^3")])
    I.groebner()
    calls = []
    run = GroebnerBasis.extend
    monkeypatch.setattr(GroebnerBasis, "extend", lambda self, gens: calls.append(gens) or run(self, gens))
    assert not ideal_membership(PXY("x^2"), I)
    assert radical_membership(PXY("x"), I)
    assert len(calls) == 1


def test_radical_rejects_unit():
    assert not radical_membership(PXY("1"), make_ideal(TXY, [PXY("x")]))


def test_radical_consistent_with_membership(six_gen_ideal):
    f = PA("x11*(x13*x21 + x22*x23)")
    assert ideal_membership(f, six_gen_ideal)
    assert radical_membership(f, six_gen_ideal)


def test_generators_in_radical_of_component_product(six_gen_ideal):
    p1 = make_ideal(A, [PA(s) for s in ["x11", "x12", "x22", "x31", "x32", "x33"]])
    p2 = make_ideal(
        A,
        [
            PA(s)
            for s in [
                "x31",
                "x32",
                "x33",
                "x11 + x22",
                "x12*x21 + x22^2",
                "x12*x23 - x13*x22",
                "x13*x21 + x22*x23",
            ]
        ],
    )
    prod = product(p1, p2)
    for g in six_gen_ideal.generators:
        assert radical_membership(g, prod)


# -- dimension -----------------------------------------------------------------------


def test_dim_of_zero_ideal():
    assert krull_dim(make_ideal(A, ())) == 9


def test_dim_of_maximal_ideal():
    I = make_ideal(TXY, [PXY("x"), PXY("y")])
    assert krull_dim(I) == 0


def test_dim_of_six_gen_ideal(six_gen_ideal):
    assert krull_dim(six_gen_ideal) == 3


def test_dim_of_published_sixteen_variable_basis():
    A4 = VariableTable.of(*[f"x{i}{j}" for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)])
    gens = [
        "x11",
        "x12",
        "x13",
        "x41",
        "x42",
        "x43",
        "x44",
        "x22 + x33",
        "x14*x21 + x23*x34 - x24*x33",
        "x14*x31 + x24*x32 + x33*x34",
        "x23*x32 + x33^2",
        "x21*x32 + x31*x33",
        "x21*x33 - x23*x31",
    ]
    I = make_ideal(A4, [parse_polynomial(s, A4) for s in gens])
    assert krull_dim(I) == 5


def test_empty_variety_marker():
    I = make_ideal(TXY, [PXY("x"), PXY("x + 1")])
    assert krull_dim(I) is EMPTY_VARIETY


def test_dimension_monotone_under_containment(six_gen_ideal):
    larger = make_ideal(A, six_gen_ideal.generators + (PA("x13"),))
    d1, d2 = krull_dim(six_gen_ideal), krull_dim(larger)
    assert d1 >= d2


def test_split_and_dimension_leave_no_reference_cycles(L1):
    # a cycle outlives its call until the cyclic collector runs, and the
    # split's would hold every leaf (its Ideals, cached bases, lead tables)
    I = generate_system(L1, PROFILES["bi1"])
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        leaves = split_heuristic(I).ideals
        dim = krull_dim(I)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(leaves) == 3 and dim == 2
    assert garbage == 0


# -- equality and serialization --------------------------------------------------------


def test_ideal_equal_examples(minors):
    L = make_ideal(B5, minors)
    assert ideal_equal(colon(L, PB("x12")), L)
    I = make_ideal(TXY, [PXY("x")])
    assert ideal_equal(I, make_ideal(TXY, [PXY("x"), PXY("x^2")]))
    assert not ideal_equal(I, make_ideal(TXY, [PXY("x^2")]))


def test_ideal_text_round_trip(six_gen_ideal):
    from omegarb.ideals import ideal_to_text

    text = ideal_to_text(six_gen_ideal)
    again = parse_ideal(text, A)
    assert ideal_equal(six_gen_ideal, again)
    commented = "# header\n\n" + text + "\n"
    assert ideal_equal(parse_ideal(commented, A), six_gen_ideal)


def test_groebner_cache_returns_same_basis(six_gen_ideal):
    first = six_gen_ideal.groebner()
    assert all(six_gen_ideal.groebner() is first for _ in range(3))
