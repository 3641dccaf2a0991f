"""System generation against the published 3-dimensional computation, the
membership/classification cross-oracle, and the component machinery."""

import hashlib
import random
from fractions import Fraction

import pytest

from omegarb.algebras import (
    OmegaAlgebra,
    OperatorMatrix,
    apply_operator,
    classify_map,
    form_value,
    operator_square,
    structure_product,
)
from omegarb.ideals import (
    ideal_contains,
    ideal_equal,
    ideal_membership,
    krull_dim,
    make_ideal,
    radical_membership,
    sample_points,
)
from omegarb.linalg import identity
from omegarb.poly import Polynomial, grevlex_order, parse_polynomial
from omegarb.solver import (
    PROFILES,
    ConstraintProfile,
    GenericOperator,
    analyze_variety,
    entry_name,
    generate_equations,
    generate_system,
    membership_check,
    profile_by_name,
    profile_flags_match,
)
from tests.conftest import random_rational

NINE_EQUATIONS = [
    "x23*x31 - x23*x32 - x33^2",
    "x21*x32 - x22*x32 - x32*x33",
    "x21*x31 - x22*x31 - x31*x33",
    "x13*x32 + x23*x32",
    "x12*x31 + x21*x32",
    "x12*x21 - x13*x32 + x22^2",
    "x11*x32 - x12*x31 - x12*x32 - x22*x32",
    "x11*x21 - x13*x31 + x21*x22",
    "x11*x23 - x12*x23 + x13*x22 - x13*x33 + x22*x23",
]

SIX_GENERATORS = [
    "x31",
    "x32",
    "x33",
    "x11 + x22",
    "x12*x21 + x22^2",
    "x12*x23 - x13*x22",
]


def test_weight_zero_system_is_the_nine_equations(L1):
    I = generate_system(L1, ConstraintProfile(weight=0))
    order = grevlex_order(I.table)
    expected = {
        parse_polynomial(s, I.table).primitive(order) for s in NINE_EQUATIONS
    }
    assert set(I.generators) == expected


def test_compatibility_adds_three_linear_relations(L1):
    base = set(generate_system(L1, ConstraintProfile(weight=0)).generators)
    full = generate_system(L1, ConstraintProfile(weight=0, compatible=True))
    extra = set(full.generators) - base
    assert {g.to_text() for g in extra} == {"x31", "x32", "x11 + x22"}


def test_combined_system_cuts_out_the_six_generator_variety(L1):
    """The combined equations and the six displayed generators define the
    same variety: containment one way is exact, the other holds radically
    (the equations contain x33^2 but not x33 itself)."""
    I = generate_system(L1, ConstraintProfile(weight=0, compatible=True))
    P6 = make_ideal(I.table, [parse_polynomial(s, I.table) for s in SIX_GENERATORS])
    assert all(ideal_membership(g, P6) for g in I.generators)
    assert all(radical_membership(g, I) for g in P6.generators)
    x33 = parse_polynomial("x33", I.table)
    assert not ideal_membership(x33, I)
    assert radical_membership(x33, I)


def test_abelian_algebra_gives_zero_ideal():
    L = OmegaAlgebra.from_brackets(["a", "b"], {}, {})
    for name in ("b", "bc", "bi1"):
        profile = profile_by_name(name)
        if profile.isometric:
            continue
        assert generate_system(L, profile).is_zero_ideal()
    assert not generate_system(
        L, ConstraintProfile(weight=0, square_zero=True)
    ).is_zero_ideal()


def test_square_zero_profile_entries(L1_2):
    I = generate_system(L1_2, PROFILES["bs"])
    assert krull_dim(I) == 5


# sha256 over every defined catalog entry and profile: the generators of
# generate_system, then the equations of generate_equations
GENERATED_EQUATIONS_SHA256 = "e8e6354ecc9be85b607c08ca7c92f0d1b93c63975ba290b584be5f8f7d7fa615"


def test_generated_equations_pinned(catalog):
    h = hashlib.sha256()
    for name in sorted(catalog):
        if not catalog[name].has_definition:
            continue
        L = catalog[name].instantiate()
        for p in sorted(PROFILES):
            generate_system.cache_clear()
            gens = generate_system(L, PROFILES[p]).generators
            h.update((name + p + "|".join(g.to_text() for g in gens)).encode())
            equations = generate_equations(L, PROFILES[p])[1]
            h.update("|".join(e.to_text() for e in equations).encode())
    assert h.hexdigest() == GENERATED_EQUATIONS_SHA256


def _reversed_pair_equations(L, profile):
    """The identities expanded on every pair (e_i, e_j) with i > j, straight
    from the product, form and operator helpers, over the stored form as
    `generate_equations` reads it.  The helpers take the ring entries on the
    left, so [e_i, R e_j] is taken as -[R e_j, e_i]."""
    R = GenericOperator.of_dimension(L.dim)
    zero = Polynomial.zero(R.table)
    _, c, omega = L.integral
    rows, unit = R.entries, identity(L.dim)
    out = []
    for i in range(L.dim):
        for j in range(i):
            r_i, r_j = rows[i], rows[j]
            left = structure_product(c, r_i, unit[j], zero)
            right = structure_product(c, r_j, unit[i], zero)
            inner = [a - b + profile.weight * x for a, b, x in zip(left, right, c[i][j])]
            image = structure_product(c, r_i, r_j, zero)
            out.extend(a - b for a, b in zip(image, apply_operator(rows, inner, zero)))
            if profile.compatible:
                out.append(form_value(omega, r_i, unit[j], zero) - form_value(omega, r_j, unit[i], zero))
            if profile.isometric:
                out.append(form_value(omega, r_i, r_j, zero) - omega[i][j])
    if profile.square_zero:
        out.extend(p for row in operator_square(rows, zero) for p in row)
    return R, out


def test_pair_order_does_not_matter(L1, L1_8, atilde):
    # expanding the identities on (e_j, e_i) instead of (e_i, e_j) negates
    # each polynomial, so the sign-normalized generator sets coincide; the
    # reference takes each pair from the product and form helpers, not from
    # the tables of the one pass over the pairs
    for L in (L1, L1_8, atilde(Fraction(-1, 4))):
        for profile in PROFILES.values():
            R, rev = _reversed_pair_equations(L, profile)
            order = grevlex_order(R.table)
            norm = lambda polys: {p.primitive(order) for p in polys if p}
            assert norm(generate_equations(L, profile)[1]) == norm(rev)


# -- membership ----------------------------------------------------------------


def test_membership_of_generic_compatible_operator(L1):
    # a = 1, b = 1, c = -1 (so a^2 + bc = 0), d = 1, e = 1 (so ad = be)
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    assert membership_check(L1, PROFILES["bc"], R)


def test_membership_weight_zero_family_on_dim_four(L1_1):
    a, b, d, r, s = map(Fraction, (1, 1, 0, 0, 0))
    R = OperatorMatrix(
        [
            [a, 0, 0, -b],
            [-a * d / b, 0, 0, d],
            [r, 0, 0, s],
            [a * a / b, 0, 0, -a],
        ]
    )
    assert membership_check(L1_1, PROFILES["b"], R)


def test_zero_operator_membership(L1, L2):
    for L in (L1, L2):
        for name, profile in PROFILES.items():
            expected = not profile.isometric  # the zero map is never isometric here
            assert membership_check(L, profile, OperatorMatrix.zero(L.dim)) == expected


def test_published_example_operator_is_rb_but_not_compatible(atilde):
    """The displayed 4-dimensional example operator satisfies the
    Rota-Baxter identity but violates compatibility (a verified internal
    inconsistency of the source tables: compatibility forces the three
    upper-right entries to vanish)."""
    L = atilde(Fraction(-1, 4))
    a = b = c = Fraction(1)
    R = OperatorMatrix(
        [
            [-a, 0, 0, -a * a / b],
            [4 * b, c / 2, c, 4 * a - 2 * c],
            [0, -c / 4, -c / 2, c],
            [b, 0, 0, a],
        ]
    )
    assert membership_check(L, PROFILES["b"], R)
    assert not membership_check(L, PROFILES["bc"], R)
    cls = classify_map(L, R, 0)
    assert cls.is_rb and not cls.is_compatible


# -- cross-oracle ----------------------------------------------------------------


def _random_operator(rng, n):
    return OperatorMatrix(
        [[random_rational(rng) for _ in range(n)] for _ in range(n)]
    )


def test_membership_agrees_with_classification(L1, L2, rng):
    for L in (L1, L2):
        for profile in PROFILES.values():
            for _ in range(40):
                R = _random_operator(rng, L.dim)
                assert membership_check(L, profile, R) == profile_flags_match(
                    L, profile, R
                )


def test_membership_agrees_on_variety_points(L1, rng):
    # points on the variety itself, where both oracles must say yes
    from omegarb.ideals import PrimalityCertificate

    I = generate_system(L1, PROFILES["bc"])
    p2 = make_ideal(
        I.table,
        [
            parse_polynomial(s, I.table)
            for s in SIX_GENERATORS + ["x13*x21 + x22*x23"]
        ],
    )
    pts = sample_points(p2, PrimalityCertificate(inverted=frozenset(["x12"])), 6, rng)
    for pt in pts:
        R = OperatorMatrix([[pt[entry_name(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)])
        assert membership_check(L1, PROFILES["bc"], R)
        assert profile_flags_match(L1, PROFILES["bc"], R)


def test_weight_scaling(L1, rng):
    # R of weight 1 scales to c*R of weight c
    R = OperatorMatrix([[-1, 2, 5], [0, -1, 0], [0, 0, -1]])
    assert classify_map(L1, R, 1).is_rb
    for c in (Fraction(3), Fraction(-1, 2)):
        scaled = R.scale(c)
        assert classify_map(L1, scaled, c).is_rb
        assert membership_check(L1, ConstraintProfile(weight=c), scaled)


# -- analyze_variety ---------------------------------------------------------------


def test_analysis_with_candidates(L1):
    from omegarb.cli import _load_builtin_candidates

    table = GenericOperator.of_dimension(3).table
    cands = _load_builtin_candidates("table1_L1", table)
    rep = analyze_variety(L1, PROFILES["bc"], cands)
    assert rep.dim == 3
    assert rep.confirmed
    assert rep.component_dims == (3, 3)


def test_analysis_heuristic_path(L1):
    rep = analyze_variety(L1, PROFILES["bc"])
    assert rep.dim == 3
    assert rep.split is not None and rep.split.complete
    assert rep.n_components >= 1


def test_component_counts_read_the_records(L1):
    from omegarb.catalog import load_builtin_catalog
    from omegarb.cli import _load_builtin_candidates

    # a split row: L1_1's square-zero variety is one 6-dimensional component
    rep = analyze_variety(load_builtin_catalog()["L1_1"].instantiate(), PROFILES["bs"])
    assert rep.split is not None
    assert (rep.n_components, rep.component_dims, rep.confirmed) == (1, (6,), True)
    # a candidates row: the shipped pair for L1 bc, kept in input order
    cands = _load_builtin_candidates("table1_L1", GenericOperator.of_dimension(3).table)
    rep = analyze_variety(L1, PROFILES["bc"], cands)
    assert rep.split is None
    assert (rep.n_components, rep.component_dims, rep.confirmed) == (2, (3, 3), True)
    assert [(c.ideal, c.certificate) for c in rep.components.candidates] == cands
    # no candidates: nothing verified, so no components and not confirmed
    rep = analyze_variety(L1, PROFILES["bc"], [])
    assert rep.components is None
    assert (rep.n_components, rep.component_dims, rep.confirmed) == (0, (), False)


def test_expected_record_discrepancy_flag():
    from omegarb.catalog import load_builtin_catalog
    from omegarb.cli import run_table_row

    row = {"algebra": "L1", "dim": 3, "components": 3, "candidates": "table2_L1",
           "known_discrepancies": {"dim": 2}}
    result = run_table_row(load_builtin_catalog(), "bi1", row, 2)
    assert result["computed"]["dim"] == 2
    assert result["status"] == "DISCREPANCY"
    assert any("published value 3" in f for f in result["discrepancies"])


def test_expected_record_mismatch_is_flagged():
    from omegarb.catalog import load_builtin_catalog
    from omegarb.cli import run_table_row

    result = run_table_row(load_builtin_catalog(), "bc", {"algebra": "L2", "dim": 7}, 1)
    assert result["status"] == "FAIL"


# -- the published component families pass membership --------------------------------


def _operators_from_candidates(name, dim, count, rng):
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points

    table = GenericOperator.of_dimension(dim).table
    out = []
    for ideal_p, cert in _load_builtin_candidates(name, table):
        cert = cert or find_certificate(ideal_p)
        pts = sample_points(ideal_p, cert, count, rng)
        for pt in pts:
            out.append(
                OperatorMatrix(
                    [
                        [pt[entry_name(i, j)] for j in range(1, dim + 1)]
                        for i in range(1, dim + 1)
                    ]
                )
            )
    return out


@pytest.mark.parametrize(
    "candidates_name,algebra_fixture,profile_name,dim",
    [
        ("table1_L1", "L1", "bc", 3),
        ("table1_L2", "L2", "bc", 3),
        ("table2_L1", "L1", "bi1", 3),
        ("table2_L2", "L2", "bi1", 3),
        ("table3_L1_2", "L1_2", "bs", 4),
        ("table3_L1_8", "L1_8", "bs", 4),
    ],
)
def test_component_points_pass_membership(
    request, candidates_name, algebra_fixture, profile_name, dim, rng
):
    L = request.getfixturevalue(algebra_fixture)
    profile = PROFILES[profile_name]
    for R in _operators_from_candidates(candidates_name, dim, 5, rng):
        assert membership_check(L, profile, R)
        assert profile_flags_match(L, profile, R)


def test_extra_side_condition_holds_only_on_one_component(L1):
    """The survey matrix for the second component carries the side relation
    x13*x21 + x22*x23 = 0, which the six defining generators do not list;
    it is a member of that component's ideal but not of the radical of the
    full system (it fails on the linear component)."""
    I = generate_system(L1, PROFILES["bc"])
    extra = parse_polynomial("x13*x21 + x22*x23", I.table)
    p2 = make_ideal(
        I.table,
        [parse_polynomial(s, I.table) for s in SIX_GENERATORS] + [extra],
    )
    assert ideal_membership(extra, p2)
    assert not radical_membership(extra, I)
