"""Primality certificates, component verification, splitting, sampling."""

import hashlib
import random
from fractions import Fraction
from functools import reduce
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegarb import groebner, ideals, solver
from omegarb.catalog import load_builtin_catalog, read_builtin_yaml
from omegarb.cli import (
    _builtin_expectations,
    _candidate_table,
    _load_builtin_candidates,
    run_table,
    run_table_row,
)
from omegarb.groebner import GroebnerBasis, buchberger
from omegarb.ideals import (
    CertificateError,
    PrimalityCertificate,
    check_primality,
    elimination,
    find_certificate,
    ideal_contains,
    ideal_equal,
    intersect,
    make_ideal,
    radical_contains,
    sample_points,
    split_components,
    split_heuristic,
    verify_components,
)
from omegarb.poly import Polynomial, VariableTable, mono_support, parse_polynomial
from omegarb.solver import generate_system, profile_by_name

A = VariableTable.of(*[f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)])
TXY = VariableTable.of("x", "y")
XYZW = VariableTable.of("x", "y", "z", "w")


def PA(s):
    return parse_polynomial(s, A)


def PXY(s):
    return parse_polynomial(s, TXY)


@pytest.fixture(scope="module")
def I6():
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
def p1():
    return make_ideal(A, [PA(s) for s in ["x11", "x12", "x22", "x31", "x32", "x33"]])


@pytest.fixture(scope="module")
def p2():
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
                "x13*x21 + x22*x23",
            ]
        ],
    )


CERT1 = PrimalityCertificate()
CERT2 = PrimalityCertificate(inverted=frozenset(["x12"]))


def test_linear_certificate_passes(p1):
    assert check_primality(p1, CERT1)


def test_pivot_certificate_passes(p2):
    assert check_primality(p2, CERT2)


def test_monomial_product_fails_any_certificate():
    I = make_ideal(TXY, [PXY("x*y")])
    assert not check_primality(I, PrimalityCertificate())
    assert not check_primality(I, PrimalityCertificate(inverted=frozenset(["x"])))


def test_unit_ideal_fails():
    I = make_ideal(TXY, [PXY("1")])
    assert not check_primality(I, PrimalityCertificate(inverted=frozenset(["x"])))


def test_malformed_certificates_rejected(p1):
    with pytest.raises(CertificateError):
        check_primality(p1, PrimalityCertificate(inverted=frozenset(["nope"])))


def test_trivial_certificate_fits_linear_ideals(p1, p2):
    # nothing inverted: the chain consumes a linear ideal, but not p2,
    # whose x12 needs an inverse
    trivial = PrimalityCertificate()
    assert check_primality(make_ideal(A, ()), trivial)
    assert check_primality(p1, trivial)
    assert not check_primality(p2, trivial)


def test_triangular_linear_chain():
    T = VariableTable.of("x", "y", "z")
    I = make_ideal(
        T, [parse_polynomial("x + y", T), parse_polynomial("y + z^2", T)]
    )
    cert = PrimalityCertificate()
    assert check_primality(I, cert)


def test_find_certificate(p1, p2):
    c1 = find_certificate(p1)
    assert c1 is not None and check_primality(p1, c1)
    c2 = find_certificate(p2)
    assert c2 is not None and check_primality(p2, c2)
    assert find_certificate(make_ideal(TXY, [PXY("x*y")])) is None


def test_chain_that_consumes_is_not_enough():
    # with y inverted the chain solves x = 0, but <xy> : y^inf = <x> != <xy>
    I = make_ideal(TXY, [PXY("x*y")])
    cert = PrimalityCertificate(inverted=frozenset(["y"]))
    assert ideals._certificate_chain(I, cert) is not None
    assert not check_primality(I, cert)
    assert find_certificate(I) is None


@pytest.mark.parametrize("algebra,alpha", [("L1_1", None), ("Atilde_alpha", 2)])
def test_every_square_zero_leaf_is_certified(catalog, algebra, alpha):
    # the table-3 rows without shipped candidates
    L = catalog[algebra].instantiate(alpha and {"alpha": Fraction(alpha)})
    leaves = split_heuristic(generate_system(L, profile_by_name("bs"))).ideals
    certs = [find_certificate(J) for J in leaves]
    assert all(c is not None and check_primality(J, c) for J, c in zip(leaves, certs))
    if algebra == "L1_1":
        assert [c.inverted for c in certs] == [frozenset(["x32", "x41"])]


# -- verify_components ----------------------------------------------------------


def test_two_component_decomposition_confirmed(I6, p1, p2):
    report = verify_components(I6, [(p1, CERT1), (p2, CERT2)])
    assert report.confirmed
    assert report.dims == (3, 3)
    assert report.product_in_radical
    assert report.irredundant
    # one record per component carries the very pair it was given, in order
    first, second = report.candidates
    assert first.ideal is p1 and first.certificate is CERT1
    assert second.ideal is p2 and second.certificate is CERT2


def test_prime_ideal_is_its_own_decomposition(p1):
    report = verify_components(p1, [(p1, CERT1)])
    assert report.confirmed
    assert report.dims == (3,)


def test_single_candidate_does_not_cover(I6, p1):
    report = verify_components(I6, [(p1, CERT1)])
    assert not report.product_in_radical
    assert not report.confirmed


def test_missing_certificate_reports_unverified(I6, p1, p2):
    report = verify_components(I6, [(p1, None), (p2, CERT2)])
    assert report.candidates[0].certificate_status == "unverified"
    assert report.candidates[0].certificate is None
    assert not report.confirmed


def test_redundant_candidate_detected(I6, p1, p2):
    bigger = make_ideal(A, p1.generators + (PA("x13"),))
    report = verify_components(I6, [(p1, CERT1), (p2, CERT2), (bigger, None)])
    assert not report.irredundant
    assert not report.confirmed


def test_empty_candidate_list_rejected(I6):
    with pytest.raises(ValueError):
        verify_components(I6, [])


def test_candidate_inside_the_ideal_covers_alone(I6, p1):
    # every generator of J lies in I6, so V(I6) lies in V(J): no product
    # needs a radical test
    J = make_ideal(A, [PA("x31"), PA("x32"), PA("x33")])
    assert ideal_contains(I6, J)
    report = verify_components(I6, [(p1, CERT1), (J, None)])
    assert report.product_in_radical
    assert radical_contains(I6, intersect(p1, J))


# -- the radical cover on the shipped rows -----------------------------------------


def _rows_with_candidates():
    """(algebra, profile, candidates file) of every table row that names one."""
    for table_id in (1, 2, 3):
        data = read_builtin_yaml(f"expectations/table{table_id}.yaml")
        for row in data["rows"]:
            if row.get("candidates"):
                yield pytest.param(row["algebra"], data["profile"], row["candidates"], id=row["candidates"])


ROWS_WITH_CANDIDATES = list(_rows_with_candidates())
MULTI_COMPONENT_ROWS = [
    r for r in ROWS_WITH_CANDIDATES if len(read_builtin_yaml(f"candidates/{r.values[2]}.yaml")) > 1
]


def _row_system(catalog, algebra, profile, name):
    L = catalog[algebra].instantiate()
    I = generate_system(L, profile_by_name(profile))
    return I, _load_builtin_candidates(name, _candidate_table(L.dim))


@pytest.mark.parametrize("algebra,profile,name", ROWS_WITH_CANDIDATES)
def test_shipped_cover_agrees_with_the_intersection(catalog, algebra, profile, name):
    I, candidates = _row_system(catalog, algebra, profile, name)
    meet = reduce(intersect, [p for p, _ in candidates])
    assert verify_components(I, candidates).product_in_radical == radical_contains(I, meet)


@pytest.mark.parametrize("algebra,profile,name", MULTI_COMPONENT_ROWS)
def test_dropping_a_shipped_component_breaks_the_cover(catalog, algebra, profile, name):
    I, candidates = _row_system(catalog, algebra, profile, name)
    for k in range(len(candidates)):
        rest = candidates[:k] + candidates[k + 1 :]
        assert not verify_components(I, rest).product_in_radical, k


def test_table2_L1_cover_needs_no_intersection(catalog, monkeypatch):
    I, candidates = _row_system(catalog, "L1", "bi1", "table2_L1")
    calls = []
    monkeypatch.setattr(ideals, "intersect", lambda *a: calls.append(a))
    assert verify_components(I, candidates).confirmed
    assert calls == []


def test_table1_L2_cover_needs_no_intersection(catalog, monkeypatch):
    I, candidates = _row_system(catalog, "L2", "bc", "table1_L2")
    calls = []
    monkeypatch.setattr(ideals, "intersect", lambda *a: calls.append(a))
    assert verify_components(I, candidates).confirmed
    assert calls == []


def _buchberger_orders(catalog, monkeypatch, table_id, algebra):
    """The order kind of every basis run, a ``buchberger`` call or a
    ``GroebnerBasis.extend``, that one cold ``run_table_row`` makes."""
    kinds = []
    run, extend = ideals.buchberger, GroebnerBasis.extend

    def counted(gens, order):
        kinds.append(order.kind)
        return run(gens, order)

    def extended(basis, gens):
        kinds.append(basis.order.kind)
        return extend(basis, gens)

    monkeypatch.setattr(ideals, "buchberger", counted)
    monkeypatch.setattr(GroebnerBasis, "extend", extended)
    generate_system.cache_clear()
    doc = _builtin_expectations(table_id)
    row = next(r for r in doc["rows"] if r["algebra"] == algebra)
    run_table_row(catalog, doc["profile"], row, table_id)
    return kinds


def test_table1_rows_make_few_groebner_runs(catalog, monkeypatch):
    # a work guard by counters: the system's basis, one per candidate, and
    # for L1 the saturation behind p2's certificate [x12]; every product in
    # the radical cover is settled by a normal form
    kinds = _buchberger_orders(catalog, monkeypatch, 1, "L1")
    assert len(kinds) <= 5 and kinds.count("elimination") <= 1, kinds
    kinds = _buchberger_orders(catalog, monkeypatch, 1, "L2")
    assert len(kinds) <= 4 and "elimination" not in kinds, kinds


def _count_s_polynomials(monkeypatch) -> list[int]:
    """A one-element counter of the S-polynomials ``buchberger`` forms from
    now on."""
    count = [0]
    s_terms = groebner._s_terms

    def counted(a, b):
        count[0] += 1
        return s_terms(a, b)

    monkeypatch.setattr(groebner, "_s_terms", counted)
    return count


# the normal forms each table computes, generators, S-polynomials and
# reducer rewrites together: a kernel change that keeps the pairs but
# reduces more often shows here (table 3 computed 6948 while its split
# leaves were verified again as candidates)
NORMAL_FORMS = {1: 256, 2: 300, 3: 5796}


def _count_normal_forms(monkeypatch) -> list[int]:
    """A one-element counter of the kernel's normal forms from now on."""
    count = [0]
    normal_form = groebner._normal_form

    def counted(work, leads, P):
        count[0] += 1
        return normal_form(work, leads, P)

    monkeypatch.setattr(groebner, "_normal_form", counted)
    return count


def _unseeded_split(I):
    """The split descent of ``split_heuristic`` without basis reuse: each
    child and each saturation is computed from generators."""
    leaves = []

    def descend(J):
        if J.contains_one():
            return
        v = ideals._split_factor(J)
        if v is None:
            leaves.append(J)
            return
        descend(make_ideal(J.table, J.generators + (v,)))
        ext = J.table.extend("t_")
        t = Polynomial.variable(ext, "t_")
        work = make_ideal(ext, [g.lift(ext) for g in J.generators] + [1 - t * v.lift(ext)])
        kept = elimination(work, J.table.names).generators
        descend(make_ideal(J.table, [g.restrict(J.table) for g in kept]))

    descend(I)
    return _two_pass_prune(leaves)


def _two_pass_prune(leaves):
    """The leaves deduplicated, then those containing another dropped: the
    reference for ``split_heuristic``'s one-pass prune."""
    unique = []
    for J in leaves:
        if not any(ideal_equal(J, K) for K in unique):
            unique.append(J)
    return [J for J in unique if not any(K is not J and ideal_contains(J, K) for K in unique)]


def test_split_reuses_the_parent_basis(catalog, monkeypatch):
    # a work guard by counters: 444 S-polynomials when every child and
    # saturation started from generators, 109 from the parent's basis
    I = generate_system(catalog["L1_1"].instantiate(), profile_by_name("bs"))
    I.groebner()
    count = _count_s_polynomials(monkeypatch)
    leaves = split_heuristic(I).ideals
    assert count[0] == 109
    reference = _unseeded_split(I)
    assert len(leaves) == len(reference)
    assert all(any(ideal_equal(J, K) for K in reference) for J in leaves)


def test_table1_forms_few_s_polynomials(catalog, monkeypatch):
    # 39 S-polynomials when the saturation behind p2's certificate started
    # from generators, 16 from the cached basis
    generate_system.cache_clear()
    count = _count_s_polynomials(monkeypatch)
    normal_forms = _count_normal_forms(monkeypatch)
    report = run_table(1, _builtin_expectations(1), catalog)
    assert report["summary"]["FAIL"] == 0
    assert count[0] == 16
    assert normal_forms[0] == NORMAL_FORMS[1]


@pytest.mark.parametrize("table_id, formed", [(2, 91), (3, 3010)])
def test_table_s_polynomial_counts_are_pinned(catalog, monkeypatch, table_id, formed):
    # the pair criteria, the pair order and the reducer rewrite fix how many
    # S-polynomials a table forms; a kernel change that keeps the answers
    # but forms more pairs shows here (table 3 formed 3413 while its split
    # leaves were verified again as candidates)
    generate_system.cache_clear()
    count = _count_s_polynomials(monkeypatch)
    normal_forms = _count_normal_forms(monkeypatch)
    report = run_table(table_id, _builtin_expectations(table_id), catalog)
    assert report["summary"]["FAIL"] == 0
    assert count[0] == formed
    assert normal_forms[0] == NORMAL_FORMS[table_id]


def _count_packings(monkeypatch) -> list[int]:
    """A one-element counter of the coefficient dicts the kernel packs from
    now on."""
    count = [0]
    pack_terms = groebner._Packing.pack_terms

    def counted(self, terms):
        count[0] += 1
        return pack_terms(self, terms)

    monkeypatch.setattr(groebner._Packing, "pack_terms", counted)
    return count


@pytest.mark.parametrize("table_id, packed", [(1, 66), (2, 69)])
def test_table_packing_counts_are_pinned(catalog, monkeypatch, table_id, packed):
    # a work guard by counters: containment and the radical cover read the
    # lead tables their bases already hold packed (265 and 216 packings
    # when each polynomial was packed again for a membership test)
    generate_system.cache_clear()
    count = _count_packings(monkeypatch)
    report = run_table(table_id, _builtin_expectations(table_id), catalog)
    assert report["summary"]["FAIL"] == 0
    assert count[0] == packed


@pytest.fixture(scope="module")
def seeded_on_shipped_rows(catalog):
    """Every ideal built from a known basis while the shipped rows of tables
    1-3 run, with its seeded basis."""
    seeded = []
    build = ideals.Ideal.from_basis.__func__

    def record(cls, table, basis):
        seeded.append(build(cls, table, basis))
        return seeded[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals.Ideal, "from_basis", classmethod(record))
        for table_id in (1, 2, 3):
            doc = _builtin_expectations(table_id)
            for row in doc["rows"]:
                run_table_row(catalog, doc["profile"], row, table_id)
    return seeded


def test_seeded_bases_equal_the_recomputed_ones(seeded_on_shipped_rows):
    assert len(seeded_on_shipped_rows) > 20
    for I in seeded_on_shipped_rows:
        order = I.default_order()
        gb = I.groebner()
        assert gb.order == order
        assert gb.elements == buchberger(I.generators, order).elements


# -- split heuristic -------------------------------------------------------------


def test_split_monomial_product():
    result = split_heuristic(make_ideal(TXY, [PXY("x*y")]))
    assert result.complete
    texts = sorted(tuple(g.to_text() for g in J.generators) for J in result.ideals)
    assert texts == [("x",), ("y",)]


def test_split_leaves_prime_alone(p2):
    result = split_heuristic(p2)
    assert result.complete
    assert len(result.ideals) == 1
    assert ideal_equal(result.ideals[0], p2)


def test_split_output_is_contained_in_components(I6, p1, p2):
    # every leaf lies in some component (as varieties: component contains leaf)
    result = split_heuristic(I6)
    assert result.complete
    for leaf in result.ideals:
        assert ideal_contains(p1, leaf) or ideal_contains(p2, leaf) or (
            ideal_contains(leaf, I6)
        )
    # and the published components each contain a leaf
    assert any(ideal_contains(p1, leaf) for leaf in result.ideals)
    assert any(ideal_contains(p2, leaf) for leaf in result.ideals)


def test_split_drops_empty_branches():
    T = VariableTable.of("x", "y")
    I = make_ideal(T, [parse_polynomial("x^2", T)])
    result = split_heuristic(I)
    assert [tuple(g.to_text() for g in J.generators) for J in result.ideals] == [("x",)]


# -- a split proves its own decomposition ------------------------------------------


def _report_view(report):
    """What a component report says: per component the containment, the
    certificate status and the dimension, then the cover and irredundancy."""
    records = tuple((c.contains_ideal, c.certificate_status, c.dim) for c in report.candidates)
    return records, report.product_in_radical, report.irredundant


def assert_split_report_matches_verification(I):
    """The split path's report on I equals what ``verify_components`` finds
    for the same leaves and certificates, and the one-pass prune keeps the
    leaves the two-pass reference keeps, in the same order."""
    split = split_heuristic(I)
    raw = []
    ideals._split_leaves(I, 0, raw)
    assert [J.generators for J in split.ideals] == [J.generators for J in _two_pass_prune(raw)]
    report = split_components(split)
    if report is None:
        assert split.ideals == [] and I.contains_one()
        return
    given = [(c.ideal, c.certificate) for c in report.candidates]
    assert [J for J, _ in given] == split.ideals
    oracle = verify_components(I, given)
    assert _report_view(oracle) == _report_view(report)
    assert oracle.confirmed == report.confirmed


@st.composite
def factored_ideals(draw):
    """1-4 generators over x, y, z, w, each a product of 1-3 factors, a
    factor a variable or a linear form with coefficients in -2..2."""
    variables = [Polynomial.variable(XYZW, n) for n in XYZW.names]
    linear = st.lists(st.integers(-2, 2), min_size=4, max_size=4).filter(any).map(
        lambda cs: sum((c * v for c, v in zip(cs, variables)), Polynomial.zero(XYZW))
    )
    factor = st.one_of(st.sampled_from(variables), linear)
    generator = st.lists(factor, min_size=1, max_size=3).map(lambda fs: reduce(lambda a, b: a * b, fs))
    return make_ideal(XYZW, draw(st.lists(generator, min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(factored_ideals())
def test_split_report_matches_verification_on_random_ideals(I):
    assert_split_report_matches_verification(I)


@pytest.mark.parametrize(
    "algebra,alpha,profile,depth",
    [("L1_1", None, "bs", None), ("Atilde_alpha", 2, "bs", None), ("L1", None, "bc", None),
     ("L1", None, "bc", 0)],
    ids=["L1_1-bs", "Atilde_alpha-bs", "L1-bc", "L1-bc-depth0"],
)
def test_split_report_matches_verification_on_rows(catalog, monkeypatch, algebra, alpha, profile, depth):
    if depth is not None:
        monkeypatch.setattr(ideals, "_SPLIT_DEPTH", depth)
    L = catalog[algebra].instantiate(alpha and {"alpha": Fraction(alpha)})
    I = generate_system(L, profile_by_name(profile))
    assert split_heuristic(I).complete == (depth is None)
    assert_split_report_matches_verification(I)


def test_dropping_a_split_leaf_breaks_the_cover(catalog):
    L = catalog["Atilde_alpha"].instantiate({"alpha": Fraction(2)})
    I = generate_system(L, profile_by_name("bs"))
    report = split_components(split_heuristic(I))
    given = [(c.ideal, c.certificate) for c in report.candidates]
    assert len(given) == 4 and report.confirmed
    for k in range(len(given)):
        mutant = verify_components(I, given[:k] + given[k + 1 :])
        assert not mutant.product_in_radical and not mutant.confirmed, k


def test_the_split_path_checks_each_certificate_once(catalog, monkeypatch):
    # the leaves are the components by construction: no radical cover, no
    # intersection and no verification, and one certificate check per leaf
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in (
        (ideals, "_rabinowitsch"),
        (ideals, "intersect"),
        (ideals, "check_primality"),
        (ideals, "verify_components"),
        (solver, "verify_components"),
        (GroebnerBasis, "product_cover"),
    ):
        count(owner, name)
    for algebra, alpha in (("L1_1", None), ("Atilde_alpha", 2)):
        L = catalog[algebra].instantiate(alpha and {"alpha": Fraction(alpha)})
        calls.clear()
        rep = solver.analyze_variety(L, profile_by_name("bs"))
        assert rep.confirmed
        assert calls == ["check_primality"] * rep.n_components, algebra
    # given candidates still go through the verifier
    calls.clear()
    rep = solver.analyze_variety(catalog["L1"].instantiate(), profile_by_name("bc"),
                                 _load_builtin_candidates("table1_L1", _candidate_table(3)))
    assert rep.confirmed and calls.count("verify_components") == 1


# -- point sampling ---------------------------------------------------------------


def test_sample_points_linear_certificate(p1):
    rng = random.Random(5)
    pts = sample_points(p1, CERT1, 4, rng)
    assert len(pts) == 4
    for pt in pts:
        assert all(g.evaluate(pt) == 0 for g in p1.generators)


def test_sample_points_pivot_certificate(p2):
    rng = random.Random(5)
    pts = sample_points(p2, CERT2, 4, rng)
    assert len(pts) == 4
    for pt in pts:
        assert all(g.evaluate(pt) == 0 for g in p2.generators)
        assert pt["x12"] != 0


def test_generic_sampler_on_quadric():
    T = VariableTable.of("x", "y", "z")
    I = make_ideal(T, [parse_polynomial("x*y + z^2", T)])
    rng = random.Random(5)
    pts = sample_points(I, None, 5, rng)
    for pt in pts:
        assert pt["x"] * pt["y"] + pt["z"] ** 2 == 0


def test_generic_sampler_inverts_two_variables():
    # x's coefficient y*z needs both y and z inverted, and that set certifies
    T = VariableTable.of("x", "y", "z")
    I = make_ideal(T, [parse_polynomial("x*y*z - 1", T)])
    assert find_certificate(I) == PrimalityCertificate(inverted=frozenset(["y", "z"]))
    pts = sample_points(I, None, 5, random.Random(5))
    assert len(pts) == 5
    for pt in pts:
        assert all(g.evaluate(pt) == 0 for g in I.generators)


def test_a_point_off_the_generators_raises(monkeypatch):
    # a chain that solves nothing leaves x free, so a draw of x != 0 is a
    # point off <x>: the check of every point refuses it
    I = make_ideal(TXY, [PXY("x")])
    monkeypatch.setattr(ideals, "_solve_chain", lambda p, inverted, grow: ideals._Chain([], []))
    with pytest.raises(CertificateError, match="off the generator x"):
        sample_points(I, None, 3, random.Random(0))


def _shipped_components():
    """Every component of data/candidates/table<N>_<algebra>.yaml."""
    catalog = load_builtin_catalog()
    files = resources.files("omegarb").joinpath("data/candidates").iterdir()
    for path in sorted(files, key=lambda path: path.name):
        name = path.name.removesuffix(".yaml")
        table = _candidate_table(catalog[name.split("_", 1)[1]].dim)
        for k, (ideal_p, cert) in enumerate(_load_builtin_candidates(name, table), 1):
            yield pytest.param(ideal_p, cert, id=f"{name}#{k}")


@pytest.mark.parametrize("ideal_p,cert", list(_shipped_components()))
def test_shipped_certificate_passes(ideal_p, cert):
    assert cert is not None and check_primality(ideal_p, cert)


def _nonzero(pt):
    return {k: v for k, v in pt.items() if v != 0}


def test_sample_points_pinned_draws():
    # the draw order (free variables in table order, then the inverted ones) fixes
    # these points; the perfbench constructions workload depends on it
    (p1, c1), (p2, c2) = _load_builtin_candidates("table1_L1", _candidate_table(3))
    F = Fraction
    assert [_nonzero(pt) for pt in sample_points(p1, c1, 3, random.Random(0))] == [
        {"x13": F(3, 2), "x21": F(-4), "x23": F(7, 2)},
        {"x13": F(3, 2), "x21": F(3), "x23": F(9)},
        {"x13": F(7), "x23": F(-2)},
    ]
    assert [_nonzero(pt) for pt in sample_points(p2, c2, 3, random.Random(0))] == [
        {"x11": F(4), "x12": F(7, 2), "x13": F(3, 2), "x21": F(-32, 7), "x22": F(-4), "x23": F(-12, 7)},
        {"x11": F(-3), "x12": F(9), "x13": F(3, 2), "x21": F(-1), "x22": F(3), "x23": F(1, 2)},
        {"x12": F(-2), "x13": F(7)},
    ]


def test_sample_points_over_every_shipped_candidate_pinned():
    # the perfbench constructions workload samples its operators from these
    rng = random.Random(0)
    lines = []
    for param in _shipped_components():
        p, cert = param.values
        for pt in sample_points(p, cert, 10, rng):
            lines.append(f"{param.id} " + " ".join(f"{n}={pt[n]}" for n in p.table.names))
    assert len(lines) == 140
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "a8629ff1699493a88a8e2b9702d2ec8d8197176311ee21f1f4644e3d11062e4d"


# -- the solve chain against the inverse-variable reference --------------------------


def _reference_chain(p, solvable, inverted, grow):
    """The solve chain as it stood with inverse variables: one w_x per
    inverted variable x in an extended table, x*w_x cancelled to 1, and a
    monomial inverted by swapping exponents.  Returns (table, inverses,
    steps) with steps (v, value) over the extended table, or None."""
    table = p.table
    gens = list(p.groebner().elements or p.generators)
    steps = []
    pairs = []  # (inverted variable, its inverse)
    todo = [n for n in table.names if n in solvable and n not in inverted]

    def coefficient(g, vidx):
        out = {}
        for m, c in g.terms.items():
            if m[vidx] == 1:
                out[m[:vidx] + (0,) + m[vidx + 1 :]] = c
        return Polynomial(g.table, out)

    def substitute(g, vidx, value):
        out = Polynomial.zero(g.table)
        for m, c in g.terms.items():
            out = out + (value ** m[vidx]).mul_term(m[:vidx] + (0,) + m[vidx + 1 :], c)
        return out

    def invert(names):
        nonlocal table, gens, steps
        if not names:
            return
        for n in names:
            table = table.extend(table.fresh_name(f"w_{n}_"))
            pairs.append((table.index(n), len(table) - 1))
            if n in todo:
                todo.remove(n)
        gens = [g.lift(table) for g in gens]
        steps = [(v, e.lift(table)) for v, e in steps]

    def to_invert(name, g):
        if g.degree_in(name) != 1:
            return None
        coeff = coefficient(g, table.index(name))
        if coeff.num_terms() != 1:
            return None
        (mono,) = coeff.terms
        new = mono_support(mono) - {i for pair in pairs for i in pair}
        if new and not grow:
            return None
        return [table.names[i] for i in sorted(new)]

    def cancel(poly):
        out = {}
        for m, c in poly.terms.items():
            mm = list(m)
            for i, j in pairs:
                k = min(mm[i], mm[j])
                mm[i] -= k
                mm[j] -= k
            out[tuple(mm)] = out.get(tuple(mm), Fraction(0)) + c
        return Polynomial(table, out)

    invert(inverted)
    while gens:
        pick = next(
            (
                (name, k, new)
                for name in todo
                for k, g in enumerate(gens)
                if (new := to_invert(name, g)) is not None
            ),
            None,
        )
        if pick is None:
            return None
        name, k, new = pick
        invert(new)
        g = gens.pop(k)
        vidx = table.index(name)
        ((mono, c),) = coefficient(g, vidx).terms.items()
        inv = [0] * len(table)
        for i, j in pairs:
            inv[i], inv[j] = mono[j], mono[i]
        rest = Polynomial(table, {m: cc for m, cc in g.terms.items() if m[vidx] == 0})
        expr = cancel(rest.mul_term(tuple(inv), Fraction(-1) / c))
        subs = (
            cancel(substitute(other, vidx, expr)) if other.degree_in(name) else other
            for other in gens
        )
        gens = [s for s in subs if not s.is_zero()]
        todo.remove(name)
        steps.append((name, expr))
    return table, {table.names[i]: table.names[j] for i, j in pairs}, steps


def assert_chains_agree(p, inverted, grow, rng):
    """The chain and the reference agree on whether a chain exists, on S in
    order, on the solved variables in order, and on each step's value at
    random points where S is nonzero."""
    ref = _reference_chain(p, p.table.names, inverted, grow)
    chain = ideals._solve_chain(p, inverted, grow)
    assert (chain is None) == (ref is None)
    if ref is None:
        return
    _, inverses, ref_steps = ref
    assert chain.inverted == list(inverses)
    assert [v for v, _, _ in chain.steps] == [v for v, _ in ref_steps]
    for _ in range(3):
        point = {n: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for n in p.table.names}
        for n in inverses:
            point[n] = point[n] or Fraction(1)
        laurent = dict(point, **{w: 1 / point[n] for n, w in inverses.items()})
        for (_, num, den), (_, value) in zip(chain.steps, ref_steps):
            assert num.evaluate(point) / den.evaluate(point) == value.evaluate(laurent)


# x = -y^2/(2z) turns x^2 + y*w into y^4 + 4*y*z^2*w: a square cleared with
# a constant other than 1, which then gives w its coefficient
SQUARE_CLEARED = make_ideal(XYZW, [parse_polynomial(s, XYZW) for s in ("y^2 + 2*x*z", "x^2 + y*w")])


@st.composite
def chain_inputs(draw):
    table = draw(st.sampled_from([VariableTable.of("x", "y", "z"), XYZW]))
    n = len(table)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    mono = st.tuples(*[st.integers(0, 2)] * n).filter(lambda m: sum(m) <= 3)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(
        lambda terms: Polynomial(table, terms)
    )
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    inverted = draw(st.lists(st.sampled_from(table.names), unique=True, max_size=2))
    return make_ideal(table, gens), inverted, draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(chain_inputs(), st.randoms(use_true_random=False))
@example((SQUARE_CLEARED, [], True), random.Random(0))
def test_chain_matches_the_inverse_variable_reference(data, rng):
    p, inverted, grow = data
    assert_chains_agree(p, inverted, grow, rng)


@pytest.mark.parametrize("ideal_p,cert", list(_shipped_components()))
def test_chain_on_shipped_candidates_matches_the_reference(ideal_p, cert):
    inverted = sorted(cert.inverted, key=ideal_p.table.index)
    rng = random.Random(1)
    assert_chains_agree(ideal_p, inverted, False, rng)
    assert_chains_agree(ideal_p, (), True, rng)


@pytest.fixture(scope="module")
def square_zero_leaves(catalog):
    """(id, leaf) for the split leaves of the table-3 rows computed without
    shipped candidates: L1_1, and Atilde_alpha at alpha = 2."""
    out = []
    for algebra, alpha in (("L1_1", None), ("Atilde_alpha", 2)):
        L = catalog[algebra].instantiate(alpha and {"alpha": Fraction(alpha)})
        leaves = split_heuristic(generate_system(L, profile_by_name("bs"))).ideals
        out += [(f"{algebra}#{k}", J) for k, J in enumerate(leaves, 1)]
    return out


def test_chain_on_square_zero_leaves_matches_the_reference(square_zero_leaves):
    assert len(square_zero_leaves) == 5
    rng = random.Random(1)
    for _, J in square_zero_leaves:
        assert_chains_agree(J, (), True, rng)
        cert = find_certificate(J)
        assert_chains_agree(J, sorted(cert.inverted, key=J.table.index), False, rng)


def test_sample_points_over_the_square_zero_leaves_pinned(square_zero_leaves):
    # table 3 labels the L1_1 and Atilde_alpha components from these draws
    rng = random.Random(0)
    lines = []
    for name, J in square_zero_leaves:
        for cert in (find_certificate(J), None):
            for pt in sample_points(J, cert, 5, rng):
                lines.append(f"{name} " + " ".join(f"{n}={pt[n]}" for n in J.table.names))
    assert len(lines) == 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f00096c4a7d7918158eba297ce14d616f987bd595b53ed4660553aa5685ee603"
