"""Construction theorems as executable checks: left-symmetric products,
deformations, Hom-Lie algebras, series analysis, and module twists."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegarb import constructions
from omegarb.algebras import (
    IntegralAlgebra,
    OmegaAlgebra,
    OperatorMatrix,
    Subspace,
    classify_map,
    evaluate_operator,
    inverse_correspondence,
    kept_evaluation,
    validate_algebra,
)
from omegarb.constructions import (
    HomLieAlgebra,
    IterationHalted,
    LeftSymmetricAlgebra,
    ModuleAction,
    PreconditionError,
    annihilator,
    hom_jacobi_holds,
    homlie_from_rb,
    homlie_structure,
    is_left_symmetric,
    iterate_deform,
    left_symmetric_from_rb,
    module_twist,
    omega_deform,
    validate_module,
)
from omegarb.linalg import identity
from tests.conftest import random_rational


def F(x):
    return Fraction(x)


def dense_mul(a, b):
    """The matrix product a b by its definition."""
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0])))
        for i in range(len(a))
    )


def dense_sum(a, b, q=1):
    """a + q b, entry by entry."""
    return tuple(tuple(x + q * y for x, y in zip(r, s)) for r, s in zip(a, b))


# -- left-symmetric construction ---------------------------------------------------


def test_rank_one_operator_gives_published_table(L1):
    R = OperatorMatrix([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    A = left_symmetric_from_rb(L1, R)
    z = (F(0), F(0), F(1))
    zero = (F(0), F(0), F(0))
    assert A.m[0][1] == tuple(-v for v in z)  # x*y = -z
    assert A.m[1][1] == tuple(-v for v in z)  # y*y = -z
    for (i, j) in [(0, 0), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)]:
        assert A.m[i][j] == zero


def test_zero_operator_gives_zero_multiplication(L1):
    A = left_symmetric_from_rb(L1, OperatorMatrix.zero(3))
    assert all(not any(A.m[i][j]) for i in range(3) for j in range(3))
    assert is_left_symmetric(A)


def test_four_dimensional_family_member(L1_1):
    a, b, d, r, s = F(1), F(1), F(1), F(0), F(0)
    R = OperatorMatrix(
        [
            [a, 0, 0, -b],
            [-a * d / b, 0, 0, d],
            [r, 0, 0, s],
            [a * a / b, 0, 0, -a],
        ]
    )
    A = left_symmetric_from_rb(L1_1, R)
    assert A.dim == 4 and is_left_symmetric(A)


def test_non_rb_operator_rejected(L1):
    with pytest.raises(PreconditionError, match="Rota-Baxter"):
        left_symmetric_from_rb(L1, OperatorMatrix.identity(3))


def test_image_outside_kernel_rejected(L1):
    R = OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert classify_map(L1, R, 0).is_rb
    with pytest.raises(PreconditionError, match="ker"):
        left_symmetric_from_rb(L1, R)


@pytest.mark.parametrize(
    "rows, name",
    [
        ([[0, 0, 0], [1, 0, 0], [0, 0, 0]], "y"),  # R(x) = 0 is inside, R(y) = x is not
        ([[0, 0, Fraction(1, 2)], [Fraction(-2, 3), 0, 0], [0, 0, 0]], "y"),
        ([[1, 1, 0], [0, 0, 0], [0, 0, 0]], "x"),
    ],
)
def test_image_outside_kernel_names_the_first_offending_row(L1, rows, name):
    R = OperatorMatrix(rows)
    assert classify_map(L1, R, 0).is_rb
    with pytest.raises(PreconditionError) as exc:
        left_symmetric_from_rb(L1, R)
    assert exc.value.hypothesis == "image(R) inside ker(omega)"
    assert str(exc.value) == (
        f"hypothesis not satisfied: image(R) inside ker(omega) (R({name}) is outside the kernel)"
    )


# -- deformation --------------------------------------------------------------------


def test_deformation_of_generic_compatible_point(L1):
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    LR = omega_deform(L1, R)
    z = (F(0), F(0), F(1))
    assert LR.c[0][1] == tuple(-v for v in z)  # [x,y] = -z
    assert LR.c[0][2] == z  # [x,z] = b z = z
    assert LR.c[1][2] == z  # [y,z] = a z = z
    assert LR.is_lie()  # the deformed form vanishes on this family


def test_zero_operator_deforms_to_abelian(L1):
    LR = omega_deform(L1, OperatorMatrix.zero(3))
    assert all(not any(LR.c[i][j]) for i in range(3) for j in range(3))
    assert LR.is_lie()


def test_incompatible_operator_rejected(L1):
    R = OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])  # RB but not compatible
    with pytest.raises(PreconditionError, match="compatible"):
        omega_deform(L1, R)


def test_iteration(L1):
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    steps = iterate_deform(L1, R, 2)
    assert len(steps) == 3
    for Li in steps:
        assert validate_algebra(Li).ok
    # R^2 = 0 for this point, so the second deformation is abelian
    assert R.power(2).is_zero()
    assert all(not any(steps[2].c[i][j]) for i in range(3) for j in range(3))


def test_iteration_of_zero_operator(L1):
    steps = iterate_deform(L1, OperatorMatrix.zero(3), 3)
    assert len(steps) == 4
    for Li in steps[1:]:
        assert all(not any(Li.c[i][j]) for i in range(3) for j in range(3))


def _deform_chain(L, R, steps):
    """L_i = omega_deform(L_{i-1}, R^i), each power checked on its own;
    returns the algebras and the step that failed, or None."""
    produced = [L]
    for i in range(1, steps + 1):
        power = R.power(i)
        cls = classify_map(produced[-1], power, 0)
        if not (cls.is_rb and cls.is_compatible):
            return produced, i
        produced.append(omega_deform(produced[-1], power))
    return produced, None


def _assert_iteration_matches_chain(L, R, steps):
    want, halted_at = _deform_chain(L, R, steps)
    if halted_at is None:
        assert iterate_deform(L, R, steps) == want
    else:
        with pytest.raises(IterationHalted) as exc:
            iterate_deform(L, R, steps)
        assert exc.value.step == halted_at and exc.value.produced == want


@pytest.fixture
def evaluations(monkeypatch):
    """The (algebra, operator) of every `evaluate_operator` call that
    `algebras.kept_evaluation`, the one reader classification and the
    constructions go through, makes."""
    import omegarb.algebras as algebras

    calls = []
    evaluate = algebras.evaluate_operator

    def counting(L, R, weight=0):
        calls.append((L, R))
        return evaluate(L, R, weight)

    monkeypatch.setattr(algebras, "evaluate_operator", counting)
    return calls


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_iteration_classifies_once_per_step(catalog, evaluations, steps):
    L = catalog["L1"].instantiate()  # fresh: no evaluation kept on it yet
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    assert len(iterate_deform(L, R, steps)) == steps + 1
    assert len(evaluations) == steps


@pytest.fixture
def pair_passes(monkeypatch):
    """The arguments of every `operator_identities` pass the evaluation
    makes: one pass reads every basis pair."""
    import omegarb.algebras as algebras
    import omegarb.constructions as constructions

    calls = []
    original = algebras.operator_identities

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (algebras, constructions):
        monkeypatch.setattr(module, "operator_identities", counting, raising=False)
    return calls


def test_each_construction_evaluates_the_pair_once(catalog, pair_passes):
    """One pass of the identities per fresh (algebra, operator), over all
    3 basis pairs of L1 at once, none repeated to read the bracket or the
    form."""
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    for build, want in (
        (lambda L: omega_deform(L, R), 1),
        (lambda L: homlie_from_rb(L, R), 1),
        (lambda L: iterate_deform(L, R, 3), 3),
    ):
        pair_passes.clear()
        build(catalog["L1"].instantiate())
        assert len(pair_passes) == want


def test_constructions_share_the_evaluation_of_an_equal_pair(catalog, evaluations, pair_passes):
    """A second construction on the same L with an equal R reads the kept
    evaluation: no pair pass.  A new, equal L or a different R evaluates
    afresh, and `classify_map` reads the kept evaluation as the
    constructions do."""
    R = OperatorMatrix([[0, 0, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])
    L = catalog["L1"].instantiate()
    omega_deform(L, R)
    assert len(pair_passes) == 1
    for build in (
        lambda: homlie_from_rb(L, R),
        lambda: left_symmetric_from_rb(L, OperatorMatrix(R.entries)),  # equal, not the same
        lambda: iterate_deform(L, R, 1),
    ):
        pair_passes.clear()
        build()
        assert pair_passes == []
    pair_passes.clear()
    iterate_deform(L, R, 2)
    assert len(pair_passes) == 1  # R^2 on the fresh L_1 only
    for M, S in (
        (catalog["L1"].instantiate(), R),  # equal to L, not the same object
        (L, OperatorMatrix.zero(3)),  # a different operator on the same L
        (L, R),  # R again, after the zero operator replaced it
    ):
        assert M == L
        evaluations.clear()
        homlie_from_rb(M, S)
        assert evaluations == [(M, S)] and evaluations[0][0] is M
    M = catalog["L1"].instantiate()
    pair_passes.clear()
    classify_map(M, R)
    classify_map(M, R)
    homlie_from_rb(M, R)
    assert len(pair_passes) == 1  # the first classification evaluates; the rest read it


def test_the_constructions_chain_makes_two_passes_per_operator(catalog, pair_passes):
    """One operator through the chain the constructions benchmark runs:
    `classify_map`, `left_symmetric_from_rb`, `iterate_deform` (2 steps)
    and `homlie_from_rb` on one fresh L.  The classification's evaluation
    serves the left-symmetric product, step 1 and the Hom-Lie algebra, so
    the chain makes one pass for (L, R) and one for R^2 on L_1; an
    operator rejected at step 1 makes no second."""
    accepted = OperatorMatrix([[0, 0, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])
    rejected = OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])  # RB, not compatible
    for R, passes, refused in ((accepted, 2, False), (rejected, 1, True)):
        L = catalog["L1"].instantiate()
        pair_passes.clear()
        assert classify_map(L, R, 0).is_rb
        for build in (left_symmetric_from_rb, lambda L, R: iterate_deform(L, R, 2), homlie_from_rb):
            assert (type(_outcome(lambda: build(L, R))) is tuple) == refused
        assert len(pair_passes) == passes


def test_the_integer_passes_read_no_fraction_view(L1, monkeypatch, evaluations):
    """Algebras, operators and construction outputs are cleared once, when
    they are built: with the Fraction views patched to raise,
    classification, every construction and its checker, the module
    identity and the equation generator still run, and a module twist
    reads one evaluation and neither rational product."""
    from omegarb.solver import PROFILES, generate_system

    R = OperatorMatrix([[0, 0, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]])
    minus_id = OperatorMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    V = _scalar_module(L1, [Fraction(-1, 2), 1, 0])
    zero_module = ModuleAction.from_matrices(3, [[], [], []])

    def refuse(self, *args):
        raise AssertionError("an integer pass read a Fraction view")

    for cls, view in (
        (OmegaAlgebra, "c"),
        (OmegaAlgebra, "omega"),
        (OperatorMatrix, "entries"),
        (LeftSymmetricAlgebra, "m"),
        (HomLieAlgebra, "c"),
    ):
        monkeypatch.setattr(cls, view, property(refuse))
    monkeypatch.setattr(OmegaAlgebra, "bracket", refuse)
    monkeypatch.setattr(OperatorMatrix, "apply", refuse)
    with pytest.raises(AssertionError, match="Fraction view"):
        L1.c
    flags = classify_map(L1, R)
    assert flags.is_rb and flags.is_compatible and flags.is_square_zero
    assert is_left_symmetric(left_symmetric_from_rb(L1, R))
    assert len(iterate_deform(L1, R, 3)) == 4
    g = homlie_from_rb(L1, R)
    assert hom_jacobi_holds(g)
    homlie_structure(g)
    assert validate_module(L1, V).ok
    evaluations.clear()
    assert module_twist(L1, zero_module, minus_id).module_dim == 0
    with pytest.raises(PreconditionError, match="annihilator"):
        module_twist(L1, V, minus_id)
    assert len(evaluations) == 1  # the second twist reads the first's evaluation
    generate_system.cache_clear()
    try:
        for profile in PROFILES.values():
            generate_system(L1, profile)
    finally:
        generate_system.cache_clear()


def test_operator_sum_and_inverse_read_no_fraction_view(L1, monkeypatch):
    """add, inverse_operator and inverse_correspondence work on the stored
    integers: with the Fraction view patched to raise, they still run, and
    agree with the rational sum and inverse."""
    R = OperatorMatrix([[Fraction(1, 2), 0, 1], [0, Fraction(-2, 3), 0], [3, 0, Fraction(5, 4)]])
    S = OperatorMatrix([[0, Fraction(1, 6), 0], [-2, 0, 0], [0, 0, Fraction(-3, 4)]])
    a = R.entries
    want_sum = OperatorMatrix(dense_sum(a, S.entries))

    def refuse(self):
        raise AssertionError("an integer pass read a Fraction view")

    monkeypatch.setattr(OperatorMatrix, "entries", property(refuse))
    assert R.add(S) == want_sum
    inverse = R.inverse_operator()
    assert inverse_correspondence(L1, R) == inverse
    monkeypatch.undo()
    assert dense_mul(a, inverse.entries) == dense_mul(inverse.entries, a) == identity(3)


def test_iteration_matches_the_omega_deform_chain(L1):
    R = OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]])
    for steps in (1, 2, 3):
        _assert_iteration_matches_chain(L1, R, steps)


def test_iteration_matches_the_chain_on_sampled_l18_points(L1_8):
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points
    from omegarb.solver import GenericOperator, entry_name

    rng = random.Random(18)
    table = GenericOperator.of_dimension(4).table
    for component, cert in _load_builtin_candidates("table3_L1_8", table):
        cert = cert or find_certificate(component)
        for pt in sample_points(component, cert, 3, rng):
            R = OperatorMatrix(
                [[pt[entry_name(i, j)] for j in range(1, 5)] for i in range(1, 5)]
            )
            _assert_iteration_matches_chain(L1_8, R, 3)


def test_iteration_halts_like_the_chain(evaluations):
    def heisenberg():
        return OmegaAlgebra.from_brackets(["x", "y", "z"], {(0, 1): [0, 0, 1]}, {})

    heis = heisenberg()
    R = OperatorMatrix([[-1, -1, -1], [-1, 0, 0], [0, 0, 1]])
    assert _deform_chain(heis, R, 3)[1] == 2
    for steps in (1, 2, 3):
        _assert_iteration_matches_chain(heis, R, steps)
    evaluations.clear()
    with pytest.raises(IterationHalted):
        iterate_deform(heisenberg(), R, 3)  # fresh: no evaluation kept on it yet
    assert len(evaluations) == 2  # R on L_0, then R^2 on L_1


def test_iteration_precondition_failure_is_not_a_halt(L1):
    R = OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])  # RB but not compatible
    for steps in (1, 2):
        with pytest.raises(PreconditionError, match="compatible"):
            iterate_deform(L1, R, steps)


def test_operator_stays_compatible_on_deformation(L1, rng):
    # deformed algebras admit the same operator as a compatible weight-0
    # Rota-Baxter operator
    for _ in range(10):
        d, e = random_rational(rng), random_rational(rng)
        R = OperatorMatrix([[0, 0, d], [0, 0, e], [0, 0, 0]])
        LR = omega_deform(L1, R)
        cls = classify_map(LR, R, 0)
        assert cls.is_rb and cls.is_compatible


# -- Hom-Lie construction --------------------------------------------------------------


def test_homlie_from_first_row_operator(L2):
    R = OperatorMatrix([[0, 2, 3], [0, 0, 0], [0, 0, 0]])
    g = homlie_from_rb(L2, R)
    z = (F(0), F(0), F(1))
    assert g.c[0][1] == tuple(-3 * v for v in z)  # [x,y] = -b z
    assert g.c[0][2] == tuple(2 * v for v in z)  # [x,z] = a z
    assert not any(g.c[1][2])
    assert hom_jacobi_holds(g)


def test_homlie_zero_operator(L2):
    g = homlie_from_rb(L2, OperatorMatrix.zero(3))
    assert all(not any(g.c[i][j]) for i in range(3) for j in range(3))
    assert homlie_structure(g).abelian


def test_homlie_requires_square_zero(L1_2):
    # weight-0 compatible family whose square is nonzero
    R = OperatorMatrix([[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
    cls = classify_map(L1_2, R, 0)
    assert cls.is_rb and cls.is_compatible and not cls.is_square_zero
    with pytest.raises(PreconditionError, match="R\\^2"):
        homlie_from_rb(L1_2, R)


def test_homlie_bracket_at_published_point(L1_2):
    R = OperatorMatrix([[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    g = homlie_from_rb(L1_2, R)
    # [e,y] = c e - (a - t) z at a=1, c=t=0
    assert g.c[0][2] == (F(0), F(0), F(0), F(-1))


# -- series analysis ---------------------------------------------------------------------


def _r3(a, b, c, d, r, s, t, u):
    return OperatorMatrix([[0, 0, 0, a], [b, c, d, r], [s, t, -c, u], [0, 0, 0, 0]])


def test_generic_component_is_solvable_length_two(L1_2):
    R = _r3(1, 1, 1, 1, 0, -1, -1, -1)
    g = homlie_from_rb(L1_2, R)
    rep = homlie_structure(g)
    assert rep.solvable and rep.solvable_length == 2
    assert not rep.nilpotent
    assert rep.category == "solvable"


def test_special_locus_is_nilpotent_class_two(L1_2):
    R = _r3(1, 0, 0, 0, 0, 0, 0, 5)
    rep = homlie_structure(homlie_from_rb(L1_2, R))
    assert rep.nilpotent and rep.nilpotent_class == 2


def test_nilpotent_component_on_l18(L1_8):
    T1 = OperatorMatrix([[1, -1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0]])
    g = homlie_from_rb(L1_8, T1)
    z = (F(0), F(0), F(0), F(1))
    assert g.c[0][2] == z and g.c[1][2] == z  # [e,y] = [x,y] = (b-a) z at b=1,a=0
    rep = homlie_structure(g)
    assert rep.nilpotent and rep.nilpotent_class == 2


def test_solvable_components_on_l18(L1_8):
    T2 = OperatorMatrix(
        [[-1, -1, -2, -1], [-1, -1, -2, -1], [1, 1, 2, 1], [0, 0, 0, 0]]
    )
    T3 = OperatorMatrix([[0, 0, 0, 2], [1, 0, 1, 3], [0, 0, 0, -2], [0, 0, 0, 0]])
    for T in (T2, T3):
        rep = homlie_structure(homlie_from_rb(L1_8, T))
        assert rep.solvable and not rep.nilpotent


def test_series_dims_consistent(L1_2, L1_8, rng):
    ops = [
        _r3(1, 1, 1, 1, 0, -1, -1, -1),
        _r3(1, 0, 0, 0, 0, 0, 0, 5),
        OperatorMatrix([[0, 2, 3], [0, 0, 0], [0, 0, 0]]),
    ]
    algebras = [L1_2, L1_2, None]
    from omegarb.catalog import load_builtin_catalog

    L2 = load_builtin_catalog()["L2"].instantiate()
    algebras[2] = L2
    for L, R in zip(algebras, ops):
        rep = homlie_structure(homlie_from_rb(L, R))
        dd, ld = rep.derived_dims, rep.lower_central_dims
        assert all(a >= b for a, b in zip(dd, dd[1:]))
        assert all(a >= b for a, b in zip(ld, ld[1:]))
        # the derived series sits inside the lower central series termwise
        for i in range(min(len(dd), len(ld))):
            assert dd[i] <= ld[i]


def _series_reference(g):
    """Derived and lower central series dims by `Subspace` spans of the
    rational bracket, stopping where a term vanishes or stops shrinking."""
    full = Subspace.span(g.dim, [[int(a == b) for b in range(g.dim)] for a in range(g.dim)])

    def series(second):
        terms = [full]
        while not terms[-1].is_zero():
            U = terms[-1]
            nxt = Subspace.span(g.dim, [g.bracket(u, w) for u in U.basis for w in second(U).basis])
            if nxt.dim == U.dim:
                break
            terms.append(nxt)
        return tuple(t.dim for t in terms)

    return series(lambda U: U), series(lambda U: full)


def test_series_match_the_subspace_reference_on_table3_points(L1_2, L1_8):
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points
    from omegarb.solver import GenericOperator, entry_name

    rng = random.Random(11)
    table = GenericOperator.of_dimension(4).table
    categories = set()
    for L, name in ((L1_2, "table3_L1_2"), (L1_8, "table3_L1_8")):
        for component, cert in _load_builtin_candidates(name, table):
            cert = cert or find_certificate(component)
            for pt in sample_points(component, cert, 4, rng):
                R = OperatorMatrix(
                    [[pt[entry_name(i, j)] for j in range(1, 5)] for i in range(1, 5)]
                )
                g = homlie_from_rb(L, R)
                rep = homlie_structure(g)
                assert (rep.derived_dims, rep.lower_central_dims) == _series_reference(g)
                categories.add(rep.category)
    assert {"nilpotent", "solvable"} <= categories


_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -3))


@st.composite
def skew_homlie_algebras(draw):
    """A `HomLieAlgebra` of dimension 1 to 5 on a skew integer bracket:
    the zero table, a rank-1 table (every [e_i, e_j] a multiple of one
    vector), a nilpotent one ([e_i, e_j] in the span of the e_k, k > j,
    for i < j) or any skew table, at a drawn scale and with any twist."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("zero", "rank-1", "nilpotent", "any")))
    vector = st.lists(_ENTRIES, min_size=n, max_size=n)
    v = draw(vector)
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        if kind == "zero":
            row = [0] * n
        elif kind == "rank-1":
            row = [draw(_ENTRIES) * x for x in v]
        elif kind == "nilpotent":
            row = [draw(_ENTRIES) if k > j else 0 for k in range(n)]
        else:
            row = draw(vector)
        c[i][j], c[j][i] = row, [-x for x in row]
    table = tuple(tuple(map(tuple, layer)) for layer in c)
    twist = OperatorMatrix(draw(st.lists(vector, min_size=n, max_size=n)))
    scale = draw(st.integers(1, 6))
    names = tuple(f"e{i}" for i in range(n))
    return HomLieAlgebra(n, names, IntegralAlgebra(scale, table, ()).reduced(), twist)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(skew_homlie_algebras())
def test_series_match_the_subspace_reference_on_random_skew_brackets(g):
    """The shared first term from the stored rows and the derived steps over
    unordered pairs give the dims of the `Subspace` reference, which
    brackets every ordered pair of the rational bracket."""
    rep = homlie_structure(g)
    assert (rep.derived_dims, rep.lower_central_dims) == _series_reference(g)


def test_a_hom_lie_algebra_needs_a_skew_bracket():
    zero, z = (0, 0, 0), (0, 0, 1)
    twist = OperatorMatrix.zero(3)
    symmetric = ((zero, z, zero), (z, zero, zero), (zero, zero, zero))
    nonzero_square = ((zero, zero, zero), (zero, zero, zero), (zero, zero, z))
    for c, pair in ((symmetric, "[x, y]"), (nonzero_square, "[z, z]")):
        with pytest.raises(ValueError, match=re.escape(f"not skew at {pair}")):
            HomLieAlgebra(3, ("x", "y", "z"), IntegralAlgebra(1, c, ()), twist)
    skew = ((zero, z, zero), (tuple(-x for x in z), zero, zero), (zero, zero, zero))
    g = HomLieAlgebra(3, ("x", "y", "z"), IntegralAlgebra(1, skew, ()), twist)
    assert homlie_structure(g).category == "nilpotent"


def test_the_series_take_their_first_term_from_the_stored_rows(L1_8, monkeypatch):
    """[g, g] is the echelon form of the rows c[i][j], shared by both series,
    and a derived step brackets unordered pairs: on these L1_8 operators the
    series make 4 and 9 bracket products and 3 eliminations (37 and 44
    products and 4 eliminations when each series brackets every ordered
    pair of the full space and of each term)."""
    calls = {"products": 0, "eliminations": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(
        constructions, "structure_product", counted("products", constructions.structure_product)
    )
    monkeypatch.setattr(
        constructions,
        "fraction_free_rref",
        counted("eliminations", constructions.fraction_free_rref),
    )
    T1 = OperatorMatrix([[1, -1, 0, 0], [1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0]])
    T3 = OperatorMatrix([[0, 0, 0, 2], [1, 0, 1, 3], [0, 0, 0, -2], [0, 0, 0, 0]])
    for T, products, dims in ((T1, 4, ((4, 1, 0), (4, 1, 0))), (T3, 9, ((4, 2, 0), (4, 2)))):
        g = homlie_from_rb(L1_8, T)
        calls.update(products=0, eliminations=0)
        rep = homlie_structure(g)
        assert calls == {"products": products, "eliminations": 3}
        assert (rep.derived_dims, rep.lower_central_dims) == dims


# -- modules -----------------------------------------------------------------------------


def _scalar_module(L, scalars):
    return ModuleAction.from_matrices(L.dim, [[[F(s)]] for s in scalars])


def test_zero_dimensional_module_valid(L1):
    V = ModuleAction.from_matrices(3, [[], [], []])
    assert validate_module(L1, V).ok


def test_scalar_module_family(L1):
    for t in (F(0), F(3), Fraction(-1, 2)):
        V = _scalar_module(L1, [t, 1, 0])
        assert validate_module(L1, V).ok


def test_module_identity_matches_dense_definition(L1, L2, rng):
    """validate_module reports, for each pair i < j whose identity fails,
    the residual act([e_i,e_j]) - (rho_i rho_j - rho_j rho_i) - omega_ij 1,
    taken here with dense products and sums over the Fraction views."""
    for L in (L1, L2):
        for size in (1, 2, 3):
            rho = [
                tuple(tuple(random_rational(rng, 2) for _ in range(size)) for _ in range(size))
                for _ in range(L.dim)
            ]
            V = ModuleAction.from_matrices(L.dim, rho)
            zero = ((F(0),) * size,) * size

            def act(v):
                out = zero
                for vk, m in zip(v, V.rho):
                    out = dense_sum(out, m, vk)
                return out

            want = []
            for i in range(L.dim):
                assert V.act_matrix(L.basis_vector(i)) == V.rho[i]
                for j in range(i + 1, L.dim):
                    comm = dense_sum(dense_mul(rho[i], rho[j]), dense_mul(rho[j], rho[i]), -1)
                    rhs = dense_sum(comm, identity(size), L.omega[i][j])
                    residual = dense_sum(act(L.c[i][j]), rhs, -1)
                    if any(map(any, residual)):
                        want.append((i, j, residual))
            failures = validate_module(L, V).failures
            assert failures == want
            assert all(type(x) is Fraction for *_, m in failures for row in m for x in row)


def test_scalar_module_wrong_weight_fails(L1):
    V = _scalar_module(L1, [0, 0, 0])
    report = validate_module(L1, V)
    assert not report.ok
    assert (0, 1) in [(i, j) for i, j, _ in report.failures]


def test_module_twist_on_zero_module(L1):
    V = ModuleAction.from_matrices(3, [[], [], []])
    minus_id = OperatorMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    cls = classify_map(L1, minus_id, 1)
    assert cls.is_rb and cls.is_isometric
    W = module_twist(L1, V, minus_id)
    assert W.module_dim == 0


def test_module_twist_rejects_annihilator_violation(L1):
    V = _scalar_module(L1, [0, 1, 0])
    minus_id = OperatorMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    ann = annihilator(L1, V)
    assert ann.dim == 2 and not ann.contains((0, 1, 0))
    with pytest.raises(PreconditionError, match="annihilator"):
        module_twist(L1, V, minus_id)


def test_module_twist_acts_by_the_operator_image():
    # on a Lie algebra every subalgebra splitting L = A + B gives the
    # isometric weight-1 Rota-Baxter operator -P_A; here A = <x + y/2> and
    # B = <y, z>, so R([R(L), L]) = R(<z>) = 0 lies in every annihilator
    heis = OmegaAlgebra.from_brackets(["x", "y", "z"], {(0, 1): [0, 0, 1]}, {})
    R = OperatorMatrix([[-1, Fraction(-1, 2), 0], [0, 0, 0], [0, 0, 0]])
    h = Fraction(1, 2)
    V = ModuleAction.from_matrices(
        3, [[[h, 1], [0, h]], [[0, Fraction(1, 3)], [0, 0]], [[0, 0], [0, 0]]]
    )
    assert validate_module(heis, V).ok
    W = module_twist(heis, V, R)
    assert W.rho == tuple(V.act_matrix(R.entries[i]) for i in range(3))
    assert W.rho[0] == ((Fraction(-1, 2), Fraction(-7, 6)), (0, Fraction(-1, 2)))
    assert all(type(x) is Fraction for m in W.rho for row in m for x in row)
    assert validate_module(heis, W).ok


def test_module_twist_search_over_shipped_families(L1, L2, rng):
    """Search isometric weight-1 operators (sampled from the shipped
    component families) against scalar and diagonal module families.  At
    this scale no triple satisfies the twist hypothesis; the assertion
    records that outcome, and any future hit must validate."""
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points
    from omegarb.solver import GenericOperator, entry_name

    found = 0
    for L, cand_name in ((L1, "table2_L1"), (L2, "table2_L2")):
        table = GenericOperator.of_dimension(3).table
        operators = []
        for ideal_p, cert in _load_builtin_candidates(cand_name, table):
            cert = cert or find_certificate(ideal_p)
            for pt in sample_points(ideal_p, cert, 4, rng):
                operators.append(
                    OperatorMatrix(
                        [[pt[entry_name(i, j)] for j in (1, 2, 3)] for i in (1, 2, 3)]
                    )
                )
        modules = []
        for t in (F(0), F(1), F(-2)):
            scalars = [t, 1, 0] if L is L1 else [t, 1, 0]
            V = _scalar_module(L, scalars)
            if validate_module(L, V).ok:
                modules.append(V)
        for s in (F(1), F(2)):
            V = ModuleAction.from_matrices(
                3, [[[s, 0], [0, s + 1]], [[1, 0], [0, 1]], [[0, 0], [0, 0]]]
            )
            if validate_module(L, V).ok:
                modules.append(V)
        for R in operators:
            for V in modules:
                try:
                    W = module_twist(L, V, R)
                except PreconditionError:
                    continue
                found += 1
                assert validate_module(L, W).ok
    assert found == 0  # recorded desk-scale outcome for these families


# -- theorem soundness on sampled variety points -------------------------------------------


def test_construction_soundness_on_sampled_points(L1, L2, L1_2, L1_8, rng):
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points
    from omegarb.solver import GenericOperator, entry_name

    cases = [
        (L1, "table1_L1", 3),
        (L2, "table1_L2", 3),
        (L1_2, "table3_L1_2", 4),
        (L1_8, "table3_L1_8", 4),
    ]
    for L, cand_name, n in cases:
        table = GenericOperator.of_dimension(n).table
        for ideal_p, cert in _load_builtin_candidates(cand_name, table):
            cert = cert or find_certificate(ideal_p)
            for pt in sample_points(ideal_p, cert, 4, rng):
                R = OperatorMatrix(
                    [
                        [pt[entry_name(i, j)] for j in range(1, n + 1)]
                        for i in range(1, n + 1)
                    ]
                )
                LR = omega_deform(L, R)  # validates internally
                cls = classify_map(LR, R, 0)
                assert cls.is_rb and cls.is_compatible
                products = _image_products_reference(L, R)
                if R.power(2).is_zero():
                    g = homlie_from_rb(L, R)
                    assert hom_jacobi_holds(g)
                    assert _content(g.integral) == 1
                    assert g.c == tuple(
                        tuple(
                            tuple(a - b for a, b in zip(products[i][j], products[j][i]))
                            for j in range(n)
                        )
                        for i in range(n)
                    )  # [x,y]_R = [R x, y] - [R y, x]
                try:
                    A = left_symmetric_from_rb(L, R)
                    assert is_left_symmetric(A)
                except PreconditionError:
                    continue  # image not inside ker(omega) for this point
                assert _content(A.integral) == 1
                assert A.m == products


def _derived(bracket, U: Subspace) -> Subspace:
    """[U, U] under ``bracket``, which is skew."""
    return Subspace.span(U.ambient_dim, [bracket(u, v) for u, v in combinations(U.basis, 2)])


def _derived_series(bracket, U: Subspace) -> list[Subspace]:
    """U, [U, U], ... under ``bracket``, up to the first term that repeats;
    it ends in the zero subspace exactly when U is solvable."""
    terms = [U]
    while (nxt := _derived(bracket, terms[-1])) != terms[-1]:
        terms.append(nxt)
    return terms


def _lemma_derived_length(L, R):
    """The solvability lemma at one weight-0 Rota-Baxter operator R: R is a
    homomorphism from (L, [,]_R) onto (im R, [,]), so R maps the k-th
    derived term of (L, [,]_R) onto that of im R for every k.  [x,y]_R =
    [Rx,y] - [Ry,x] is read off the reference products [R e_i, e_j].
    Then (L, [,]_R) is solvable exactly when im R is, with a derived length
    longer by at most 1.  Returns the derived length of (L, [,]_R), None
    when it is not solvable."""
    n = L.dim
    products = _image_products_reference(L, R)

    def induced(u, v):
        out = [F(0)] * n
        for i, j in combinations(range(n), 2):
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k in range(n):
                    out[k] += c * (products[i][j][k] - products[j][i][k])
        return tuple(out)

    def image(U):
        return Subspace.span(n, [R.apply(u) for u in U.basis])

    ours = _derived_series(induced, Subspace.span(n, identity(n)))
    theirs = _derived_series(L.bracket, image(ours[0]))
    for k in range(max(len(ours), len(theirs))):
        assert image(ours[min(k, len(ours) - 1)]) == theirs[min(k, len(theirs) - 1)], k
    if not ours[-1].is_zero():
        assert not theirs[-1].is_zero()
        return None
    assert theirs[-1].is_zero() and len(theirs) <= len(ours) <= len(theirs) + 1
    return len(ours) - 1


def test_rb_operator_maps_the_derived_series_onto_its_image(catalog):
    """The solvability lemma on the computed table-3 rows, where R^2 = 0 on
    a 4-dimensional L: then dim im R <= 2 bounds the derived length by 3,
    and the Hom-Lie algebra's own series has the same length.  8 points on
    each certified component of each computed row."""
    from omegarb.cli import _row_candidates, _shipped_row
    from omegarb.ideals import sample_points
    from omegarb.solver import PROFILES, analyze_variety, entry_name

    rng = random.Random(20261021)
    longest = 0
    for name, alpha in (("L1_1", None), ("L1_2", None), ("L1_8", None), ("Atilde_alpha", 2)):
        L = catalog[name].instantiate({"alpha": F(alpha)} if alpha is not None else None)
        n = L.dim
        rep = analyze_variety(L, PROFILES["bs"], _row_candidates(_shipped_row(name, "bs"), n))
        certified = [c for c in rep.components.candidates if c.certificate_status == "passed"]
        assert certified, name
        for c in certified:
            for pt in sample_points(c.ideal, c.certificate, 8, rng):
                R = OperatorMatrix([[pt[entry_name(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)])
                k = _lemma_derived_length(L, R)
                assert k is not None and k <= 3, (name, pt)
                assert homlie_structure(homlie_from_rb(L, R)).solvable_length == k, (name, pt)
                longest = max(longest, k)
    assert longest >= 1  # some induced bracket is nonabelian


def _omega_lie_from_brackets(brackets) -> OmegaAlgebra:
    """The 3-dimensional omega-Lie algebra on a skew bracket: in dimension 3
    the Jacobiator J(e_0, e_1, e_2) = omega(e_1, e_2) e_0 + omega(e_2, e_0) e_1
    + omega(e_0, e_1) e_2 fixes omega."""
    names = ["e0", "e1", "e2"]
    b = OmegaAlgebra.from_brackets(names, brackets, {}).bracket
    e = [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
    J = [sum(t) for t in zip(b(b(e[0], e[1]), e[2]), b(b(e[1], e[2]), e[0]), b(b(e[2], e[0]), e[1]))]
    return OmegaAlgebra.from_brackets(names, brackets, {(1, 2): J[0], (2, 0): J[1], (0, 1): J[2]})


def _random_skew_brackets(rng, kind):
    """A skew bracket on 3 basis vectors, as [e_i, e_j] for i < j: a rank-1
    one (every value a multiple of one vector), a nilpotent one ([e_0, e_1]
    a multiple of e_2, the rest zero) or a semidirect one (e_0 acting on
    the span of e_1 and e_2, with [e_1, e_2] = 0)."""
    entries = (0, 0, 0, 1, -1, 2)
    v = [rng.choice(entries) for _ in range(3)]
    brackets = {}
    for i, j in combinations(range(3), 2):
        if kind == "rank-1":
            row = [rng.choice(entries) * x for x in v]
        elif kind == "nilpotent":
            row = [rng.choice(entries) if k > j else 0 for k in range(3)]
        else:
            row = [rng.choice(entries) if k and not i else 0 for k in range(3)]
        brackets[(i, j)] = row
    return brackets


def test_solvability_lemma_on_random_omega_lie_brackets():
    """The solvability lemma off the catalog: 12 seeded 3-dimensional skew
    brackets, 4 of each kind, each with the omega its Jacobiator fixes, and
    2 points on every split leaf of their weight-0 Rota-Baxter (``b``)
    varieties that a solve chain parameterizes.  R need not square to zero
    here, so im R may be all of L.  Dense brackets are left out: their
    bases take about 0.3 s each, and few of their leaves have a chain."""
    from omegarb.ideals import CertificateError, sample_points, split_heuristic
    from omegarb.solver import PROFILES, entry_name, generate_system

    rng = random.Random(20261021)
    points, longest, lie = 0, 0, []
    for kind in ("rank-1", "nilpotent", "semidirect") * 4:
        L = _omega_lie_from_brackets(_random_skew_brackets(rng, kind))
        assert validate_algebra(L).ok
        lie.append(L.is_lie())
        for leaf in split_heuristic(generate_system(L, PROFILES["b"])).ideals:
            try:
                sampled = sample_points(leaf, None, 2, rng)
            except CertificateError:  # no solve chain parameterizes this leaf
                continue
            for pt in sampled:
                R = OperatorMatrix([[pt[entry_name(i, j)] for j in range(1, 4)] for i in range(1, 4)])
                assert classify_map(L, R, 0).is_rb
                k = _lemma_derived_length(L, R)
                assert k is not None, (L.c, pt)  # L is solvable, so im R is
                points += 1
                longest = max(longest, k)
    assert points >= 24 and longest == 2 and not all(lie)


def _outcome(build):
    """What a construction returns, or how it refuses."""
    try:
        return build()
    except PreconditionError as exc:
        return ("rejected", exc.hypothesis)
    except IterationHalted as exc:
        return ("halted", exc.step, exc.produced)


def _construction_outcome(algebra, R):
    """The classify flags, the left-symmetric table or its rejection, the
    2-step deformation or where it halts, and the Hom-Lie category, each
    from a construction on ``algebra()``."""
    out = [classify_map(algebra(), R, 0)]
    for build in (
        lambda L: left_symmetric_from_rb(L, R),
        lambda L: iterate_deform(L, R, 2),
        lambda L: homlie_structure(homlie_from_rb(L, R)).category,
    ):
        out.append(_outcome(lambda: build(algebra())))
    return out


def test_sharing_the_evaluation_never_changes_an_answer(catalog):
    """Operators sampled as the constructions benchmark samples them, and
    three that fail a hypothesis or halt: the outcome on one shared
    algebra, which keeps each evaluation for the next construction and
    replaces it for the next operator, equals the outcome with a fresh
    algebra per construction."""
    from omegarb.algebras import evaluate_operator
    from omegarb.cli import _load_builtin_candidates
    from omegarb.ideals import find_certificate, sample_points
    from omegarb.solver import GenericOperator, entry_name

    rng = random.Random(7)
    cases = []  # (a builder of fresh algebras, operator rows)
    for name, cand_name in (
        ("L1", "table1_L1"),
        ("L2", "table1_L2"),
        ("L1_2", "table3_L1_2"),
        ("L1_8", "table3_L1_8"),
    ):
        entry = catalog[name]
        n = entry.dim
        table = GenericOperator.of_dimension(n).table
        for component, cert in _load_builtin_candidates(cand_name, table):
            cert = cert or find_certificate(component)
            for pt in sample_points(component, cert, 3, rng):
                rows = [[pt[entry_name(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)]
                cases.append((entry.instantiate, rows))
    cases += [
        (catalog["L1"].instantiate, [[1, 1, 0], [0, 0, 0], [0, 0, 0]]),  # RB, not compatible
        (catalog["L1"].instantiate, identity(3)),  # not RB
        (
            lambda: OmegaAlgebra.from_brackets(["x", "y", "z"], {(0, 1): [0, 0, 1]}, {}),
            [[-1, -1, -1], [-1, 0, 0], [0, 0, 1]],  # halts at step 2
        ),
    ]
    kinds, shared = set(), {}
    for algebra, rows in cases:
        fresh = _construction_outcome(algebra, OperatorMatrix(rows))
        L = shared.setdefault(algebra, algebra())
        for R in (OperatorMatrix(rows), OperatorMatrix(rows)):  # evaluated, then kept
            assert _construction_outcome(lambda: L, R) == fresh
        kinds.update(type(x).__name__ if type(x) is not tuple else x[0] for x in fresh[1:])
        ev = evaluate_operator(L, OperatorMatrix(rows))
        assert type(ev.bracket) is type(ev.form) is tuple
        assert all(type(row) is tuple for row in ev.bracket + ev.form)
    assert kinds == {"LeftSymmetricAlgebra", "list", "str", "rejected", "halted"}


# the operators on L1 the kept-evaluation test draws from: equal copies, so
# a lookup must match by value, the zero operator (Rota-Baxter at every
# weight), compatible weight-0 operators, one that is not compatible, and
# -id, an isometric Rota-Baxter operator of weight 1 only
_LSA_ROWS = [[0, 0, Fraction(1, 2)], [0, 0, Fraction(-2, 3)], [0, 0, 0]]
MEMO_OPERATORS = (
    OperatorMatrix(_LSA_ROWS),
    OperatorMatrix(_LSA_ROWS),
    OperatorMatrix.zero(3),
    OperatorMatrix.zero(3),
    OperatorMatrix([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]]),
    OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]]),
    OperatorMatrix.identity(3).scale(-1),
)
MEMO_WEIGHTS = (0, Fraction(0), 1, Fraction(-1, 2))
MEMO_BUILDS = {
    "lsa": left_symmetric_from_rb,
    "deform": lambda L, R: iterate_deform(L, R, 2),
    "homlie": homlie_from_rb,
    "twist": lambda L, R: module_twist(L, ModuleAction.from_matrices(3, [[], [], []]), R),
}
MEMO_CALLS = ("classify", "kept", *MEMO_BUILDS)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(MEMO_CALLS),
            st.integers(0, len(MEMO_OPERATORS) - 1),
            st.sampled_from(MEMO_WEIGHTS),
        ),
        min_size=1,
        max_size=10,
    )
)
@example([("classify", 0, 1), ("lsa", 1, 0), ("classify", 1, 0)])
@example([("twist", 6, 0), ("classify", 6, 0), ("kept", 6, 1), ("homlie", 6, 0)])
@example([("kept", 2, Fraction(0)), ("classify", 3, 0), ("deform", 2, 0), ("kept", 3, 1)])
def test_the_kept_evaluation_answers_as_a_fresh_one(catalog, calls):
    """Random sequences of classifications, kept-evaluation reads and
    constructions on one algebra, which keeps an evaluation from call to
    call: every classification and read equals a fresh `evaluate_operator`
    of (L, R, w), flags and tables, and every construction answers as on a
    fresh algebra, which has no evaluation kept."""
    L = catalog["L1"].instantiate()
    for call, k, w in calls:
        R = MEMO_OPERATORS[k]
        if call == "classify":
            assert classify_map(L, R, w) == evaluate_operator(L, R, w).flags
        elif call == "kept":
            assert kept_evaluation(L, R, w) == evaluate_operator(L, R, w)
        else:
            build = MEMO_BUILDS[call]
            fresh = catalog["L1"].instantiate()
            assert _outcome(lambda: build(L, R)) == _outcome(lambda: build(fresh, R))


def _image_products_reference(L, R):
    """[R e_i, e_j] by the rational bracket and operator."""
    basis = [L.basis_vector(i) for i in range(L.dim)]
    return tuple(tuple(L.bracket(R.apply(u), v) for v in basis) for u in basis)


def _content(A):
    """The gcd of a stored table's scale and entries."""
    return math.gcd(A.scale, *(x for layer in A.c for row in layer for x in row))


def test_degeneration_to_lie_case(rng):
    # with omega = 0 the deformation is the classical double bracket
    heis = OmegaAlgebra.from_brackets(["x", "y", "z"], {(0, 1): [0, 0, 1]}, {})
    R = OperatorMatrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    cls = classify_map(heis, R, 0)
    assert cls.is_rb and cls.is_compatible
    LR = omega_deform(heis, R)
    assert LR.is_lie()
    expected = heis.bracket(R.apply((1, 0, 0)), (0, 1, 0))
    plus = heis.bracket((1, 0, 0), R.apply((0, 1, 0)))
    assert LR.c[0][1] == tuple(a + b for a, b in zip(expected, plus))
