"""Algebra validation, omega kernels, operator classification, and the
inverse correspondence between Rota-Baxter operators and derivations."""

import hashlib
import random
from dataclasses import astuple
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import (
    MapClassification,
    OmegaAlgebra,
    OperatorMatrix,
    SingularOperatorError,
    Subspace,
    classify_map,
    evaluate_operator,
    inverse_correspondence,
    kept_evaluation,
    kernel_omega,
    validate_algebra,
)
from omegarb.cli import _candidate_table, _load_builtin_candidates
from omegarb.ideals import sample_points
from omegarb.linalg import det, identity, mat, nullspace
from omegarb.solver import entry_name
from tests.conftest import random_rational


def abelian(n, omega=None):
    return OmegaAlgebra.from_brackets(
        tuple(f"e{i}" for i in range(1, n + 1)), {}, omega or {}
    )


HEISENBERG = OmegaAlgebra.from_brackets(
    ["x", "y", "z"], {(0, 1): [0, 0, 1]}, {}
)


# -- validation -----------------------------------------------------------------


def test_catalog_entry_is_valid(L1):
    assert validate_algebra(L1).ok


def test_lie_algebra_with_zero_form(L1):
    assert validate_algebra(HEISENBERG).ok
    broken = OmegaAlgebra.from_brackets(
        ["x", "y", "z"], {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0]}, {}
    )
    # [[y,z],x] = -x does not cancel for this table: Jacobi must fail
    assert not validate_algebra(broken).ok


def test_scaled_form_breaks_identity():
    bad = OmegaAlgebra.from_brackets(
        ["x", "y", "z"], {(0, 1): [0, 1, 0], (1, 2): [0, 0, 1]}, {(0, 1): 2}
    )
    report = validate_algebra(bad)
    assert not report.ok
    kinds_and_triples = [(k, idx) for k, idx, _ in report.failures]
    assert ("jacobi", (0, 1, 2)) in kinds_and_triples


def test_validation_reports_residual():
    bad = OmegaAlgebra.from_brackets(
        ["x", "y", "z"], {(0, 1): [0, 1, 0], (1, 2): [0, 0, 1]}, {(0, 1): 2}
    )
    _, _, residual = validate_algebra(bad).failures[0]
    assert any(v != 0 for v in residual)


# -- kernels ---------------------------------------------------------------------


def test_kernel_of_rank_two_form(L1):
    ker = kernel_omega(L1)
    assert ker.basis == ((Fraction(0), Fraction(0), Fraction(1)),)


def test_kernel_dimension_four_case(L1_1):
    ker = kernel_omega(L1_1)
    assert ker.dim == 2
    e = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    z = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    assert ker.contains(e) and ker.contains(z)


def test_kernel_of_zero_form():
    assert kernel_omega(HEISENBERG).dim == 3


# -- classification ----------------------------------------------------------------


def test_rank_one_image_operator_is_compatible_rb(L1):
    R = OperatorMatrix([[0, 0, 3], [0, 0, -2], [0, 0, 0]])
    cls = classify_map(L1, R, 0)
    assert cls.is_rb and cls.is_compatible
    assert cls.is_square_zero and not cls.is_invertible


def test_rb_without_compatibility(L1):
    R = OperatorMatrix([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    cls = classify_map(L1, R, 0)
    assert cls.is_rb and not cls.is_compatible


def test_zero_map_flags(L1):
    R = OperatorMatrix.zero(3)
    for weight in (0, 1, Fraction(-2, 3)):
        cls = classify_map(L1, R, weight)
        assert cls.is_rb and cls.is_compatible
        assert not cls.is_isometric  # the form is nonzero
    lie = HEISENBERG
    assert classify_map(lie, OperatorMatrix.zero(3), 0).is_isometric


def test_negated_identity_weight_one(L1):
    R = OperatorMatrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    cls = classify_map(L1, R, 1)
    assert cls.is_rb and cls.is_isometric and cls.is_invertible


def test_automorphism_implies_invertible(L1, rng):
    for _ in range(20):
        R = OperatorMatrix(
            [[random_rational(rng) for _ in range(3)] for _ in range(3)]
        )
        cls = classify_map(L1, R, 0)
        assert not cls.is_automorphism or cls.is_invertible


def test_float_weights_are_rejected(L1):
    # Fraction(0.1) would lift the operator's scale to 2^55
    R = OperatorMatrix.identity(3)
    for weight in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError):
            evaluate_operator(L1, R, weight)
        with pytest.raises(TypeError):
            classify_map(L1, R, weight)


def test_classification_reads_only_a_kept_evaluation_of_its_weight(catalog):
    """-id is Rota-Baxter of weight 1, not of weight 0, on L1: classifying
    it at weight 1 after weight 0 gives the weight-1 flags, and a float
    weight equal to the kept one still raises."""
    L = catalog["L1"].instantiate()
    R = OperatorMatrix.identity(3).scale(-1)
    at_zero = classify_map(L, R, 0)
    at_one = classify_map(L, R, 1)
    assert not at_zero.is_rb and at_one.is_rb and at_one.weight == 1
    assert at_one == evaluate_operator(L, R, 1).flags
    assert classify_map(L, R, 0) == at_zero  # L keeps the weight-0 evaluation
    with pytest.raises(TypeError):
        classify_map(L, R, 0.0)
    with pytest.raises(TypeError):
        kept_evaluation(L, R, 0.0)
    assert classify_map(L, R, Fraction(0)) == at_zero


# -- the one evaluation against a Fraction reference ---------------------------------


def _reference_evaluation(L, R, weight):
    """The flags, the deformed bracket and the image form of (L, R), from
    the rational bracket, form and operator alone, on every ordered pair."""
    n = L.dim
    e = [L.basis_vector(i) for i in range(n)]
    Re = [R.apply(v) for v in e]

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    bracket = [[plus(L.bracket(Re[i], e[j]), L.bracket(e[i], Re[j])) for j in range(n)] for i in range(n)]
    form = [[L.omega_value(Re[i], Re[j]) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    image = {(i, j): L.bracket(Re[i], Re[j]) for i, j in pairs}
    of_bracket = {(i, j): R.apply(L.bracket(e[i], e[j])) for i, j in pairs}
    invertible = det(R.entries) != 0
    weighted = {(i, j): tuple(weight * x for x in L.bracket(e[i], e[j])) for i, j in pairs}
    flags = MapClassification(
        weight=Fraction(weight),
        is_rb=all(image[p] == R.apply(plus(bracket[p[0]][p[1]], weighted[p])) for p in pairs),
        is_compatible=all(L.omega_value(Re[i], e[j]) + L.omega_value(e[i], Re[j]) == 0 for i, j in pairs),
        is_isometric=all(form[i][j] == L.omega_value(e[i], e[j]) for i, j in pairs),
        is_derivation=all(of_bracket[i, j] == bracket[i][j] for i, j in pairs),
        is_automorphism=invertible and all(of_bracket[p] == image[p] for p in pairs),
        is_square_zero=not any(any(R.apply(v)) for v in Re),
        is_invertible=invertible,
    )
    return flags, bracket, form


ENTRY = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=3))


@st.composite
def evaluation_inputs(draw):
    """A random skew bracket and form (not omega-Lie, as the identities do
    not need it), an operator and a weight.  The operator is a random
    matrix or a scalar: lam = -w is Rota-Baxter of weight w, lam = 1 an
    automorphism."""
    n = draw(st.integers(2, 4))
    pairs = list(combinations(range(n), 2))
    brackets = {} if draw(st.booleans()) else {p: draw(st.lists(ENTRY, min_size=n, max_size=n)) for p in pairs}
    omega = {p: draw(ENTRY) for p in pairs}
    L = OmegaAlgebra.from_brackets([f"e{i}" for i in range(n)], brackets, omega)
    weight = draw(st.sampled_from([0, 1, -1, Fraction(-1, 2)]) | st.fractions(-2, 2, max_denominator=4))
    scalar = draw(st.sampled_from([None, 0, 1, -Fraction(weight)]))
    if scalar is None:
        R = OperatorMatrix([[draw(ENTRY) for _ in range(n)] for _ in range(n)])
    else:
        R = OperatorMatrix.identity(n).scale(scalar)
    return L, R, weight


@settings(max_examples=120, deadline=None)
@given(evaluation_inputs())
def test_evaluation_matches_the_fraction_reference(inputs):
    L, R, weight = inputs
    flags, bracket, form = _reference_evaluation(L, R, weight)
    ev = evaluate_operator(L, R, weight)
    assert ev.flags == flags
    assert ev.rows == tuple(tuple(ev.d * x for x in row) for row in R.entries)
    assert [[tuple(Fraction(x, ev.D * ev.d) for x in v) for v in row] for row in ev.bracket] == bracket
    assert [[Fraction(x, ev.D * ev.d**2) for x in row] for row in ev.form] == form


# sha256 of the evaluations below as the per-pair evaluation computed them:
# one pass over all basis pairs must give every flag, scale and table again
EVALUATIONS_SHA256 = "f895c02121cbaf8357ba368c475d3507addd0a131fafd7e47861c3a3fe1e15ba"


def test_evaluations_of_sampled_operators_pinned(catalog):
    rng = random.Random(27)
    h = hashlib.sha256()
    files = resources.files("omegarb").joinpath("data/candidates").iterdir()
    for path in sorted(files, key=lambda path: path.name):
        name = path.name.removesuffix(".yaml")
        L = catalog[name.split("_", 1)[1]].instantiate()
        ks = range(1, L.dim + 1)
        for ideal, cert in _load_builtin_candidates(name, _candidate_table(L.dim)):
            for point in sample_points(ideal, cert, 3, rng):
                R = OperatorMatrix([[point[entry_name(i, j)] for j in ks] for i in ks])
                for S in (R, R.then(R)):
                    for weight in (0, 1, Fraction(-1, 2)):
                        ev = evaluate_operator(L, S, weight)
                        h.update(repr((astuple(ev.flags),) + tuple(ev)[1:]).encode())
    assert h.hexdigest() == EVALUATIONS_SHA256


# -- linear families of special maps -------------------------------------------------


def _compatible_space(L):
    """Basis of {R : omega(Rx, y) + omega(x, Ry) = 0}, a linear condition."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            row = [Fraction(0)] * (n * n)
            for p in range(n):
                row[i * n + p] += L.omega[p][j]
                row[j * n + p] += L.omega[i][p]
            rows.append(row)
    return [
        OperatorMatrix([v[k * n : (k + 1) * n] for k in range(n)])
        for v in nullspace(mat(rows))
    ]


def _random_combo(rng, basis):
    n = basis[0].dim
    out = OperatorMatrix.zero(n)
    for b in basis:
        out = out.add(b.scale(random_rational(rng, span=3)))
    return out


def test_compatibility_closure(L1, L1_8, rng):
    # compatible maps are closed under sum, scaling, and commutator
    for L in (L1, L1_8):
        basis = _compatible_space(L)
        assert basis
        for _ in range(10):
            R = _random_combo(rng, basis)
            S = _random_combo(rng, basis)
            q = random_rational(rng, span=5)
            comm = R.then(S).add(S.then(R).scale(-1))
            for candidate in (R.add(S), R.scale(q), comm):
                assert classify_map(L, candidate, 0).is_compatible


# -- inverse correspondence ------------------------------------------------------------


def test_bijection_on_abelian_algebra(rng):
    L = abelian(3)
    for _ in range(10):
        R = OperatorMatrix([[random_rational(rng) for _ in range(3)] for _ in range(3)])
        if not R.is_invertible():
            continue
        cls = classify_map(L, R, 0)
        assert cls.is_rb and cls.is_automorphism
        inv = inverse_correspondence(L, R)
        icls = classify_map(L, inv, 0)
        assert icls.is_derivation and icls.is_automorphism
        assert inverse_correspondence(L, inv).entries == R.entries


def test_compatibility_preserved_by_inversion():
    # 2-dimensional abelian algebra with a symplectic form: compatible
    # invertible derivation-automorphisms invert to compatible operators
    L = abelian(2, omega={(0, 1): 1})
    assert validate_algebra(L).ok
    R = OperatorMatrix([[0, 1], [-1, 0]])
    cls = classify_map(L, R, 0)
    assert cls.is_derivation and cls.is_automorphism and cls.is_compatible
    inv = inverse_correspondence(L, R)
    icls = classify_map(L, inv, 0)
    assert icls.is_rb and icls.is_automorphism and icls.is_compatible


def test_search_for_invertible_derivation_automorphisms(L1, L2, rng):
    """Brute-force search on the catalog algebras; any hit must satisfy the
    correspondence.  (No hit at this scale is the recorded outcome for the
    non-Lie entries; the abelian tests above exercise the bijection.)"""

    def derivation_space(L):
        n = L.dim
        rows = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    row = [Fraction(0)] * (n * n)
                    for m in range(n):
                        row[m * n + k] += L.c[i][j][m]
                    for p in range(n):
                        row[i * n + p] -= L.c[p][j][k]
                    for q in range(n):
                        row[j * n + q] -= L.c[i][q][k]
                    rows.append(row)
        return [
            OperatorMatrix([v[k * n : (k + 1) * n] for k in range(n)])
            for v in nullspace(mat(rows))
        ]

    found = 0
    for L in (L1, L2):
        basis = derivation_space(L)
        if not basis:
            continue
        for _ in range(40):
            D = _random_combo(rng, basis)
            cls = classify_map(L, D, 0)
            assert cls.is_derivation
            if cls.is_automorphism:
                found += 1
                inv = inverse_correspondence(L, D)
                icls = classify_map(L, inv, 0)
                assert icls.is_rb and icls.is_automorphism
    # hits are not expected on these algebras; the assertion above guards
    # correctness if the search ever finds one
    assert found >= 0


def test_singular_operator_rejected(L1):
    with pytest.raises(SingularOperatorError):
        inverse_correspondence(L1, OperatorMatrix.zero(3))


def test_operators_of_different_dimensions_rejected():
    # a sum or composition of a 2x2 and a 3x3 operator is an error, not a
    # truncated 2x2 sum or a product with 3 rows of 2
    two, three = OperatorMatrix([[1, 2], [3, 4]]), OperatorMatrix.identity(3)
    with pytest.raises(ValueError, match="dimensions 2 and 3"):
        two.add(three)
    with pytest.raises(ValueError, match="dimensions 3 and 2"):
        three.then(two)


# -- subspaces ----------------------------------------------------------------------


def test_subspace_canonical_form():
    s1 = Subspace.span(3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace.span(3, [(2, 2, 2), (0, 0, -1)])
    assert s1 == s2
    assert s1.contains((3, 3, 5))
    assert not s1.contains((1, 0, 0))
    assert s1.sum(Subspace.span(3, [(1, 0, 0)])).dim == 3
