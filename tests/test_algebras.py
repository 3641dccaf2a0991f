"""Algebra validation, omega kernels, operator classification, and the
inverse correspondence between Rota-Baxter operators and derivations."""

from fractions import Fraction

import pytest

from omegarb.algebras import (
    OmegaAlgebra,
    OperatorMatrix,
    SingularOperatorError,
    Subspace,
    classify_map,
    inverse_correspondence,
    kernel_omega,
    validate_algebra,
)
from omegarb.linalg import identity, mat, nullspace
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
