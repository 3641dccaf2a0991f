"""`classify_map` against a test-side transcription of the defining identities.

The oracle reads the structure constants ``L.c`` and the form ``L.omega`` as
plain data and shares no code with ``omegarb.algebras`` or ``omegarb.linalg``.
It applies an operator as R(v) = sum_i v_i R(e_i), with R(e_i) the i-th row,
evaluates each identity on every ordered pair of basis vectors (no reduction
to i < j), and decides invertibility by its own elimination.
"""

import random
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.algebras import OmegaAlgebra, OperatorMatrix, classify_map, validate_algebra
from omegarb.cli import _load_builtin_candidates
from omegarb.constructions import (
    PreconditionError,
    homlie_from_rb,
    left_symmetric_from_rb,
    omega_deform,
)
from omegarb.ideals import find_certificate, sample_points
from omegarb.solver import GenericOperator, entry_name

WEIGHTS = (Fraction(0), Fraction(1), Fraction(-1, 2))
DIMS = {
    "L1": 3, "L2": 3, "L1_2": 4, "L1_8": 4, "sl2": 3, "Atilde_quarter": 4, "L1_half": 3, "plane": 2,
}


def _rescaled(L, lam):
    """c -> lam c and omega -> lam^2 omega: both sides of the defining
    identity scale by lam^2, so the result is still omega-Lie."""
    c = tuple(tuple(tuple(lam * x for x in row) for row in layer) for layer in L.c)
    omega = tuple(tuple(lam * lam * x for x in row) for row in L.omega)
    return OmegaAlgebra(L.dim, L.basis_names, c, omega)


@pytest.fixture(scope="module")
def algebras(catalog):
    out = {name: catalog[name].instantiate() for name in ("L1", "L2", "L1_2", "L1_8")}
    # sl2, a Lie algebra (omega = 0): [h,e] = 2e, [h,f] = -2f, [e,f] = h
    out["sl2"] = OmegaAlgebra.from_brackets(
        ["h", "e", "f"], {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}, {}
    )
    # two algebras whose constants are not integers: criterion 10's
    # Atilde_alpha at alpha = -1/4, and L1 with bracket / 2 and omega / 4
    out["Atilde_quarter"] = catalog["Atilde_alpha"].instantiate({"alpha": Fraction(-1, 4)})
    out["L1_half"] = _rescaled(out["L1"], Fraction(1, 2))
    assert validate_algebra(out["L1_half"]).ok
    # the abelian plane with omega(p, q) = 1/3 (every 2-dimensional algebra
    # is omega-Lie): its compatible operators are the traceless ones, and
    # omega(R x, R y) = det(R) omega(x, y) gives the only nonzero deformed
    # form among these algebras
    out["plane"] = OmegaAlgebra.from_brackets(["p", "q"], {}, {(0, 1): Fraction(1, 3)})
    for name in ("Atilde_quarter", "L1_half"):
        L = out[name]
        assert any(x.denominator > 1 for layer in L.c for row in layer for x in row)
    assert out["plane"].omega[0][1].denominator > 1
    assert {name: L.dim for name, L in out.items()} == DIMS
    return out


# shipped component files: table 1 (compatible, weight 0), table 2
# (isometric, weight 1), table 3 (compatible, weight 0, square zero)
SHIPPED = {
    "L1": ("table1_L1", "table2_L1"),
    "L2": ("table1_L2", "table2_L2"),
    "L1_2": ("table3_L1_2",),
    "L1_8": ("table3_L1_8",),
    # the Rota-Baxter, compatibility and isometry identities are homogeneous
    # in c and in omega, so L1's points lie on the same varieties of L1_half
    "L1_half": ("table1_L1", "table2_L1"),
}

# compatible weight-0 Rota-Baxter operators with R^2 = 0, at hand-picked
# points of linear `bs` components: on Atilde_{-1/4}, the components
# {R(z) free, rest 0} and {x12 x41 + x43^2 = 0, x32 = x43, x42 free};
# on L1 (and so on L1_half), the operator of the pinned `construct deform`
# output and one with image in ker(omega)
HANDPICKED = {
    "Atilde_quarter": (
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [Fraction(1, 2), Fraction(-2, 3), 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [Fraction(1, 2), Fraction(-2, 3), 3, 0]],
        [
            [0, Fraction(1, 2), 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0, 0],
            [-2, Fraction(1, 3), 1, 0],
        ],
    ),
    "L1": ([[-1, 1, 1], [-1, 1, 1], [0, 0, 0]], [[0, 0, 1], [0, 0, 1], [0, 0, 0]]),
}
HANDPICKED["L1_half"] = HANDPICKED["L1"]
# on the abelian plane every operator is Rota-Baxter of weight 0 and the
# traceless ones are compatible; the last of these squares to zero
HANDPICKED["plane"] = ([[1, 0], [0, -1]], [[1, 2], [3, -1]], [[0, 1], [0, 0]])


def _apply(rows, v):
    n = len(rows)
    out = [Fraction(0)] * n
    for i in range(n):
        for k in range(n):
            out[k] += v[i] * rows[i][k]
    return out


def _bracket(c, u, v):
    n = len(u)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * c[i][j][k]
    return out


def _form(omega, u, v):
    n = len(u)
    return sum((u[i] * v[j] * omega[i][j] for i in range(n) for j in range(n)), Fraction(0))


def _rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def oracle(L, rows, weight):
    """The eight `MapClassification` fields, from the identities themselves."""
    n = L.dim
    w = Fraction(weight)
    rows = [[Fraction(x) for x in r] for r in rows]
    basis = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    c, omega = L.c, L.omega
    rb = compatible = isometric = derivation = bracket_preserving = True
    for x in basis:
        for y in basis:
            Rx, Ry = _apply(rows, x), _apply(rows, y)
            xy = _bracket(c, x, y)
            cross = [a + b for a, b in zip(_bracket(c, Rx, y), _bracket(c, x, Ry))]
            RxRy = _bracket(c, Rx, Ry)
            R_xy = _apply(rows, xy)
            # [R x, R y] = R([R x, y] + [x, R y] + w [x, y])
            rb &= RxRy == _apply(rows, [a + w * b for a, b in zip(cross, xy)])
            # omega(R x, y) + omega(x, R y) = 0
            compatible &= _form(omega, Rx, y) + _form(omega, x, Ry) == 0
            # omega(R x, R y) = omega(x, y)
            isometric &= _form(omega, Rx, Ry) == _form(omega, x, y)
            # R [x, y] = [R x, y] + [x, R y]
            derivation &= R_xy == cross
            # R [x, y] = [R x, R y]
            bracket_preserving &= R_xy == RxRy
    invertible = _rank(rows) == n
    zero = [Fraction(0)] * n
    return dict(
        weight=w,
        is_rb=rb,
        is_compatible=compatible,
        is_isometric=isometric,
        is_derivation=derivation,
        is_automorphism=bracket_preserving and invertible,
        is_square_zero=all(_apply(rows, _apply(rows, x)) == zero for x in basis),
        is_invertible=invertible,
    )


def _check(L, rows, weight):
    got = asdict(classify_map(L, OperatorMatrix(rows), weight))
    want = oracle(L, rows, weight)
    assert got == want, (rows, weight)
    return got


def _scaled_identity(n, q):
    return [[Fraction(q) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def _shipped_points(source, n, rng, per_component=2):
    """Operator rows at sampled points of each component in `source`."""
    table = GenericOperator.of_dimension(n).table
    out = []
    for component, cert in _load_builtin_candidates(source, table):
        cert = cert or find_certificate(component)
        for pt in sample_points(component, cert, per_component, rng):
            out.append([[pt[entry_name(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)])
    return out


def _fixed_operators(name, rng):
    """Scalar maps (-w id is Rota-Baxter of weight w), shipped points and
    their multiples (a weight-1 operator scaled by q has weight q)."""
    n = DIMS[name]
    ops = [_scaled_identity(n, q) for q in (0, 1, 2, -1, Fraction(1, 2))]
    for rows in HANDPICKED.get(name, ()):
        ops += [[[q * Fraction(x) for x in r] for r in rows] for q in (1, Fraction(-2, 3))]
    for source in SHIPPED.get(name, ()):
        for rows in _shipped_points(source, n, rng):
            ops.append(rows)
            ops.append([[-x / 2 for x in r] for r in rows])
    return ops


def test_classification_matches_oracle_on_fixed_operators(algebras):
    rng = random.Random(20261018)
    seen = []
    for name, L in algebras.items():
        for rows in _fixed_operators(name, rng):
            for w in WEIGHTS:
                seen.append(_check(L, rows, w))
    # every flag is exercised both ways, and Rota-Baxter both ways at w != 0
    for flag in (
        "is_rb", "is_compatible", "is_isometric", "is_derivation",
        "is_automorphism", "is_square_zero", "is_invertible",
    ):
        assert {f[flag] for f in seen} == {True, False}, flag
    assert {f["is_rb"] for f in seen if f["weight"] == 1} == {True, False}
    assert {f["is_rb"] for f in seen if f["weight"] == Fraction(-1, 2)} == {True, False}
    assert any(f["is_invertible"] and not f["is_automorphism"] for f in seen)


def test_weight_one_shipped_points_are_rota_baxter_of_weight_one(algebras):
    rng = random.Random(7)
    for name in ("L1", "L2"):
        L = algebras[name]
        for rows in _shipped_points(f"table2_{name}", L.dim, rng):
            got = _check(L, rows, 1)
            assert got["is_rb"] and got["is_isometric"]
            assert _check(L, [[-x / 2 for x in r] for r in rows], Fraction(-1, 2))["is_rb"]


SPARSE_ENTRY = st.one_of(
    st.just(Fraction(0)),
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def sparse_cases(draw):
    name = draw(st.sampled_from(sorted(DIMS)))
    n = DIMS[name]
    rows = draw(st.lists(st.lists(SPARSE_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    return name, rows, draw(st.sampled_from(WEIGHTS))


@settings(max_examples=150, deadline=None)
@given(sparse_cases())
def test_classification_matches_oracle_on_sparse_operators(algebras, case):
    name, rows, w = case
    _check(algebras[name], rows, w)


@pytest.mark.parametrize("name", sorted(DIMS))
def test_oracle_accepts_the_structure_as_given(algebras, name):
    # the oracle's own sanity: the zero map is a square-zero derivation
    # and a Rota-Baxter operator of every weight; the identity preserves
    # the bracket and is invertible
    L = algebras[name]
    for w in WEIGHTS:
        zero = oracle(L, _scaled_identity(L.dim, 0), w)
        assert zero["is_rb"] and zero["is_derivation"] and zero["is_square_zero"]
    one = oracle(L, _scaled_identity(L.dim, 1), 0)
    assert one["is_automorphism"] and one["is_invertible"]


# -- construction outputs against the oracle's own bracket, form and apply


def _expected_outputs(L, rows):
    """The deformed bracket [e_i, e_j]_R, omega(R e_i, R e_j) and the
    left-symmetric product [R e_i, e_j] on every ordered basis pair."""
    n = L.dim
    basis = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    images = [_apply(rows, e) for e in basis]
    left = [[_bracket(L.c, images[i], basis[j]) for j in range(n)] for i in range(n)]
    deformed = [
        [[a + b for a, b in zip(left[i][j], _bracket(L.c, basis[i], images[j]))] for j in range(n)]
        for i in range(n)
    ]
    form = [[_form(L.omega, images[i], images[j]) for j in range(n)] for i in range(n)]
    image_in_kernel = all(_form(L.omega, r, y) == 0 for r in images for y in basis)
    return deformed, form, left, image_in_kernel


def _as_lists(table):
    assert all(type(x) is Fraction for row in table for v in row for x in v)
    return [[list(v) for v in row] for row in table]


def test_construction_outputs_match_oracle(algebras):
    rng = random.Random(20261018)
    built = {name: set() for name in algebras}
    for name, L in algebras.items():
        for rows in _fixed_operators(name, rng):
            rows = [[Fraction(x) for x in r] for r in rows]
            R = OperatorMatrix(rows)
            flags = oracle(L, rows, 0)
            deformed, form, left, image_in_kernel = _expected_outputs(L, rows)
            nonzero = any(x for row in deformed for v in row for x in v) or any(map(any, form))
            if flags["is_rb"] and flags["is_compatible"]:
                out = omega_deform(L, R)
                assert _as_lists(out.c) == deformed, (name, rows)
                assert all(type(x) is Fraction for row in out.omega for x in row)
                assert [list(row) for row in out.omega] == form, (name, rows)
                if nonzero:
                    built[name].add("deform")
            else:
                with pytest.raises(PreconditionError):
                    omega_deform(L, R)
            if flags["is_rb"] and flags["is_compatible"] and flags["is_square_zero"]:
                assert _as_lists(homlie_from_rb(L, R).c) == deformed, (name, rows)
                if nonzero:
                    built[name].add("homlie")
            else:
                with pytest.raises(PreconditionError):
                    homlie_from_rb(L, R)
            if flags["is_rb"] and image_in_kernel:
                A = left_symmetric_from_rb(L, R)
                assert _as_lists(A.m) == left, (name, rows)
                if any(x for row in left for v in row for x in v):
                    built[name].add("lsa")
            else:
                with pytest.raises(PreconditionError):
                    left_symmetric_from_rb(L, R)
    # every construction gives a nonzero output on both non-integral
    # algebras and on the shipped points (table 3's components are
    # square-zero, with images outside ker(omega))
    everything = {"deform", "homlie", "lsa"}
    assert built == {
        "L1": everything, "L2": everything, "L1_2": {"deform", "homlie"},
        "L1_8": {"deform", "homlie"}, "sl2": set(),
        "Atilde_quarter": everything, "L1_half": everything, "plane": {"deform"},
    }


def _jacobi_residual(L, i, j, k):
    """The oracle's cyclic sum of [[x,y],z] - omega(x,y) z on e_i, e_j, e_k."""
    n = L.dim
    e = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    out = [Fraction(0)] * n
    for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
        inner = _bracket(L.c, _bracket(L.c, e[a], e[b]), e[d])
        w = _form(L.omega, e[a], e[b])
        out = [o + x - w * t for o, x, t in zip(out, inner, e[d])]
    return tuple(out)


def test_validation_residuals_on_fractional_constants(algebras):
    # L1 with c / 2 and omega / 3: the identity's two sides scale by 1/4 and
    # 1/3, so it fails on (x, y, z) by (1/4 - 1/3) z
    L1 = algebras["L1"]
    c = tuple(tuple(tuple(x / 2 for x in row) for row in layer) for layer in L1.c)
    omega = tuple(tuple(x / 3 for x in row) for row in L1.omega)
    bad = OmegaAlgebra(3, L1.basis_names, c, omega)
    report = validate_algebra(bad)
    assert report.failures == [("jacobi", (0, 1, 2), (0, 0, Fraction(-1, 12)))]
    assert report.failures[0][2] == _jacobi_residual(bad, 0, 1, 2)
    assert all(type(x) is Fraction for x in report.failures[0][2])
    # a form that is not skew: omega(x,y) = 1/3, omega(y,x) = 1/6
    lopsided = tuple(
        tuple(Fraction(1, 6) if (a, b) == (1, 0) else x for b, x in enumerate(row))
        for a, row in enumerate(omega)
    )
    report = validate_algebra(OmegaAlgebra(3, L1.basis_names, c, lopsided))
    half = Fraction(1, 2)
    assert report.failures == [("omega-skew", (0, 1), half), ("omega-skew", (1, 0), half)]
