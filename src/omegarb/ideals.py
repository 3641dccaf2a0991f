"""Computational ideal theory over Q[x1..xn].

Ideal algebra (membership, elimination, intersection, colon, saturation,
product, radical membership), Krull dimension via independent variable sets
on the leading-term ideal, certificate-checked primality, rational points on
certified components, and decompositions into irreducible components: a
split's leaves by construction, given candidates by ``verify_components``.

Elimination reads the basis under ``poly.elimination_order``, a grevlex
elimination order, so what it keeps is a reduced grevlex basis, and the
result carries it in its cache (``Ideal.from_basis``).
Intersection (t*I + (1-t)*J) and saturation (I + <1 - t*f>) share one
routine that eliminates an adjoined tag t from a finished basis.  A basis
grows only through ``GroebnerBasis.extend``.  Saturation and the
Rabinowitsch test of radical membership lift I's cached reduced grevlex
basis to the ring with t adjoined, as a basis under the elimination order
of t or under grevlex: both agree with grevlex on t-free monomials, so the
lift is already a reduced Groebner basis there, and extending it by
1 - t*f forms only the pairs with 1 - t*f.  The child I + <v> of a split
extends the cached basis itself.  Containment of ideals and the radical
cover of given candidates read the packed lead tables of the cached bases,
and pack no polynomial again; the cover has one radical test, Rabinowitsch
on the products that no normal form settles.

Primality is certified, never decided.  A certificate is a set S of
inverted variables, nothing more.  It checks when I : (prod S)^inf = I, so
the quotient embeds in its localization at S, and when the solve chain over
that localization consumes every generator: each step solves a variable v
occurring linearly with a one-term coefficient den over S, v = num/den, and
substitutes the value into the remaining generators.  The chain stays in
Q[x] and adjoins no inverse variables: a generator h of degree d in v
becomes den^d * h(num/den), which is a polynomial, and since den^d is a
unit of the localization at S it generates the same localized ideal as
h(num/den) (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 4.4).
The localization is then a localized polynomial ring, an integral domain
(also over C), and I is prime.  The saturation condition is checked as one
saturation by prod S, and is void for S empty.  The same chain, allowed to
invert variables on demand, proposes S for certificate search and
parameterizes components without a certificate for point sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Optional, Sequence

from .groebner import GroebnerBasis, buchberger, exact_divide
from .poly import (
    DimensionMismatchError,
    MonomialOrder,
    Polynomial,
    VariableTable,
    elimination_order,
    grevlex_order,
    mono_degree,
    mono_support,
    parse_polynomial,
)


class CertificateError(ValueError):
    """Raised for malformed primality certificates."""


class _EmptyVariety:
    """Marker returned by :func:`krull_dim` when 1 lies in the ideal."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "EMPTY_VARIETY"


EMPTY_VARIETY = _EmptyVariety()


@dataclass
class Ideal:
    """Finitely generated ideal with a per-order Groebner basis cache.

    Generators equal to zero are dropped; an empty generator tuple denotes
    the zero ideal.  Values are treated as immutable after construction; the
    cache holds one basis per order, computed on first use unless
    :meth:`from_basis` supplied it.
    """

    table: VariableTable
    generators: tuple[Polynomial, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_basis(cls, table: VariableTable, basis: GroebnerBasis) -> "Ideal":
        """The ideal that ``basis``, a reduced Groebner basis over ``table``,
        generates, with ``basis`` already cached under its order."""
        I = cls(table, basis.elements)
        I._cache[basis.order] = basis
        return I

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if g.table != self.table:
                raise ValueError("generator over a different variable table")
            if not g.is_zero():
                gens.append(g)
        self.generators = tuple(gens)

    def default_order(self) -> MonomialOrder:
        return grevlex_order(self.table)

    def groebner(self, order: MonomialOrder | None = None) -> GroebnerBasis:
        if order is None:
            order = self.default_order()
        gb = self._cache.get(order)
        if gb is None:
            gb = buchberger(self.generators, order)
            self._cache[order] = gb
        return gb

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def contains_one(self) -> bool:
        return self.groebner().contains_one()

    def __repr__(self) -> str:
        gens = ", ".join(g.to_text() for g in self.generators) or "0"
        return f"Ideal<{gens}>"


def make_ideal(table: VariableTable, gens: Iterable[Polynomial]) -> Ideal:
    return Ideal(table, tuple(gens))


def parse_ideal(text: str, table: VariableTable) -> Ideal:
    """One generator per line; blank lines and '#' comments are skipped."""
    gens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            gens.append(parse_polynomial(line, table))
    return make_ideal(table, gens)


def ideal_to_text(I: Ideal, order: MonomialOrder | None = None) -> str:
    return "\n".join(g.to_text(order) for g in I.generators)


# ---------------------------------------------------------------------------
# membership and equality


def _same_table(a, b) -> None:
    """Raise DimensionMismatchError unless ``a`` and ``b``, polynomials or
    ideals, share one variable table."""
    if a.table != b.table:
        raise DimensionMismatchError("arguments over different variable tables")


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    """True iff the normal form of f against a Groebner basis of I is zero."""
    _same_table(f, I)
    if f.is_zero():
        return True
    return I.groebner().contains(f)


def ideal_contains(I: Ideal, J: Ideal) -> bool:
    """J subseteq I: every element of J's reduced basis has normal form zero
    against I's, both read from their packed lead tables."""
    _same_table(I, J)
    return I.groebner().contains_ideal(J.groebner())


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via coincidence of reduced Groebner bases under a common
    order (reduced bases are canonical)."""
    _same_table(I, J)
    order = I.default_order()
    return I.groebner(order).elements == J.groebner(order).elements


# ---------------------------------------------------------------------------
# elimination, intersection, colon, saturation, product


def elimination(I: Ideal, keep: Iterable[str]) -> Ideal:
    """Generators of I intersected with the subring on the ``keep``
    variables: the elements free of the other variables in I's basis under
    their elimination order, which are the intersection's reduced grevlex
    basis in table order."""
    keep_set = set(keep)
    unknown = keep_set - set(I.table.names)
    if unknown:
        raise KeyError(f"unknown variables {sorted(unknown)}")
    eliminated = [n for n in I.table.names if n not in keep_set]
    if not eliminated:
        return I
    # keeping nothing leaves the constants of any basis
    order = elimination_order(I.table, eliminated) if keep_set else I.default_order()
    keep_idx = {I.table.index(n) for n in keep_set}
    kept = tuple(
        g
        for g in I.groebner(order).elements
        if all(mono_support(m) <= keep_idx for m in g.terms)
    )
    return Ideal.from_basis(I.table, GroebnerBasis(I.default_order(), kept))


def _with_fresh_variable(I: Ideal, stem: str) -> tuple[VariableTable, str]:
    name = I.table.fresh_name(stem)
    return I.table.extend(name), name


def _lift_with_tag(I: Ideal, eliminate: bool) -> tuple[GroebnerBasis, Polynomial]:
    """A fresh tag t adjoined last to I's table, and I's cached reduced
    grevlex basis lifted there as a basis under the elimination order of t
    (``eliminate``) or under grevlex.  Both orders agree with grevlex on
    t-free monomials, and the S-polynomials and reductions of t-free
    polynomials stay t-free, so the lift is still a reduced Groebner basis,
    and ``extend`` forms only the pairs with what it adds."""
    ext, tname = _with_fresh_variable(I, "t_")
    order = elimination_order(ext, [tname]) if eliminate else grevlex_order(ext)
    lifted = tuple(g.lift(ext) for g in I.groebner().elements)
    return GroebnerBasis(order, lifted), Polynomial.variable(ext, tname)


def _eliminate_tag(tagged: Ideal, table: VariableTable) -> Ideal:
    """``tagged``, an ideal over ``table`` with a tag adjoined last and its
    basis under the elimination order of the tag cached, intersected with
    ``table``'s ring."""
    eliminated = elimination(tagged, table.names)
    # t is the last variable, so restricting keeps the basis reduced grevlex
    restricted = tuple(g.restrict(table) for g in eliminated.generators)
    return Ideal.from_basis(table, GroebnerBasis(grevlex_order(table), restricted))


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via the one-tag trick: eliminate t from t*I + (1-t)*J."""
    _same_table(I, J)
    if I.is_zero_ideal() or J.is_zero_ideal():
        return make_ideal(I.table, ())
    ext, tname = _with_fresh_variable(I, "t_")
    t = Polynomial.variable(ext, tname)
    gens = [t * g.lift(ext) for g in I.generators] + [(1 - t) * g.lift(ext) for g in J.generators]
    gb = buchberger(gens, elimination_order(ext, [tname]))
    return _eliminate_tag(Ideal.from_basis(ext, gb), I.table)


def colon(I: Ideal, f: Polynomial) -> Ideal:
    """I : f, computed as (1/f) * (I cap <f>); every generator of the
    intersection is exactly divisible by f."""
    _same_table(I, f)
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    if f.is_constant():
        return I
    meet = intersect(I, make_ideal(I.table, (f,)))
    order = I.default_order()
    gens = [exact_divide(g, f, order) for g in meet.generators]
    return make_ideal(I.table, gens)


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity = (I + <1 - t*f>) cap Q[x], by one elimination of a
    fresh variable t (Rabinowitsch): I's cached basis, lifted under the
    elimination order of t, extended by 1 - t*f."""
    _same_table(I, f)
    if f.is_zero():
        raise ValueError("saturation by the zero polynomial")
    if f.is_constant():
        return I
    lifted, t = _lift_with_tag(I, True)
    gb = lifted.extend([1 - t * f.lift(t.table)])
    return _eliminate_tag(Ideal.from_basis(t.table, gb), I.table)


def product(I: Ideal, J: Ideal) -> Ideal:
    """Ideal generated by pairwise products of the generators."""
    _same_table(I, J)
    return make_ideal(I.table, dict.fromkeys(g * h for g in I.generators for h in J.generators))


def _in_radical_by_square(f: Polynomial, I: Ideal) -> bool:
    """f or f^2 lies in I, so f lies in sqrt(I): one or two normal forms
    against the cached basis of I."""
    return ideal_membership(f, I) or ideal_membership(f * f, I)


def _rabinowitsch(f: Polynomial, I: Ideal) -> bool:
    """f in sqrt(I), via 1 in I + <1 - t*f> in an extended ring: I's cached
    basis, lifted under grevlex, extended by 1 - t*f."""
    lifted, t = _lift_with_tag(I, False)
    return lifted.extend([1 - t * f.lift(t.table)]).contains_one()


def radical_membership(f: Polynomial, I: Ideal) -> bool:
    """f in sqrt(I).  f^k in I for some k puts f in sqrt(I) (Cox-Little-
    O'Shea, Ideals, Varieties, and Algorithms, 4.2), so f or f^2 in I, a
    normal form each against the cached basis, settles most cases before
    the Rabinowitsch test 1 in I + <1 - t*f> decides the rest."""
    if f.is_zero():
        raise ValueError("radical membership of the zero polynomial")
    return _in_radical_by_square(f, I) or _rabinowitsch(f, I)


def radical_contains(I: Ideal, J: Ideal) -> bool:
    """Every generator of J lies in sqrt(I)."""
    return all(radical_membership(g, I) for g in J.generators)


# ---------------------------------------------------------------------------
# Krull dimension


def _min_hitting_set(supports: list[frozenset[int]]) -> int:
    """Smallest number of variables meeting every support set."""
    # keep only inclusion-minimal supports
    supports = sorted(set(supports), key=len)
    minimal: list[frozenset[int]] = []
    for s in supports:
        if not any(t <= s for t in minimal):
            minimal.append(s)
    best = len(set().union(*minimal)) if minimal else 0
    return _hitting_search(minimal, 0, best)


def _hitting_search(remaining: list[frozenset[int]], chosen: int, best: int) -> int:
    """min(best, chosen + the smallest number of variables meeting every
    set of ``remaining``), by branching on the variables of a smallest set."""
    if not remaining:
        return chosen
    if chosen + 1 >= best:
        return best
    pivot = min(remaining, key=len)
    for v in sorted(pivot):
        rest = [s for s in remaining if v not in s]
        best = min(best, _hitting_search(rest, chosen + 1, best))
    return best


def krull_dim(I: Ideal):
    """Dimension of the affine variety of I: the largest cardinality of a
    variable subset S such that no leading monomial of a Groebner basis has
    support inside S.  Returns :data:`EMPTY_VARIETY` when 1 in I."""
    gb = I.groebner()
    if gb.contains_one():
        return EMPTY_VARIETY
    n = len(I.table)
    supports = [frozenset(mono_support(lm)) for lm in gb.leading_monomials()]
    return n - _min_hitting_set(supports)


# ---------------------------------------------------------------------------
# primality certificates, the localized solve chain, and rational points


@dataclass(frozen=True)
class PrimalityCertificate:
    """A set S of inverted variables with p : (prod S)^inf = p, such that
    the solve chain over the localization at S consumes every generator of
    p (see the module docstring)."""

    inverted: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "inverted", frozenset(self.inverted))


def _split_by_power(g: Polynomial, vidx: int) -> list[Polynomial]:
    """[g_0, ..., g_d] with g = sum_k g_k * v^k, where v is the variable at
    ``vidx``, d = deg_v(g), and no g_k involves v.  The parts take g's own
    coefficients and monomials, so they skip the constructor's checks."""
    parts: list[dict] = []
    for m, c in g.terms.items():
        k = m[vidx]
        parts.extend({} for _ in range(k + 1 - len(parts)))
        parts[k][m[:vidx] + (0,) + m[vidx + 1 :]] = c
    return [Polynomial._of(g.table, terms) for terms in parts]


@dataclass
class _Chain:
    """A consumed solve chain.  ``inverted`` lists S in the order of
    inversion; ``steps`` lists (v, num, den) in solve order, v = num/den,
    where den is one term c*m over S and num involves only free, inverted
    and later-solved variables."""

    inverted: list[str]
    steps: list[tuple[str, Polynomial, Polynomial]]


def _solve_chain(p: Ideal, inverted: Sequence[str], grow: bool) -> Optional[_Chain]:
    """Solve the generators of p one variable at a time over the
    localization at the ``inverted`` variables S, staying in p's ring.

    A step takes the first unsolved variable v (in table order) that
    occurs linearly in a remaining generator g = den*v + rest whose
    coefficient den is one term c*m over S, records v = num/den with
    num = -rest, and replaces each other generator h of degree d in v by
    den^d * h(num/den) = sum_k h_k * num^k * den^(d-k).  That is h(num/den)
    times den^d, a unit of the localization, so the localized ideal is
    unchanged.  With ``grow`` the term m may also contain unsolved
    variables, which then join S.  Returns the chain once every generator
    is consumed; None when no step applies."""
    table = p.table
    gens = list(p.groebner().elements)
    S = list(inverted)
    steps: list[tuple[str, Polynomial, Polynomial]] = []
    todo = [n for n in table.names if n not in S]

    def linear_split(name: str, g: Polynomial) -> Optional[tuple[list[Polynomial], list[str]]]:
        """g's parts by power of ``name`` and the variables to invert
        before solving ``name`` from g; None when g does not give ``name``
        a usable coefficient."""
        vidx = table.index(name)
        # one pass over g's terms: the degree in ``name`` must be 1, with a
        # one-term coefficient; its monomial is the term's without ``name``
        linear = None
        for m in g.terms:
            k = m[vidx]
            if k:
                if k > 1 or linear is not None:
                    return None
                linear = m
        if linear is None:
            return None
        names = table.names
        new = [names[i] for i, e in enumerate(linear) if e and i != vidx and names[i] not in S]
        if new and not grow:
            return None
        return _split_by_power(g, vidx), new

    def cleared(h: Polynomial, vidx: int, num: Polynomial, den: Polynomial) -> Polynomial:
        """den^d * h(num/den), by Horner's rule on the parts of h."""
        parts = _split_by_power(h, vidx)
        ((mono, c),) = den.terms.items()
        out = parts[-1]
        for j, part in enumerate(reversed(parts[:-1]), 1):
            out = out * num + part.mul_term(tuple(j * e for e in mono), c**j)
        return out

    while gens:
        pick = next(
            (
                (name, k, split)
                for name in todo
                for k, g in enumerate(gens)
                if (split := linear_split(name, g)) is not None
            ),
            None,
        )
        if pick is None:
            return None
        name, k, ((rest, den), new) = pick
        S += new
        todo = [n for n in todo if n != name and n not in new]
        del gens[k]
        num, vidx = -rest, table.index(name)
        subs = (cleared(h, vidx, num, den) if h.degree_in(name) else h for h in gens)
        gens = [h for h in subs if not h.is_zero()]
        steps.append((name, num, den))
    return _Chain(S, steps)


def _certificate_chain(p: Ideal, cert: PrimalityCertificate) -> Optional[_Chain]:
    unknown = cert.inverted - set(p.table.names)
    if unknown:
        raise CertificateError(f"unknown certificate variables {sorted(unknown)}")
    return _solve_chain(p, sorted(cert.inverted, key=p.table.index), False)


def check_primality(p: Ideal, cert: PrimalityCertificate) -> bool:
    """Validate a primality certificate.  False means the certificate does
    not apply (not that the ideal is composite)."""
    if not isinstance(cert, PrimalityCertificate):
        raise CertificateError(f"not a certificate: {cert!r}")
    if p.contains_one() or _certificate_chain(p, cert) is None:
        return False
    if not cert.inverted:
        return True
    # p : h = p exactly when p : h^inf = p, and one elimination is cheaper
    # than the intersection behind a colon
    h = Polynomial(p.table, {tuple(int(n in cert.inverted) for n in p.table.names): Fraction(1)})
    return ideal_equal(saturate(p, h), p)


def find_certificate(p: Ideal) -> Optional[PrimalityCertificate]:
    """Best-effort certificate discovery: the set S that the greedy chain
    inverts, kept when the certificate checks."""
    if p.contains_one():
        return None
    chain = _solve_chain(p, (), True)
    if chain is None:
        return None
    cert = PrimalityCertificate(inverted=frozenset(chain.inverted))
    return cert if check_primality(p, cert) else None


def sample_points(
    p: Ideal,
    cert: Optional[PrimalityCertificate],
    count: int,
    rng: random.Random,
) -> list[dict[str, Fraction]]:
    """Random rational points of V(p), read off a solve chain: the
    certificate's, or for ``cert=None`` a greedy chain that inverts
    variables on demand (it yields points, not a primality proof).  The free
    variables are drawn in table order, then each inverted variable
    (nonzero); the chain gives the rest.  Each step's denominator is one
    term over the inverted variables, so it is a unit at every draw and
    every draw is a point: ``count`` draws give ``count`` points.  Every
    point is still checked against the generators, and one that fails
    raises :class:`CertificateError`."""
    if cert is None:
        chain = _solve_chain(p, (), True)
    else:
        chain = _certificate_chain(p, cert)
    if chain is None:
        raise CertificateError("no solve chain consumes the generators")
    names = p.table.names
    solved = {v for v, _, _ in chain.steps}
    free = [n for n in names if n not in solved and n not in chain.inverted]

    def random_value() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    points: list[dict[str, Fraction]] = []
    for _ in range(count):
        point = {n: random_value() for n in free}
        for n in chain.inverted:
            value = random_value()
            while value == 0:
                value = random_value()
            point[n] = value
        for name, num, den in reversed(chain.steps):
            # den is one term c*m over S: evaluate it directly
            ((mono, c),) = den.terms.items()
            scale = math.prod((point[names[i]] ** e for i, e in enumerate(mono) if e), start=c)
            point[name] = num.evaluate(point) / scale
        point = {n: point[n] for n in names}  # in table order
        bad = next((g for g in p.generators if g.evaluate(point) != 0), None)
        if bad is not None:
            raise CertificateError(f"the solve chain gave a point off the generator {bad}")
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# component verification


@dataclass
class CandidateReport:
    """One candidate component: its ideal and certificate as given, and what was found."""

    ideal: Ideal
    certificate: Optional[PrimalityCertificate]
    contains_ideal: bool
    certificate_status: str  # "passed" | "failed" | "unverified"
    dim: object  # int or EMPTY_VARIETY

    @property
    def ok(self) -> bool:
        return self.contains_ideal and self.certificate_status == "passed"


@dataclass
class ComponentReport:
    candidates: list[CandidateReport]
    product_in_radical: bool
    irredundant: bool

    @property
    def confirmed(self) -> bool:
        return (
            all(c.ok for c in self.candidates)
            and self.product_in_radical
            and self.irredundant
        )

    @property
    def dims(self) -> tuple:
        return tuple(c.dim for c in self.candidates)


_COVER_CAP = 60


def verify_components(
    I: Ideal,
    candidates: Sequence[tuple[Ideal, Optional[PrimalityCertificate]]],
) -> ComponentReport:
    """Certify that V(I) is the union of the prime varieties of candidates
    given from outside; a split's leaves need no check (``split_components``).

    Checks: (i) I subseteq p_i, so V(p_i) subseteq V(I); (ii) the product of
    the candidates lies in sqrt(I), so V(I) is covered.  The factors of the
    product are the candidates' reduced bases, and ``product_cover``
    multiplies them in packed form against I's lead table.  A product with a
    factor in I lies in I, so only the basis elements outside I enter the
    products, and a candidate with none left lies in I and covers V(I)
    alone.  The products are built one candidate at a time, and a partial
    product that lies in I, or whose square does, is dropped with all its
    extensions.  Past 60 products in one step the intersection of the
    candidates is the one factor instead, since sqrt(prod p_i) =
    sqrt(cap p_i).  Either way the survivors get the Rabinowitsch test,
    the cover's one radical test; (iii) each
    primality certificate validates; (iv) no candidate contains another.
    Containment (i) and (iv) compare the packed lead tables of two reduced
    bases.  ``confirmed`` requires all four.  The report holds one
    :class:`CandidateReport` per candidate, in input order, carrying the
    very ideal and certificate it was given.
    """
    if not candidates:
        raise ValueError("no candidate components supplied")
    reports = []
    for ideal_p, cert in candidates:
        contains = ideal_contains(ideal_p, I)
        if cert is None:
            status = "unverified"
        else:
            status = "passed" if check_primality(ideal_p, cert) else "failed"
        reports.append(CandidateReport(ideal_p, cert, contains, status, krull_dim(ideal_p)))
    cover = I.groebner().product_cover
    survivors = cover([p.groebner() for p, _ in candidates], _COVER_CAP)
    if survivors is None:
        # sqrt(product) = sqrt(intersection): the far smaller intersection
        # basis is the one factor, which the cap does not bound
        meet = candidates[0][0]
        for ideal_p, _ in candidates[1:]:
            meet = intersect(meet, ideal_p)
        survivors = cover([meet.groebner()], _COVER_CAP)
    in_radical = all(_rabinowitsch(p, I) for p in survivors)
    irredundant = not any(
        ideal_contains(pj, pi)  # p_i subseteq p_j
        for i, (pi, _) in enumerate(candidates)
        for j, (pj, _) in enumerate(candidates)
        if i != j
    )
    return ComponentReport(reports, in_radical, irredundant)


# ---------------------------------------------------------------------------
# best-effort splitting


@dataclass
class SplitResult:
    ideals: list[Ideal]
    complete: bool


def _split_factor(I: Ideal) -> Optional[Polynomial]:
    """A variable occurring as a monomial factor of some reduced-basis
    generator; None when no generator has monomial content.  The generators
    are tried by term count, then total degree, then text, and only those of
    equal count and degree are printed."""

    def size(g: Polynomial) -> tuple[int, int]:
        return g.num_terms(), g.total_degree()

    factored = [g for g in I.groebner().elements if mono_degree(g.monomial_content())]
    for _, tied in groupby(sorted(factored, key=size), key=size):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=Polynomial.to_text)
        for g in tied:
            vidx = min(mono_support(g.monomial_content()))
            v = Polynomial.variable(I.table, I.table.names[vidx])
            if not ideal_membership(v, I):
                return v
    return None


_SPLIT_DEPTH = 24


def _split_leaves(J: Ideal, depth: int, leaves: list[Ideal]) -> bool:
    """Append the leaves of the split of V(J), a branch ``depth`` splits
    deep, to ``leaves``: the branch V(J + <v>) first, then V(J : v^inf).
    False when a branch was kept whole at ``_SPLIT_DEPTH``."""
    if J.contains_one():
        return True
    v = _split_factor(J)
    if v is None or depth >= _SPLIT_DEPTH:
        leaves.append(Ideal.from_basis(J.table, J.groebner()))
        return v is None
    # J's reduced basis stays a reduced Groebner basis prefix of J + <v>
    complete = _split_leaves(Ideal.from_basis(J.table, J.groebner().extend((v,))), depth + 1, leaves)
    return _split_leaves(saturate(J, v), depth + 1, leaves) and complete


def split_heuristic(I: Ideal) -> SplitResult:
    """Cover V(I) by splitting V(I) = V(I + <v>) cup V(I : v^inf) on
    variables that factor out of a generator.  A branch deeper than
    ``_SPLIT_DEPTH`` splits is kept whole, as V(J), and the result is then
    marked incomplete.  Every leaf contains I and each split covers its
    parent, and a leaf that contains or equals another is dropped, so the
    kept leaves cover V(I) and none lies inside another."""
    leaves: list[Ideal] = []
    complete = _split_leaves(I, 0, leaves)
    kept: list[Ideal] = []
    for J in leaves:  # the first of equal leaves is kept, in leaf order
        if not any(ideal_contains(J, K) for K in kept):
            kept = [K for K in kept if not ideal_contains(K, J)] + [J]
    return SplitResult(kept, complete)


def split_components(split: SplitResult) -> Optional[ComponentReport]:
    """The leaves of ``split`` as its components, None without any: they are
    the components by construction, so only each leaf's dimension and greedy
    certificate, checked once by :func:`find_certificate`, are computed."""
    certs = [find_certificate(J) for J in split.ideals]
    reports = [
        CandidateReport(J, c, True, "passed" if c else "unverified", krull_dim(J))
        for J, c in zip(split.ideals, certs)
    ]
    return ComponentReport(reports, True, True) if reports else None
