"""Buchberger's algorithm and reduced Groebner bases, fraction-free.

Inside the kernel every basis element is a primitive integer coefficient
dict (content 1) with a positive leading coefficient.  Its lead data is
computed once, when it enters a basis, and read everywhere after that.  A
lead table is a list of ``(leading monomial, divisibility mask, leading
coefficient, terms)`` entries in basis order: ``buchberger`` keeps one beside
its basis, forms S-polynomials from it, reduces against it and appends to
it, and keeps its active entries (the reducers) minimal and auto-reduced at
every step, so at the end it only sorts them and ``interreduce`` makes them
monic; ``reduce`` and ``is_groebner_basis`` build one per call from the
caller's rational polynomials by clearing denominators and content.  A
:class:`GroebnerBasis` keeps one for its membership tests (``contains``,
behind ``ideals.ideal_membership``): ``buchberger`` hands over its sorted
reducers, and a basis built elsewhere makes one on its first test.
Converting the monic basis back to integers on every test cost more than
the rest of the test.

The mask of a monomial has bit i set when variable i occurs.  A divisor's
mask is a subset of its multiple's, so the divisor scan and the pair
criteria call ``mono_divides`` only when ``lmask & ~mask(m)`` is zero.

``_normal_form`` is the one normal-form routine, and it pseudo-reduces over
the integers.  To cancel a term c*x^m against an entry with leading
coefficient lc, it scales the pending work and the remainder by lc/g, with
g = gcd(c, lc), subtracts (c/g)*x^shift*entry, and then strips the content
of the work and the remainder.  Steps whose divisor has leading
coefficient 1, the common case, scale nothing and strip nothing.  It
returns the integer remainder with the multiplier M it applied (the
product of the scales over the stripped contents), so that M*f minus the
remainder lies in the ideal.  ``reduce`` divides by M, and by the
denominators it cleared, and so returns the exact rational remainder;
``buchberger`` uses the remainder only up to a scalar, and
``GroebnerBasis.contains`` and ``is_groebner_basis`` only test it for zero.
The one division by a leading coefficient happens in ``interreduce``, which
makes each element monic: a :class:`GroebnerBasis` holds monic
polynomials, whose coefficients stay ints when the leading coefficient of
the primitive element is 1.  A polynomial with integer coefficients hands
its own terms dict to the kernel, which copies before it writes: no
routine here mutates a dict it did not build.

The normal form keeps its pending monomials in a heap keyed by
``MonomialOrder.desc_key``, so each monomial's key is computed once, when it
first appears, and the largest pending monomial pops first.  Terms are
reduced in strictly descending order, and when several leading monomials
divide the current term the first entry in list order wins; the remainder
is therefore the same, term for term and in the same dict order, as a scan
of the whole pending set on every step would give.

Every element h enters as a nonzero normal form against the reducers,
from a generator past ``groebner_prefix`` or from a critical pair.
Critical pairs are pruned when h is installed, by the Gebauer-Moeller
criteria (J. Symb. Comp. 6, 1988) in the form of Becker and Weispfenning's
UPDATE (Groebner Bases, 1993, p. 230):
- of the new pairs (g, h), one is kept for each lcm that is not a proper
  multiple of another new pair's lcm, and a kept pair whose leading
  monomials are coprime is dropped (Buchberger's product criterion);
- an old pair (g1, g2) is dropped when LM(h) divides its lcm t and neither
  lcm(g1, h) nor lcm(g2, h) equals t (the chain criterion);
- an element whose leading monomial LM(h) divides leaves the reducers;
  its pairs stay pending.
Each remaining reducer with a term that LM(h) divides is then rewritten as
its normal form against the other reducers (Becker and Weispfenning,
Ch. 5), so the reducers stay a minimal auto-reduced set.  The rewrite keeps
the reducer's leading monomial, so its pending pairs stay valid.
Surviving pairs wait in a heap keyed by ``order.key`` of their lcm alone,
and the generators wait beside them, keyed by their leading monomial, so
the smallest lcm or leading monomial in the order goes first (Buchberger's
normal strategy, 1985) under every order, and a generator before a pair on
a tie.  Under grevlex that is degree by degree, and under an elimination
order block degree first.  A generator so waits until every pair with a
smaller lcm has entered, and is reduced by what they added.  Under lex a
degree-first rule grew remainders of degree 29 on an input with a
6-element basis (``tests/test_groebner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain, compress
from math import gcd, lcm
from operator import add, itemgetter
from typing import NamedTuple

from .poly import (
    DimensionMismatchError,
    Mono,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
)


class _Lead(NamedTuple):
    lm: Mono
    mask: int
    lc: int
    terms: dict  # Mono -> int


@cache
def _bits(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def _mask(m: Mono) -> int:
    """Bit i set iff variable i occurs in m."""
    return sum(compress(_bits(len(m)), m))


def _lead(terms: dict, order: MonomialOrder) -> _Lead:
    """Lead entry of the primitive multiple, with a positive leading
    coefficient, of a nonzero integer coefficient dict."""
    lm = max(terms, key=order.key)
    d = gcd(*terms.values())
    if terms[lm] < 0:
        d = -d
    if d != 1:
        terms = {m: c // d for m, c in terms.items()}
    return _Lead(lm, _mask(lm), terms[lm], terms)


def _integer_terms(terms) -> tuple[dict, int]:
    """(L * terms with integer coefficients, L) for L the least common
    multiple of the denominators of a polynomial's terms.  All-int terms
    (L = 1) come back as the same dict, so the caller must not mutate it."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return terms, 1
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _integer_table(polys, order: MonomialOrder) -> list[dict]:
    """The integer terms of the nonzero polynomials, each over the order's
    variables."""
    out = []
    for p in polys:
        if p:
            if len(p.table) != len(order.priority):
                raise DimensionMismatchError(
                    f"order over {len(order.priority)} variables, table of {len(p.table)}"
                )
            out.append(_integer_terms(p.terms)[0])
    return out


def _lead_table(polys, order: MonomialOrder) -> list[_Lead]:
    return [_lead(terms, order) for terms in _integer_table(polys, order)]


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no monomial of any element
    divisible by another element's leading monomial, sorted ascending by
    leading monomial."""

    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    # the integer lead table of ``elements``; ``buchberger`` hands over its
    # reducers, otherwise the first ``contains`` builds it
    _leads: list = field(default=None, repr=False, compare=False)

    def contains(self, f: Polynomial) -> bool:
        """f lies in the ideal: its normal form is zero.  The lead table is
        built on the first call, unless ``buchberger`` supplied it, and
        kept."""
        if self._leads is None:
            object.__setattr__(self, "_leads", _lead_table(self.elements, self.order))
        return not _normal_form(_integer_terms(f.terms)[0], self._leads, self.order)[0]

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.elements)

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def leading_monomials(self) -> list[tuple[int, ...]]:
        return [g.leading_monomial(self.order) for g in self.elements]


def _normal_form(terms: dict, leads: list[_Lead], order: MonomialOrder) -> tuple[dict, int | Fraction]:
    """``(r, M)`` for the full normal form of ``terms`` (a monomial -> integer
    mapping; zero coefficients are skipped) modulo the lead table, by
    pseudo-reduction: r has integer coefficients, M is a positive rational,
    M*terms - r lies in the ideal of the table, no monomial of r is
    divisible by a leading monomial, and r's terms are inserted in
    descending monomial order."""
    desc_key = order.desc_key
    work = dict(terms)
    heap = [(desc_key(m), m) for m in work]
    heapify(heap)
    remainder: dict = {}
    mult = 1
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        mmask = _mask(m)
        for lm, lmask, lc, g in leads:
            if not (lmask & ~mmask) and mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        scale = 1
        if lc != 1:
            d = gcd(c, lc)
            scale = lc // d
            c //= d
            if scale != 1:
                for t in work:
                    work[t] *= scale
                for t in remainder:
                    remainder[t] *= scale
        shift = mono_div(m, lm)
        # every new monomial is below m, so none is popped yet
        for gm, gc in g.items():
            t = tuple(map(add, gm, shift))
            if t == m:
                continue
            old = work.get(t)
            if old is None:
                work[t] = -c * gc
                heappush(heap, (desc_key(t), t))
            else:
                work[t] = old - c * gc
        if scale != 1:
            mult *= scale
            d = gcd(*work.values(), *remainder.values())
            if d > 1:
                mult = Fraction(mult, d)
                for t in work:
                    work[t] //= d
                for t in remainder:
                    remainder[t] //= d
    return remainder, mult


def reduce(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full normal form of ``f`` modulo ``basis``.

    The returned remainder r satisfies f - r in <basis> and no monomial of r
    is divisible by any leading monomial of the basis.  Empty basis returns f.
    """
    leads = _lead_table(basis, order)
    if not leads:
        return f
    terms, den = _integer_terms(f.terms)
    r, mult = _normal_form(terms, leads, order)
    scale = den * mult
    if scale == 1:
        return Polynomial(f.table, r)
    return Polynomial(f.table, {m: Fraction(c, scale) for m, c in r.items()})


def _s_terms(a: _Lead, b: _Lead) -> dict:
    """Terms of spol(a, b), the cancelled lcm term kept with coefficient 0."""
    t = mono_lcm(a.lm, b.lm)
    sa, sb = mono_div(t, a.lm), mono_div(t, b.lm)
    out = {tuple(map(add, m, sa)): c * b.lc for m, c in a.terms.items()}
    for m, c in b.terms.items():
        u = tuple(map(add, m, sb))
        old = out.get(u)
        out[u] = -c * a.lc if old is None else old - c * a.lc
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """spol(f,g) = (LC(g)*t/LM(f))*f - (LC(f)*t/LM(g))*g, t = lcm of the
    leading monomials; the leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s-polynomial of the zero polynomial is undefined")

    # _s_terms only multiplies, so it takes the rational lead data as it is
    def lead(p: Polynomial) -> _Lead:
        lm = p.leading_monomial(order)
        return _Lead(lm, _mask(lm), p.terms[lm], p.terms)

    return Polynomial(f.table, _s_terms(lead(f), lead(g)))


def interreduce(gens: list[_Lead], table) -> list[Polynomial]:
    """The reduced basis, over ``table``, of a minimal auto-reduced Groebner
    basis given as lead entries sorted ascending by leading monomial: each
    element divided by its leading coefficient.  An element with leading
    coefficient 1 stays in ints."""
    return [
        Polynomial(table, e.terms if e.lc == 1 else {m: Fraction(c, e.lc) for m, c in e.terms.items()})
        for e in gens
    ]


def _install(k: int, basis: list[_Lead], active: list[int], pairs: list, key) -> list[int]:
    """Install ``basis[k]`` by the Gebauer-Moeller criteria: drop the old
    pairs it makes redundant from the heap ``pairs``, push the new pairs
    that survive, and return the new list of active (reducer) indices."""
    h = basis[k]
    hlm, hmask = h.lm, h.mask
    # new pairs (i, k) as (lcm, lcm mask, coprime, i)
    fresh = [
        (mono_lcm(basis[i].lm, hlm), basis[i].mask | hmask, not (basis[i].mask & hmask), i)
        for i in active
    ]
    kept = []
    while fresh:
        p = fresh.pop()
        t, tmask, coprime = p[0], p[1], p[2]
        if coprime or not any(
            not (q[1] & ~tmask) and mono_divides(q[0], t) for q in chain(fresh, kept)
        ):
            kept.append(p)
    # old pairs (i, j) as (key, i, j, lcm, lcm mask)
    survivors = [
        p
        for p in pairs
        if (hmask & ~p[4])
        or not mono_divides(hlm, p[3])
        or mono_lcm(basis[p[1]].lm, hlm) == p[3]
        or mono_lcm(basis[p[2]].lm, hlm) == p[3]
    ]
    if len(survivors) < len(pairs):
        pairs[:] = survivors
        heapify(pairs)
    for t, tmask, coprime, i in kept:
        if not coprime:
            heappush(pairs, (key(t), i, k, t, tmask))
    active = [
        i
        for i in active
        if (hmask & ~basis[i].mask) or not mono_divides(hlm, basis[i].lm)
    ]
    active.append(k)
    return active


def buchberger(gens, order: MonomialOrder, *, groebner_prefix: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The result is canonical: independent of generator order and duplicates.
    An all-zero (or empty) generator list yields the empty basis for the zero
    ideal.  ``groebner_prefix=k`` asserts that the first k generators are
    already a reduced Groebner basis under ``order``, so their mutual pairs
    are skipped (used for incremental extensions of a cached basis).
    The later generators wait in the pair queue, keyed by their leading
    monomial as a pair is by its lcm, and a generator goes before a pair
    on a tie.  Each generator and each S-polynomial enters as its normal
    form against the reducers, which stay minimal and auto-reduced.
    """
    gens = list(gens)
    if not any(gens):
        return GroebnerBasis(order, ())
    table = gens[0].table
    key = order.key
    # every element that ever entered, in entry order; pairs index into it
    basis = _lead_table(gens[:groebner_prefix], order)
    active = list(range(len(basis)))
    reducers = basis[:]
    pairs: list[tuple] = []
    # the later generators as (key of the leading monomial, terms), largest
    # first, so the smallest pops off the end
    inputs = sorted(
        ((max(map(key, t)), t) for t in _integer_table(gens[groebner_prefix:], order)),
        key=itemgetter(0),
        reverse=True,
    )

    def entering():
        while inputs or pairs:
            if inputs and (not pairs or inputs[-1][0] <= pairs[0][0]):
                yield inputs.pop()[1]
            else:
                i, j = heappop(pairs)[1:3]
                yield _s_terms(basis[i], basis[j])

    for terms in entering():
        r = _normal_form(terms, reducers, order)[0]
        if not r:
            continue
        e = _lead(r, order)
        if not e.mask:
            return GroebnerBasis(order, (Polynomial.constant(table, 1),))
        basis.append(e)
        active = _install(len(basis) - 1, basis, active, pairs, key)
        for i in active[:-1]:
            if any(mono_divides(e.lm, m) for m in basis[i].terms):
                rest = [basis[j] for j in active if j != i]
                basis[i] = _lead(_normal_form(basis[i].terms, rest, order)[0], order)
        reducers = [basis[i] for i in active]
    reducers.sort(key=lambda e: key(e.lm))
    return GroebnerBasis(order, tuple(interreduce(reducers, table)), reducers)


def is_groebner_basis(polys, order: MonomialOrder) -> bool:
    """Buchberger criterion, checked directly: every s-polynomial of two
    elements reduces to zero against the set."""
    G = _lead_table(polys, order)
    return not any(
        _normal_form(_s_terms(G[i], G[j]), G, order)[0]
        for i in range(len(G))
        for j in range(i + 1, len(G))
    )


def exact_divide(f: Polynomial, divisor: Polynomial, order: MonomialOrder) -> Polynomial:
    """Quotient f / divisor when the division is exact; raises otherwise."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    table = f.table
    lm, lc = divisor.leading_term(order)
    work = dict(f.terms)
    quotient: dict = {}
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        if c == 0:
            continue
        if not mono_divides(lm, m):
            raise ArithmeticError("inexact polynomial division")
        shift = mono_div(m, lm)
        factor = c if lc == 1 else Fraction(c) / lc
        quotient[shift] = quotient.get(shift, 0) + factor
        for gm, gc in divisor.terms.items():
            t = tuple(x + y for x, y in zip(gm, shift))
            if t == m:
                continue
            work[t] = work.get(t, 0) - factor * gc
    return Polynomial(table, quotient)
