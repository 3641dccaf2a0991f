"""Buchberger's algorithm and reduced Groebner bases.

Lead data is computed once per basis element, when the element enters a
basis, and read everywhere after that.  A lead table is a list of
``(leading monomial, divisibility mask, leading coefficient, polynomial)``
entries in basis order: ``buchberger`` keeps one beside its basis, forms
S-polynomials from it, reduces against it and appends to it, and
``interreduce`` keeps one for the elements it minimalizes; ``reduce`` builds
one per call for outside callers.  A :class:`GroebnerBasis` keeps no table:
one per cached basis saved a few per cent of membership time but raised the
allocation peak of the table-1/2 survey by about 1 %.

The mask of a monomial has bit i set when variable i occurs.  A divisor's
mask is a subset of its multiple's, so the divisor scan and the chain
criterion call ``mono_divides`` only when ``lmask & ~mask(m)`` is zero.

The normal form keeps its pending monomials in a heap keyed by
``MonomialOrder.desc_key``, so each monomial's key is computed once, when it
first appears, and the largest pending monomial pops first.  Terms are
reduced in strictly descending order, and when several leading monomials
divide the current term the first entry in list order wins; the remainder
is therefore the same, term for term and in the same dict order, as a scan
of the whole pending set on every step would give.

Pair selection is the normal strategy (smallest lcm degree first, then
smallest lcm in the monomial order), with the coprime-leading-monomial skip
and the chain criterion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress
from operator import add
from typing import NamedTuple

from .poly import (
    Mono,
    MonomialOrder,
    Polynomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
)


class _Lead(NamedTuple):
    lm: Mono
    mask: int
    lc: Fraction
    poly: Polynomial


@cache
def _bits(n: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(n))


def _mask(m: Mono) -> int:
    """Bit i set iff variable i occurs in m."""
    return sum(compress(_bits(len(m)), m))


def _lead(p: Polynomial, order: MonomialOrder) -> _Lead:
    lm = p.leading_monomial(order)
    return _Lead(lm, _mask(lm), p.terms[lm], p)


def _lead_table(polys, order: MonomialOrder) -> list[_Lead]:
    return [_lead(p, order) for p in polys if not p.is_zero()]


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no monomial of any element
    divisible by another element's leading monomial, sorted ascending by
    leading monomial."""

    order: MonomialOrder
    elements: tuple[Polynomial, ...]

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.elements)

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def leading_monomials(self) -> list[tuple[int, ...]]:
        return [g.leading_monomial(self.order) for g in self.elements]


def _normal_form(terms, leads: list[_Lead], order: MonomialOrder) -> dict:
    """Remainder terms of the full normal form of ``terms`` (a monomial ->
    coefficient mapping; zero coefficients are skipped) modulo the lead
    table, inserted in descending monomial order."""
    desc_key = order.desc_key
    work = dict(terms)
    heap = [(desc_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        mmask = _mask(m)
        for lm, lmask, lc, g in leads:
            if not (lmask & ~mmask) and mono_divides(lm, m):
                shift = mono_div(m, lm)
                factor = c / lc
                # every new monomial is below m, so none is popped yet
                for gm, gc in g.terms.items():
                    t = tuple(map(add, gm, shift))
                    if t == m:
                        continue
                    old = work.get(t)
                    if old is None:
                        work[t] = -factor * gc
                        heapq.heappush(heap, (desc_key(t), t))
                    else:
                        work[t] = old - factor * gc
                break
        else:
            remainder[m] = c
    return remainder


def reduce(f: Polynomial, basis, order: MonomialOrder) -> Polynomial:
    """Full normal form of ``f`` modulo ``basis``.

    The returned remainder r satisfies f - r in <basis> and no monomial of r
    is divisible by any leading monomial of the basis.  Empty basis returns f.
    """
    leads = _lead_table(basis, order)
    if not leads:
        return f
    return Polynomial(f.table, _normal_form(f.terms, leads, order))


def _s_terms(a: _Lead, b: _Lead) -> dict:
    """Terms of spol(a, b), the cancelled lcm term kept with coefficient 0."""
    t = mono_lcm(a.lm, b.lm)
    sa, sb = mono_div(t, a.lm), mono_div(t, b.lm)
    out = {tuple(map(add, m, sa)): c * b.lc for m, c in a.poly.terms.items()}
    for m, c in b.poly.terms.items():
        u = tuple(map(add, m, sb))
        old = out.get(u)
        out[u] = -c * a.lc if old is None else old - c * a.lc
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """spol(f,g) = (LC(g)*t/LM(f))*f - (LC(f)*t/LM(g))*g, t = lcm of the
    leading monomials; the leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s-polynomial of the zero polynomial is undefined")
    return Polynomial(f.table, _s_terms(_lead(f, order), _lead(g, order)))


def interreduce(polys, order: MonomialOrder) -> list[Polynomial]:
    """Minimalize and fully auto-reduce a generating set (result is the
    reduced basis if the input was a Groebner basis)."""
    gens = _lead_table(polys, order)
    # ascending by leading monomial, so redundant elements come later
    gens.sort(key=lambda e: order.key(e.lm))
    minimal: list[_Lead] = []
    for e in gens:
        if any(not (q.mask & ~e.mask) and mono_divides(q.lm, e.lm) for q in minimal):
            continue
        minimal.append(e)
    # full tail reduction of each element against the rest
    changed = True
    while changed:
        changed = False
        for i in range(len(minimal)):
            e = minimal[i]
            r = _normal_form(e.poly.terms, minimal[:i] + minimal[i + 1 :], order)
            if not r:
                del minimal[i]
                changed = True
                break
            if r != e.poly.terms:
                minimal[i] = _lead(Polynomial(e.poly.table, r), order)
                changed = True
    return [e.poly.scale(1 / e.lc) for e in sorted(minimal, key=lambda e: order.key(e.lm))]


def buchberger(
    gens,
    order: MonomialOrder,
    *,
    coprime_criterion: bool = True,
    chain_criterion: bool = True,
    groebner_prefix: int = 0,
) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The result is canonical: independent of generator order and duplicates.
    An all-zero (or empty) generator list yields the empty basis for the zero
    ideal.  ``groebner_prefix=k`` asserts that the first k generators are
    already a Groebner basis under ``order``, so their mutual pairs are
    skipped (used for incremental extensions of a cached basis).
    """
    G: list[_Lead] = []
    prefix = 0
    for pos, g in enumerate(gens):
        if not g.is_zero():
            G.append(_lead(g.primitive(order), order))
            if pos < groebner_prefix:
                prefix += 1
    if not G:
        return GroebnerBasis(order, ())
    table = G[0].poly.table
    one = Polynomial.constant(table, 1)
    if any(e.poly.is_constant() for e in G):
        return GroebnerBasis(order, (one,))

    heap: list[tuple] = []
    pending: set[tuple[int, int]] = set()

    def push_pair(i: int, j: int) -> None:
        t = mono_lcm(G[i].lm, G[j].lm)
        heapq.heappush(heap, (mono_degree(t), order.key(t), i, j))
        pending.add((i, j))

    for i in range(len(G)):
        for j in range(max(i + 1, prefix), len(G)):
            push_pair(i, j)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        pending.remove((i, j))
        a, b = G[i], G[j]
        if coprime_criterion and not (a.mask & b.mask):
            continue
        if chain_criterion:
            t = mono_lcm(a.lm, b.lm)
            tmask = a.mask | b.mask
            skip = False
            for k, e in enumerate(G):
                if k == i or k == j:
                    continue
                if (
                    not (e.mask & ~tmask)
                    and mono_divides(e.lm, t)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending
                ):
                    skip = True
                    break
            if skip:
                continue
        r = _normal_form(_s_terms(a, b), G, order)
        if r:
            p = Polynomial(table, r)
            if p.is_constant():
                return GroebnerBasis(order, (one,))
            G.append(_lead(p.primitive(order), order))
            new = len(G) - 1
            for k in range(new):
                push_pair(k, new)
    return GroebnerBasis(order, tuple(interreduce([e.poly for e in G], order)))


def is_groebner_basis(polys, order: MonomialOrder) -> bool:
    """Buchberger criterion, checked directly: every s-polynomial of two
    elements reduces to zero against the set."""
    G = _lead_table(polys, order)
    return not any(
        _normal_form(_s_terms(G[i], G[j]), G, order)
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
        factor = c / lc
        quotient[shift] = quotient.get(shift, Fraction(0)) + factor
        for gm, gc in divisor.terms.items():
            t = tuple(x + y for x, y in zip(gm, shift))
            if t == m:
                continue
            work[t] = work.get(t, Fraction(0)) - factor * gc
    return Polynomial(table, quotient)
