"""Buchberger's algorithm and reduced Groebner bases, fraction-free.

Inside the kernel every basis element is a primitive integer coefficient
dict (content 1) with a positive leading coefficient.  Its lead data is
computed once, when it enters a basis, and read everywhere after that.  A
lead table is a list of ``(leading monomial, leading coefficient, terms,
packing)`` entries in basis order: ``buchberger`` keeps one beside its
basis, forms S-polynomials from it, reduces against it and appends to it,
and keeps its active entries (the reducers) minimal and auto-reduced at
every step, so at the end it only sorts them and ``interreduce`` makes them
monic.  Lead tables are built from rational polynomials, by clearing
denominators and content, in two places only: ``reduce`` and
``is_groebner_basis`` build one per call, and a :class:`GroebnerBasis`
built elsewhere than in ``buchberger`` builds its own on first use
(``buchberger`` hands over its sorted reducers).  ``buchberger`` starts
from generators alone; a basis grows only through ``extend``, whether it
is a kept basis or one lifted to a larger ring and wrapped in a
:class:`GroebnerBasis` under that ring's order.  Every other call reads
the table a basis keeps:
``contains`` (behind ``ideals.ideal_membership``) packs only the tested
polynomial; ``contains_ideal`` reduces one basis's table against
another's; ``product_cover`` multiplies its factors' tables as packed
dicts and reduces the products and their squares against the basis;
``extend`` runs ``buchberger`` from a copy of the table; and
``leading_monomials`` reads it off.  Converting a monic basis back to
integers on every test cost more than the rest of the test.

Inside the kernel a monomial is one int (Monagan and Pearce, "Sparse
polynomial division using a heap", J. Symb. Comp. 46, 2011).  The low
n * w bits hold one w-bit field per variable, the exponent of variable i
at bit i * w, with the top bit of every field, its guard bit, kept clear.
The bits above hold the order key: every key is linear, so key(m) is the
sum of m[i] times ``order.key`` of the i-th unit vector, and its
components, most significant first, are signed digits of w + bitlen(n) + 1
bits, wide enough for any key of w-bit exponents.  So comparing two packed
monomials compares them in the order, a product is a sum, an exact
quotient a difference, and with G the guard bits, a divides b exactly when
``((b | G) - a) & G == G``: a field of b below a's borrows its guard bit.
The lcm's fields are the larger field of each pair, picked by the same
test field by field (``_Packing.max_fields``, which takes the fields alone,
``m & low``); the pair criteria compare those fields, and the lcm is packed
again, key and all, only for a pair that enters the queue.  ``Polynomial`` and
``GroebnerBasis.elements`` keep exponent tuples: a monomial is packed as
the sum of its exponents times the packed unit vectors and unpacked by
reading the low bytes as an array of w-bit fields.  One packing is kept
per (order, width) for the whole process (``_packing``), shared by equal
orders, so a basis repacks its lead table only when a call needs wider
fields.

Fields start at w = 16 bits.  Packing raises ``_Overflow`` for an input
exponent past 2^(w-1) - 1, and so does ``_normal_form`` when it pops a
term with a guard bit set, before reducing it, and ``product_cover`` when
a product or a square sets one: the sum of two valid fields stays below
2^w, so no carry has crossed a field by then.  ``buchberger``, ``reduce``,
``s_polynomial``, ``is_groebner_basis`` and the methods of a
:class:`GroebnerBasis` then run again from the start with fields twice as
wide, up to 64 bits; an exponent past 2^63 - 1 raises
OverflowError.  ``exact_divide`` works on exponent tuples.

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
its own terms to the kernel, which packs them into a dict of its own: no
routine here mutates a dict it did not build.

The normal form keeps its pending monomials in a heap of negated packed
monomials, so the largest pending monomial pops first.  Terms are reduced
in strictly descending order, and when several leading monomials divide
the current term the first entry in list order wins (the scan reads a list
of the packed leading monomials, built once per call); the remainder is
therefore the same, term for term and in the same dict order, as a scan of
the whole pending set on every step would give.

Every element h enters as a nonzero normal form against the reducers,
from a generator or from a critical pair.
Critical pairs are pruned when h is installed, by the Gebauer-Moeller
criteria (J. Symb. Comp. 6, 1988) in the form of Becker and Weispfenning's
UPDATE (Groebner Bases, 1993, p. 230):
- of the new pairs (g, h), one is kept for each lcm that is not a proper
  multiple of another new pair's lcm, and a kept pair whose leading
  monomials are coprime (their lcm is their product) is dropped
  (Buchberger's product criterion);
- an old pair (g1, g2) is dropped when LM(h) divides its lcm t and neither
  lcm(g1, h) nor lcm(g2, h) equals t (the chain criterion);
- an element whose leading monomial LM(h) divides leaves the reducers;
  its pairs stay pending.
``_install`` makes one pass over the reducers, for the new pairs and the
reducers that stay, and tests the divisibilities in plain loops that stop
at the first divisor; with ``h & low`` taken once, the lcm fields of every
pair come from ``_Packing.max_fields``.
Each remaining reducer with a term that LM(h) divides is then rewritten as
its normal form against the other reducers (Becker and Weispfenning,
Ch. 5), so the reducers stay a minimal auto-reduced set.  The rewrite keeps
the reducer's leading monomial, so its pending pairs stay valid.  In a
monomial order a | b implies a <= b, and no term passes its leading
monomial, so a reducer's terms are scanned (``_has_multiple``) only when
its leading monomial is above LM(h); it is never equal to it, since
``_install`` has dropped that reducer.
Surviving pairs wait in a heap keyed by their packed lcm alone, and the
generators wait beside them, keyed by their leading monomial, so the
smallest lcm or leading monomial in the order goes first (Buchberger's
normal strategy, 1985) under every order, and a generator before a pair on
a tie.  Under grevlex that is degree by degree, and under an elimination
order block degree first.  A generator so waits until every pair with a
smaller lcm has entered, and is reduced by what they added.  Under lex a
degree-first rule grew remainders of degree 29 on an input with a
6-element basis (``tests/test_groebner.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .poly import (
    DimensionMismatchError,
    Mono,
    MonomialOrder,
    Polynomial,
    mono_div,
    mono_divides,
)

# bits of one exponent field -> the memoryview format that reads it
_FIELD_FORMATS = {16: "H", 32: "I", 64: "Q"}


class _Overflow(Exception):
    """A term needs more bits than its exponent fields hold."""


class _Packing:
    """The monomials of one order packed into ints with ``width``-bit
    exponent fields (see the module docstring); built by ``_packing``."""

    __slots__ = ("order", "width", "units", "guard", "low", "fill", "limit", "nbytes", "fmt")

    def __init__(self, order: MonomialOrder, width: int = 16):
        n = len(order.priority)
        self.order = order
        self.width = width
        self.fmt = _FIELD_FORMATS[width]
        self.nbytes = n * width // 8
        self.low = (1 << (n * width)) - 1
        self.fill = (1 << width) - 1  # one field, all ones
        # low // fill has the lowest bit of every field set
        self.guard = self.low // self.fill << (width - 1)
        self.limit = (1 << (width - 1)) - 1
        # one digit per key component, most significant first: a component
        # is below n * 2^width in size, so a digit of width + bitlen(n) + 1
        # bits holds it with its sign
        digit = 1 << (width + n.bit_length() + 1)
        weights = [order.key((0,) * i + (1,) + (0,) * (n - 1 - i)) for i in range(n)]
        places = [digit**k for k in reversed(range(len(weights[0])))] if n else []
        self.units = tuple(
            (sum(map(mul, w, places)) << (n * width)) + (1 << (i * width))
            for i, w in enumerate(weights)
        )

    def wider(self) -> "_Packing":
        if 2 * self.width not in _FIELD_FORMATS:
            raise OverflowError(f"an exponent above {self.limit} does not fit the Groebner kernel")
        return _packing(self.order, 2 * self.width)

    def pack(self, m: Mono) -> int:
        return sum(map(mul, m, self.units))

    def unpack(self, m: int) -> Mono:
        return tuple(memoryview((m & self.low).to_bytes(self.nbytes, sys.byteorder)).cast(self.fmt))

    def pack_terms(self, terms: dict) -> dict:
        """The terms with packed monomials; raises _Overflow when an
        exponent reaches a guard bit."""
        if self.nbytes and max(map(max, terms), default=0) > self.limit:
            raise _Overflow
        units = self.units
        return {sum(map(mul, m, units)): c for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        unpack = self.unpack
        return {unpack(m): c for m, c in terms.items()}

    def max_fields(self, a: int, b: int) -> int:
        """The exponent fields of lcm(a, b), for a and b given as their
        exponent fields alone (``m & low``), with no order key."""
        # the guard bit of a field stays set where a's exponent is >= b's,
        # and pick fills those fields with ones
        pick = ((((a | self.guard) - b) & self.guard) >> (self.width - 1)) * self.fill
        return (a & pick) | (b & ~pick)

    def lcm(self, a: int, b: int) -> int:
        return self.pack(self.unpack(self.max_fields(a & self.low, b & self.low)))


@cache
def _packing(order: MonomialOrder, width: int = 16) -> _Packing:
    """The one packing of ``order`` (and of every order equal to it) with
    ``width``-bit fields."""
    return _Packing(order, width)


def _widening(P: _Packing, run: Callable):
    """run(P), restarted with twice as wide exponent fields while a term
    overflows them."""
    while True:
        try:
            return run(P)
        except _Overflow:
            P = P.wider()


class _Lead(NamedTuple):
    lm: int
    lc: int
    terms: dict  # packed monomial -> int
    pack: _Packing


def _lead(terms: dict, P: _Packing) -> _Lead:
    """Lead entry of the primitive multiple, with a positive leading
    coefficient, of a nonzero packed integer coefficient dict."""
    lm = max(terms)
    d = gcd(*terms.values())
    if terms[lm] < 0:
        d = -d
    if d != 1:
        terms = {m: c // d for m, c in terms.items()}
    return _Lead(lm, terms[lm], terms, P)


def _integer_terms(terms) -> tuple[dict, int]:
    """(L * terms with integer coefficients, L) for L the least common
    multiple of the denominators of a polynomial's terms.  All-int terms
    (L = 1) come back as the same dict, so the caller must not mutate it."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return terms, 1
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _check_table(p: Polynomial, order: MonomialOrder) -> None:
    if len(p.table) != len(order.priority):
        raise DimensionMismatchError(
            f"order over {len(order.priority)} variables, table of {len(p.table)}"
        )


def _integer_table(polys, P: _Packing) -> list[dict]:
    """The packed integer terms of the nonzero polynomials, each over the
    order's variables."""
    out = []
    for p in polys:
        if p:
            _check_table(p, P.order)
            out.append(P.pack_terms(_integer_terms(p.terms)[0]))
    return out


def _lead_table(polys, P: _Packing) -> list[_Lead]:
    return [_lead(terms, P) for terms in _integer_table(polys, P)]


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic elements, no monomial of any element
    divisible by another element's leading monomial, sorted ascending by
    leading monomial."""

    order: MonomialOrder
    elements: tuple[Polynomial, ...]
    # the packed integer lead table of ``elements``; ``buchberger`` hands
    # over its reducers, otherwise the first call that reads it builds it
    _leads: list = field(default=None, repr=False, compare=False)

    def _packing(self) -> _Packing:
        return self._leads[0].pack if self._leads else _packing(self.order)

    def _leads_at(self, P: _Packing) -> list[_Lead]:
        """The lead table packed by P, kept.  The zero ideal's table is
        empty under every packing."""
        leads = self._leads
        if leads is None or leads and leads[0].pack is not P:
            leads = _lead_table(self.elements, P)
            object.__setattr__(self, "_leads", leads)
        return leads

    def _same_order(self, other: "GroebnerBasis") -> None:
        # a lead table read under another order would be kept in its place
        if other.order != self.order:
            raise ValueError("Groebner bases under different orders")

    def contains(self, f: Polynomial) -> bool:
        """f lies in the ideal: its normal form is zero."""
        _check_table(f, self.order)
        terms = _integer_terms(f.terms)[0]
        return _widening(
            self._packing(),
            lambda P: not _normal_form(P.pack_terms(terms), self._leads_at(P), P)[0],
        )

    def contains_ideal(self, other: "GroebnerBasis") -> bool:
        """The ideal of ``other``, a basis under the same order, lies in
        this one: every element of its lead table has normal form zero
        against this lead table.  Both tables are read packed."""
        self._same_order(other)

        def run(P: _Packing) -> bool:
            leads = self._leads_at(P)
            return not any(_normal_form(dict(e.terms), leads, P)[0] for e in other._leads_at(P))

        return _widening(self._packing(), run)

    def product_cover(self, factors: Sequence["GroebnerBasis"], cap: int) -> Optional[list[Polynomial]]:
        """The products of one element from each basis in ``factors`` (under
        this basis's order) that this ideal does not put in its radical by a
        normal form; None when a step would form more than ``cap`` products.

        An element that lies in this ideal I is dropped first, since every
        product with it lies in I; a factor with none left makes the product
        lie in I, and the answer is empty.  An element of the first factor
        whose square lies in I is dropped next.  The products are then built
        one factor at a time as packed integer dicts, where a monomial
        product is an int sum.  A partial product that lies in I, or whose
        square does, is in sqrt(I), an ideal, and so is every extension of
        it: it is dropped.  ``cap`` bounds only these products, so a single
        factor never gives None.  The last step's survivors come back as
        polynomials, a nonzero integer multiple of each product, for the
        caller's radical test."""
        if not factors:
            raise ValueError("no factors")
        for basis in factors:
            self._same_order(basis)

        def run(P: _Packing) -> Optional[list[Polynomial]]:
            leads = self._leads_at(P)

            def outside(terms: dict) -> bool:
                return bool(_normal_form(dict(terms), leads, P)[0])

            def square_outside(terms: dict) -> bool:
                return bool(_normal_form(_times(terms, terms, P), leads, P)[0])

            kept = [[e.terms for e in basis._leads_at(P) if outside(e.terms)] for basis in factors]
            if not all(kept):
                return []
            # the first factor's elements are outside I already
            partial = [g for g in kept[0] if square_outside(g)]
            for terms in kept[1:]:
                if len(partial) * len(terms) > cap:
                    return None
                products = {}
                for p in partial:
                    for g in terms:
                        pg = _times(p, g, P)
                        products.setdefault(frozenset(pg.items()), pg)
                partial = [p for p in products.values() if outside(p) and square_outside(p)]
            return [Polynomial._of(factors[0].elements[0].table, P.unpack_terms(p)) for p in partial]

        return _widening(self._packing(), run)

    def extend(self, gens) -> "GroebnerBasis":
        """The reduced basis of this ideal plus ``gens`` under the same
        order, the one way a basis grows.  The computation starts from this
        basis's own lead table, a reduced Groebner basis already, so only
        pairs with the new generators are formed.  A basis built elsewhere
        than in ``buchberger``, such as one lifted to a larger ring, packs
        its table here on first use."""
        gens = list(gens)
        if not self.elements:
            return buchberger(gens, self.order)
        table = self.elements[0].table
        # _buchberger rewrites its reducers in place: it gets a copy
        return _widening(self._packing(), lambda P: _buchberger(self._leads_at(P)[:], gens, table, P))

    def contains_one(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.elements)

    def is_zero_ideal(self) -> bool:
        return not self.elements

    def leading_monomials(self) -> list[tuple[int, ...]]:
        """The leading monomials of the elements, read off the lead table."""
        return [e.pack.unpack(e.lm) for e in _widening(self._packing(), self._leads_at)]


def _times(a: dict, b: dict, P: _Packing) -> dict:
    """The product of two packed integer coefficient dicts; raises
    _Overflow when a monomial of it sets a guard bit, since a normal form
    may cancel that term before it pops it, and squaring it would carry
    across fields."""
    out: dict = {}
    for m, c in a.items():
        for n, d in b.items():
            t = m + n
            out[t] = out.get(t, 0) + c * d
    guard = P.guard
    if any(t & guard for t in out):
        raise _Overflow
    return {t: c for t, c in out.items() if c}


def _normal_form(work: dict, leads: list[_Lead], P: _Packing) -> tuple[dict, int | Fraction]:
    """``(r, M)`` for the full normal form of ``work`` (a packed monomial ->
    integer mapping; zero coefficients are skipped) modulo the lead table,
    by pseudo-reduction: r has integer coefficients, M is a positive
    rational, M*work - r lies in the ideal of the table, no monomial of r
    is divisible by a leading monomial, and r's terms are inserted in
    descending monomial order.  ``work`` is consumed: every caller hands
    over a dict it built for the call.  Raises _Overflow on a term with a
    guard bit set, before it is reduced."""
    guard = P.guard
    lms = [e.lm for e in leads]
    heap = [-m for m in work]
    heapify(heap)
    remainder: dict = {}
    mult = 1
    while heap:
        m = -heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        if m & guard:
            raise _Overflow
        mg = m | guard
        for lm in lms:
            if (mg - lm) & guard == guard:
                break
        else:
            remainder[m] = c
            continue
        # the first entry with this leading monomial is the first that
        # divides m
        _, lc, g, _ = leads[lms.index(lm)]
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
        shift = m - lm
        # every new monomial is below m, so none is popped yet
        for gm, gc in g.items():
            t = gm + shift
            if t == m:
                continue
            old = work.get(t)
            if old is None:
                work[t] = -c * gc
                heappush(heap, -t)
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
    _check_table(f, order)
    basis = list(basis)
    terms, den = _integer_terms(f.terms)

    def run(P: _Packing) -> Polynomial:
        leads = _lead_table(basis, P)
        if not leads:
            return f
        r, mult = _normal_form(P.pack_terms(terms), leads, P)
        scale = den * mult
        if scale == 1:
            return Polynomial(f.table, P.unpack_terms(r))
        return Polynomial(f.table, {m: Fraction(c, scale) for m, c in P.unpack_terms(r).items()})

    return _widening(_packing(order), run)


def _s_terms(a: _Lead, b: _Lead) -> dict:
    """Terms of spol(a, b), the cancelled lcm term kept with coefficient 0."""
    t = a.pack.lcm(a.lm, b.lm)
    sa, sb = t - a.lm, t - b.lm
    out = {m + sa: c * b.lc for m, c in a.terms.items()}
    for m, c in b.terms.items():
        u = m + sb
        old = out.get(u)
        out[u] = -c * a.lc if old is None else old - c * a.lc
    return out


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """spol(f,g) = (LC(g)*t/LM(f))*f - (LC(f)*t/LM(g))*g, t = lcm of the
    leading monomials; the leading terms cancel."""
    if f.is_zero() or g.is_zero():
        raise ValueError("s-polynomial of the zero polynomial is undefined")
    _check_table(f, order)
    _check_table(g, order)

    # _s_terms only multiplies, so it takes the rational lead data as it is
    def lead(p: Polynomial, P: _Packing) -> _Lead:
        terms = P.pack_terms(p.terms)
        lm = max(terms)
        return _Lead(lm, terms[lm], terms, P)

    def run(P: _Packing) -> Polynomial:
        s = _s_terms(lead(f, P), lead(g, P))
        if any(m & P.guard for m in s):
            raise _Overflow
        return Polynomial(f.table, P.unpack_terms(s))

    return _widening(_packing(order), run)


def interreduce(gens: list[_Lead], table) -> list[Polynomial]:
    """The reduced basis, over ``table``, of a minimal auto-reduced Groebner
    basis given as lead entries sorted ascending by leading monomial: each
    element divided by its leading coefficient.  An element with leading
    coefficient 1 stays in ints."""
    out = []
    for e in gens:
        terms = e.pack.unpack_terms(e.terms)
        if e.lc != 1:
            terms = {m: Fraction(c, e.lc) for m, c in terms.items()}
        out.append(Polynomial._of(table, terms))
    return out


def _install(k: int, basis: list[_Lead], active: list[int], pairs: list, P: _Packing) -> list[int]:
    """Install ``basis[k]`` by the Gebauer-Moeller criteria: drop the old
    pairs it makes redundant from the heap ``pairs``, push the new pairs
    that survive, and return the new list of active (reducer) indices."""
    h = basis[k].lm
    guard, low, fields = P.guard, P.low, P.max_fields
    hl = h & low
    # new pairs (i, k) as (exponent fields of the lcm, coprime, i): the
    # leading monomials are coprime when their lcm is their product; the
    # reducers whose leading monomial h does not divide stay active
    fresh = []
    remaining = []
    for i in active:
        g = basis[i].lm
        if ((g | guard) - h) & guard != guard:
            remaining.append(i)
        g &= low
        t = fields(g, hl)
        fresh.append((t, t == g + hl, i))
    # a new pair that is not coprime goes when another new pair's lcm,
    # pending or kept, divides its own
    kept = []
    while fresh:
        p = fresh.pop()
        if p[1]:
            kept.append(p)
            continue
        tg = p[0] | guard
        for q in chain(fresh, kept):
            if (tg - q[0]) & guard == guard:
                break
        else:
            kept.append(p)
    # old pairs (i, j) as (lcm, i, j)
    survivors = []
    for p in pairs:
        t = p[0]
        if ((t | guard) - h) & guard == guard:
            t &= low
            if fields(basis[p[1]].lm & low, hl) != t and fields(basis[p[2]].lm & low, hl) != t:
                continue
        survivors.append(p)
    if len(survivors) < len(pairs):
        pairs[:] = survivors
        heapify(pairs)
    for t, coprime, i in kept:
        if not coprime:
            heappush(pairs, (P.pack(P.unpack(t)), i, k))
    remaining.append(k)
    return remaining


def _has_multiple(e: _Lead, h: int, guard: int) -> bool:
    """Some term of the entry e is a multiple of the packed monomial h.  A
    multiple of h is at least h in the order, and no term of e passes e.lm,
    so e's terms are read only when e.lm is not below h: in ``_buchberger``
    that is when e.lm is above h, since ``_install`` has dropped a reducer
    whose leading monomial h divides."""
    if e.lm < h:
        return False
    for m in e.terms:
        if ((m | guard) - h) & guard == guard:
            return True
    return False


def buchberger(gens, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    The result is canonical: independent of generator order and duplicates.
    An all-zero (or empty) generator list yields the empty basis for the zero
    ideal.  Every run starts from generators alone; a known basis grows
    through ``GroebnerBasis.extend``.  The generators wait in the pair
    queue, keyed by their leading monomial as a pair is by its lcm, and a
    generator goes before a pair on a tie.  Each generator and each
    S-polynomial enters as its normal form against the reducers, which stay
    minimal and auto-reduced.
    """
    gens = list(gens)
    if not any(gens):
        return GroebnerBasis(order, ())
    return _widening(_packing(order), lambda P: _buchberger([], gens, gens[0].table, P))


def _buchberger(basis: list[_Lead], gens: list[Polynomial], table, P: _Packing) -> GroebnerBasis:
    """The reduced basis of the ideal of ``basis``, the lead table of a
    reduced Groebner basis, which the run takes over and extends in place,
    plus ``gens``."""
    order = P.order
    guard = P.guard
    # every element that ever entered, in entry order; pairs index into it
    active = list(range(len(basis)))
    reducers = basis[:]
    pairs: list[tuple] = []
    # the later generators as (leading monomial, terms), largest first, so
    # the smallest pops off the end
    inputs = sorted(
        ((max(t), t) for t in _integer_table(gens, P)),
        key=itemgetter(0),
        reverse=True,
    )

    def entering():
        while inputs or pairs:
            if inputs and (not pairs or inputs[-1][0] <= pairs[0][0]):
                yield inputs.pop()[1]
            else:
                i, j = heappop(pairs)[1:]
                yield _s_terms(basis[i], basis[j])

    for terms in entering():
        r = _normal_form(terms, reducers, P)[0]
        if not r:
            continue
        e = _lead(r, P)
        if not e.lm:
            return GroebnerBasis(order, (Polynomial.constant(table, 1),))
        basis.append(e)
        active = _install(len(basis) - 1, basis, active, pairs, P)
        for i in active[:-1]:
            if _has_multiple(basis[i], e.lm, guard):
                rest = [basis[j] for j in active if j != i]
                basis[i] = _lead(_normal_form(dict(basis[i].terms), rest, P)[0], P)
        reducers = [basis[i] for i in active]
    reducers.sort(key=itemgetter(0))
    return GroebnerBasis(order, tuple(interreduce(reducers, table)), reducers)


def is_groebner_basis(polys, order: MonomialOrder) -> bool:
    """Buchberger criterion, checked directly: every s-polynomial of two
    elements reduces to zero against the set."""
    polys = list(polys)

    def run(P: _Packing) -> bool:
        G = _lead_table(polys, P)
        return not any(
            _normal_form(_s_terms(G[i], G[j]), G, P)[0]
            for i in range(len(G))
            for j in range(i + 1, len(G))
        )

    return _widening(_packing(order), run)


def exact_divide(f: Polynomial, divisor: Polynomial, order: MonomialOrder) -> Polynomial:
    """Quotient f / divisor when the division is exact; raises otherwise."""
    if divisor.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    _check_table(f, order)
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
