"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives over a fixed :class:`VariableTable` and is stored as a
dictionary mapping monomial exponent tuples to nonzero coefficients, each an
``int`` when it is integral and a ``Fraction`` only when its denominator is
above 1:

    Mono = tuple[int, ...]            # one exponent per table variable
    terms = {(2, 1): 1, (0, 0): Fraction(3, 2)}   # x^2*y + 3/2

The empty dict is the zero polynomial.  ``Polynomial.__init__`` puts what it
is given into that form and raises TypeError for any other coefficient type,
a float among them; ``+``, ``-`` and ``*`` with an operand that is neither a
polynomial nor an int or a ``Fraction`` raise TypeError too.  The class's
own arithmetic keeps the form, so the integer-coefficient systems of the
operator varieties never construct a ``Fraction``.  Every division of a
coefficient goes through ``Fraction``.
All arithmetic is exact; there is no floating point anywhere.  Two
polynomials are equal, and hash equal, exactly when their values are.
Term order is not baked into the representation:
monomial orders (lex, grevlex and elimination orders, over a priority
permutation) are separate values used for comparisons, leading terms,
sorting and printing.

This module also holds the package's one expression grammar.
:func:`evaluate_expression` reads ``+ - * / ^``, parentheses and p/q
literals with explicit stacks and evaluates over any ring the caller names;
:func:`parse_polynomial` is its adapter for polynomial text, and
``catalog.evaluate_rational_expression`` is the one for operator entries.
Nesting is capped at ``MAX_NESTING`` open parentheses and exponents at
``MAX_EXPONENT``, whatever the caller's stack depth; powers stacked through
parentheses are capped by the product of their exponents, so ``(x^8)^8`` is
read and ``(x^8)^9`` is rejected like ``x^72``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd
from operator import add, itemgetter, le, mul, neg, sub
from typing import Callable, Iterable, Mapping, Sequence, Union

Mono = tuple[int, ...]
Scalar = Union[Fraction, int]


class DimensionMismatchError(ValueError):
    """Raised when values over different variable tables are combined."""


class PolyParseError(ValueError):
    """Raised on malformed polynomial text."""


# ---------------------------------------------------------------------------
# variable tables


@dataclass(frozen=True)
class VariableTable:
    """Fixed ordered list of distinct variable names."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        names = tuple(self.names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names!r}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @classmethod
    def of(cls, *names: str) -> "VariableTable":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r} (table has {self.names})") from None

    def extend(self, *names: str) -> "VariableTable":
        """New table with extra variables appended after the existing ones."""
        for n in names:
            if n in self:
                raise ValueError(f"variable {n!r} already in table")
        return VariableTable(self.names + tuple(names))

    def fresh_name(self, stem: str) -> str:
        """A variable name based on ``stem`` that does not collide."""
        if stem not in self:
            return stem
        k = 0
        while f"{stem}{k}" in self:
            k += 1
        return f"{stem}{k}"


def _check_same_table(a: "Polynomial", b: "Polynomial") -> None:
    if a.table is not b.table and a.table != b.table:
        raise DimensionMismatchError(
            f"mixed variable tables: {a.table.names} vs {b.table.names}"
        )


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)


def mono_one(n: int) -> Mono:
    return (0,) * n


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(map(add, a, b))


def mono_divides(a: Mono, b: Mono) -> bool:
    """True iff a | b, i.e. every exponent of a is <= that of b."""
    return all(map(le, a, b))


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    # a conditional beats map(max, ...), which pays a call per exponent
    return tuple([x if x >= y else y for x, y in zip(a, b)])


def mono_gcd(a: Mono, b: Mono) -> Mono:
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_degree(a: Mono) -> int:
    return sum(a)


def mono_support(a: Mono) -> frozenset[int]:
    return frozenset(i for i, e in enumerate(a) if e)


# ---------------------------------------------------------------------------
# monomial orders


def _permuter(idx: tuple[int, ...]) -> Callable[[Mono], tuple]:
    """m -> tuple(m[i] for i in idx), as one C call; a run of consecutive
    indices, ascending or descending, is a slice, which also covers 0 and
    1 indices."""
    if not idx:
        return itemgetter(slice(0))
    a, b = idx[0], idx[-1]
    if idx == tuple(range(a, b + 1)):
        return itemgetter(slice(a, b + 1))
    if idx == tuple(range(a, b - 1, -1)):
        return itemgetter(slice(a, b - 1 if b else None, -1))
    return itemgetter(*idx)


@dataclass(frozen=True)
class MonomialOrder:
    """Total multiplicative monomial order over a priority permutation of
    variable indices (priority[0] is the most significant): lex, grevlex,
    or the elimination order of the first ``block`` priority variables,
    which compares their total degree first and breaks ties by grevlex.
    Orders compare and hash on kind, priority and block."""

    kind: str  # "lex" | "grevlex" | "elimination"
    priority: tuple[int, ...]
    block: int = 0  # eliminated variables, only for "elimination"
    # key(a) < key(b) iff a < b: a flat tuple of ints, linear in the
    # exponents, built by C-level permutations that do not check the
    # monomial's length (Polynomial.leading_monomial checks the order's)
    key: Callable[[Mono], tuple] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "elimination"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        pr = tuple(self.priority)
        if sorted(pr) != list(range(len(pr))):
            raise ValueError(f"priority {pr!r} is not a permutation")
        if (self.kind == "elimination") != (0 < self.block < len(pr)):
            raise ValueError(
                f"block {self.block} does not fit a {self.kind} order of {len(pr)} variables"
            )
        object.__setattr__(self, "priority", pr)
        if self.kind == "lex":
            key = _permuter(pr)
        elif self.kind == "grevlex":
            ranked = _permuter(pr[::-1])

            def key(m: Mono) -> tuple:
                return (sum(m), *map(neg, ranked(m)))
        else:
            # block degree, then grevlex over the priority; the total degree
            # and the other exponents fix pr[0]'s, so it is left out and the
            # key stays n + 1 integers
            blocked = _permuter(pr[: self.block])
            ranked = _permuter(pr[:0:-1])

            def key(m: Mono) -> tuple:
                return (sum(blocked(m)), sum(m), *map(neg, ranked(m)))

        object.__setattr__(self, "key", key)


def _resolve_priority(table: VariableTable, names: Sequence[str] | None) -> tuple[int, ...]:
    if names is None:
        return tuple(range(len(table)))
    pr = tuple(table.index(n) for n in names)
    if sorted(pr) != list(range(len(table))):
        raise ValueError("priority names must list every table variable exactly once")
    return pr


def lex_order(table: VariableTable, names: Sequence[str] | None = None) -> MonomialOrder:
    """Lex order; default priority is table order (first name largest)."""
    return MonomialOrder("lex", _resolve_priority(table, names))


@cache
def _table_grevlex(table: VariableTable) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(range(len(table))))


def grevlex_order(table: VariableTable, names: Sequence[str] | None = None) -> MonomialOrder:
    """Graded reverse lex; default priority is table order.  The default
    order is built once per table and shared: ideals, printing and the
    kernel all ask for it on every call."""
    if names is None:
        return _table_grevlex(table)
    return MonomialOrder("grevlex", _resolve_priority(table, names))


def elimination_order(table: VariableTable, eliminated: Iterable[str]) -> MonomialOrder:
    """Bayer and Stillman's elimination order (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, 3.1, Exercise 6): higher total degree in the
    ``eliminated`` variables first, then grevlex with them first and the
    rest in table order.  A basis's elements free of them are a grevlex
    basis of the elimination ideal.  Raises ValueError for an unknown name
    and for an empty or full set."""
    names = set(eliminated)
    unknown = names - set(table.names)
    if unknown:
        raise ValueError(f"unknown variables {sorted(unknown)} (table has {table.names})")
    block = [i for i, n in enumerate(table.names) if n in names]
    rest = [i for i, n in enumerate(table.names) if n not in names]
    if not block or not rest:
        raise ValueError("an elimination order eliminates some, but not all, variables")
    return MonomialOrder("elimination", tuple(block + rest), len(block))


# ---------------------------------------------------------------------------
# polynomials


def _scalar(value) -> Scalar:
    """``value`` in the stored coefficient form: an ``int`` when it is
    integral, a ``Fraction`` only when its denominator is above 1.  Any
    other type, a float among them, raises TypeError."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool
        return int(value)
    raise TypeError(
        f"coefficient {value!r} is not an int or a Fraction; use exact p/q rationals"
    )


def _check_exponents(mono: Mono, n: int) -> None:
    if len(mono) != n or (n and min(mono) < 0):
        raise ValueError(f"bad exponent tuple {mono!r} for table of size {n}")


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, stored
    as ints where integral (see the module docstring)."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: VariableTable, terms: Mapping[Mono, Scalar]):
        clean: dict[Mono, Scalar] = {}
        n = len(table)
        for mono, coeff in terms.items():
            c = _scalar(coeff)
            if not c:
                continue
            _check_exponents(mono, n)
            clean[tuple(mono)] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _of(cls, table: VariableTable, terms: dict[Mono, Scalar]) -> "Polynomial":
        """The polynomial of terms that a split of one polynomial into parts
        (``ideals._split_by_power``), a product, a scaling, a table surgery
        or the Groebner kernel's unpacking (``groebner.interreduce``) built
        from polynomials over ``table``: the monomials already have its
        shape and the coefficients are ints and Fractions, so only the zeros
        are dropped and the integral Fractions turned into ints.  Sums,
        differences and negations keep the stored form term by term, and do
        not come through here."""
        clean = {}
        for m, c in terms.items():
            if c:
                if type(c) is Fraction and c.denominator == 1:
                    c = c.numerator
                clean[m] = c
        return _stored(table, clean)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, table: VariableTable) -> "Polynomial":
        return cls(table, {})

    @classmethod
    def constant(cls, table: VariableTable, value: Scalar) -> "Polynomial":
        return cls._of(table, {mono_one(len(table)): _scalar(value)})

    @classmethod
    def variable(cls, table: VariableTable, name: str) -> "Polynomial":
        e = [0] * len(table)
        e[table.index(name)] = 1
        return cls._of(table, {tuple(e): 1})

    @classmethod
    def monomial(cls, table: VariableTable, mono: Mono, coeff: Scalar = 1) -> "Polynomial":
        return cls(table, {tuple(mono): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(mono_degree(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def degree_in(self, name: str) -> int:
        i = self.table.index(name)
        if not self.terms:
            return -1
        return max(m[i] for m in self.terms)

    def support_vars(self) -> frozenset[str]:
        idx: set[int] = set()
        for m in self.terms:
            idx.update(mono_support(m))
        return frozenset(self.table.names[i] for i in idx)

    def num_terms(self) -> int:
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return _stored(self.table, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.table, other)
        return _merged(self, other, False)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.table, other)
        return _merged(self, other, True)

    def __rsub__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return _merged(-self, Polynomial.constant(self.table, other), False)

    def __mul__(self, other) -> "Polynomial":
        if type(other) is not Polynomial:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self.scale(other)
        _check_same_table(self, other)
        if not self.terms or not other.terms:
            return Polynomial.zero(self.table)
        out: dict[Mono, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                old = out.get(m)
                out[m] = ca * cb if old is None else old + ca * cb
        return Polynomial._of(self.table, out)

    __rmul__ = __mul__

    def scale(self, q: Scalar) -> "Polynomial":
        q = _scalar(q)
        if q == 1:
            return self
        return Polynomial._of(self.table, {m: c * q for m, c in self.terms.items()})

    def mul_term(self, mono: Mono, coeff: Scalar) -> "Polynomial":
        """Multiply by a single term coeff * x^mono."""
        c = _scalar(coeff)
        _check_exponents(mono, len(self.table))
        return Polynomial._of(
            self.table, {mono_mul(m, mono): cc * c for m, cc in self.terms.items()}
        )

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        out = Polynomial.constant(self.table, 1)
        for _ in range(e):
            out = out * self
        return out

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.table, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.table, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    # -- order-dependent views ---------------------------------------------

    def sorted_terms(self, order: MonomialOrder) -> list[tuple[Mono, Scalar]]:
        """Terms in strictly descending monomial order."""
        key = order.key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def leading_monomial(self, order: MonomialOrder) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        if len(order.priority) != len(self.table):
            raise DimensionMismatchError(
                f"order over {len(order.priority)} variables, table of {len(self.table)}"
            )
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder) -> Scalar:
        return self.terms[self.leading_monomial(order)]

    def leading_term(self, order: MonomialOrder) -> tuple[Mono, Scalar]:
        m = self.leading_monomial(order)
        return m, self.terms[m]

    def monic(self, order: MonomialOrder) -> "Polynomial":
        if not self.terms:
            return self
        return self.scale(Fraction(1) / self.leading_coefficient(order))

    # -- content / normal forms --------------------------------------------

    def rational_content(self) -> Fraction:
        """Positive rational c with self/c having integer coprime coefficients."""
        if not self.terms:
            return Fraction(1)
        nums = [abs(c.numerator) for c in self.terms.values()]
        dens = [c.denominator for c in self.terms.values()]
        g = 0
        for v in nums:
            g = gcd(g, v)
        l = 1
        for v in dens:
            l = l * v // gcd(l, v)
        return Fraction(g, l)

    def monomial_content(self) -> Mono:
        """Componentwise min exponent over all terms (the monomial gcd)."""
        if not self.terms:
            return mono_one(len(self.table))
        it = iter(self.terms)
        acc = next(it)
        for m in it:
            acc = mono_gcd(acc, m)
        return acc

    def primitive(self, order: MonomialOrder) -> "Polynomial":
        """Divide out rational content; sign chosen so the leading coefficient
        under ``order`` is positive."""
        if not self.terms:
            return self
        c = self.rational_content()
        if self.leading_coefficient(order) < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Full evaluation at a rational point; every support variable must
        be assigned."""
        missing = self.support_vars() - set(point)
        if missing:
            raise ValueError(f"unassigned variables {sorted(missing)}")
        total = Fraction(0)
        idx = {self.table.index(n): _scalar(v) for n, v in point.items()}
        for mono, coeff in self.terms.items():
            v = coeff
            for i, e in enumerate(mono):
                if e:
                    v *= idx[i] ** e
            total += v
        return total

    # -- table surgery -------------------------------------------------------

    def lift(self, new_table: VariableTable) -> "Polynomial":
        """Reinterpret over a larger table that starts with this table's
        variables in the same order."""
        if new_table.names[: len(self.table)] != self.table.names:
            raise DimensionMismatchError("new table must extend the old one")
        pad = (0,) * (len(new_table) - len(self.table))
        return Polynomial._of(new_table, {m + pad: c for m, c in self.terms.items()})

    def restrict(self, new_table: VariableTable) -> "Polynomial":
        """Inverse of :meth:`lift`; errors if the extra variables occur."""
        if self.table.names[: len(new_table)] != new_table.names:
            raise DimensionMismatchError("table is not a prefix of the current one")
        k = len(new_table)
        out: dict[Mono, Scalar] = {}
        for m, c in self.terms.items():
            if any(m[k:]):
                raise ValueError("polynomial involves variables outside the target table")
            out[m[:k]] = c
        return Polynomial._of(new_table, out)

    # -- printing ------------------------------------------------------------

    def to_text(self, order: MonomialOrder | None = None) -> str:
        if not self.terms:
            return "0"
        if order is None:
            order = grevlex_order(self.table)
        parts: list[str] = []
        for i, (mono, coeff) in enumerate(self.sorted_terms(order)):
            sign = "-" if coeff < 0 else "+"
            body = _term_text(self.table, mono, abs(coeff))
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"


def _stored(table: VariableTable, terms: dict[Mono, Scalar]) -> Polynomial:
    """The polynomial of ``terms``, a dict already in the stored form over
    ``table``, taken over as it is."""
    p = object.__new__(Polynomial)
    object.__setattr__(p, "table", table)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


def _merged(a: Polynomial, b: Polynomial, subtract: bool) -> Polynomial:
    """a + b, or a - b with ``subtract``, merged term by term into a copy of
    a's terms.  Only a merged term can cancel, and only the sum of two
    Fractions can turn integral, so the stored form is kept without a
    second pass."""
    _check_same_table(a, b)
    out = dict(a.terms)
    for m, c in b.terms.items():
        old = out.get(m)
        if old is None:
            out[m] = -c if subtract else c
            continue
        c = old - c if subtract else old + c
        if not c:
            del out[m]
        elif type(c) is Fraction and c.denominator == 1:
            out[m] = c.numerator
        else:
            out[m] = c
    return _stored(a.table, out)


def _term_text(table: VariableTable, mono: Mono, coeff: Scalar) -> str:
    factors = []
    for i, e in enumerate(mono):
        if e == 1:
            factors.append(table.names[i])
        elif e > 1:
            factors.append(f"{table.names[i]}^{e}")
    if not factors:
        return str(coeff)
    if coeff != 1:
        factors.insert(0, str(coeff))
    return "*".join(factors)


# ---------------------------------------------------------------------------
# parsing: one tokenizer and one expression grammar
#
#   expr    := ['+'] sum               (unary '+' only at the start or after '(')
#   sum     := product (('+' | '-') product)*
#   product := signed (('*' | '/') signed | power)*   ('*' may be left out)
#   signed  := '-' signed | power      (so -a^2 = -(a^2) wherever it stands)
#   power   := atom ['^' INTEGER]      (one '^'; 0 <= INTEGER <= MAX_EXPONENT)
#   atom    := NUMBER | NAME | '(' expr ')'   (at most MAX_NESTING open '(')
#
# The exponents applied to one value multiply: an atom counts 1, '^k' takes
# it times k, and a binary operator keeps the larger count of its operands.
# A count above MAX_EXPONENT is rejected, so stacked powers stay small.

MAX_NESTING = 256
MAX_EXPONENT = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)
# right after '^' a number is its digits alone, so a '/' there divides:
# a^2/4 is (a^2)/4, as '/' binds looser than '^'
_EXPONENT_RE = re.compile(r"\s*(?P<number>\d+)")
_FLOAT_RE = re.compile(r"\d+\.\d*|\.\d+")

# binding strength of the pending operators; '^' is applied as soon as it is read
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_ARITHMETIC = {"+": add, "-": sub, "*": mul}


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) triples: a number is an ``int`` or, when
    written p/q, a ``Fraction``; names and operators stay strings."""
    if _FLOAT_RE.search(text):
        raise PolyParseError(
            "floating-point literals are not supported; use exact p/q rationals"
        )
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = tokens and tokens[-1][1] == "^" and _EXPONENT_RE.match(text, pos)
        m = m or _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise PolyParseError(f"unexpected character {rest[0]!r} at position {at}")
        pos = m.end()
        kind = m.lastgroup
        at = m.start(kind)  # the token's own start, after any whitespace
        val = m.group(kind)
        if kind == "number":
            num, _, den = val.partition("/")
            try:
                val = Fraction(int(num), int(den)) if den else int(num)
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator in {val!r} at position {at}") from None
            except ValueError:  # more digits than int() converts
                raise PolyParseError(f"number too long at position {at}") from None
        tokens.append((kind, val, at))
    return tokens


def evaluate_expression(
    text: str,
    leaf: Callable[[object], object],
    divide: Callable[[object, object], object] | None = None,
):
    """Evaluate ``text`` under the grammar above with explicit operator and
    value stacks, so the work is linear in the text and needs no recursion.

    ``leaf(v)`` turns a number token (an ``int`` or ``Fraction``) or a name
    token (a ``str``) into a value, raising ``KeyError`` for an unknown
    name.  Values must support ``+``, ``-``, ``*``, unary ``-`` and ``**``
    by an ``int``.  ``divide(a, b)`` gives ``a / b`` and raises
    ``ZeroDivisionError`` when ``b`` is zero; without it ``/`` is an error.
    Every malformed input raises :class:`PolyParseError`.
    """
    tokens = _tokenize(text) + [(None, None, len(text))]  # end-of-text sentinel
    values: list = []
    powers: list[int] = []  # the exponent count of each value, as above
    pending: list[tuple[str, int]] = []  # operators, 'neg' and '(' with positions
    depth = 0  # open parentheses

    def fail(message: str, at: int) -> PolyParseError:
        return PolyParseError(f"{message} at position {at} in {text!r}")

    def apply_pending(precedence: int) -> None:
        """Apply the pending operators, down to the innermost '(', that bind
        at least as tightly as ``precedence``."""
        while pending and pending[-1][0] != "(" and _PRECEDENCE[pending[-1][0]] >= precedence:
            op, at = pending.pop()
            if op == "neg":
                values[-1] = -values[-1]
                continue
            rhs = values.pop()
            powers[-2:] = [max(powers[-2:])]
            if op == "/":
                try:
                    values[-1] = divide(values[-1], rhs)
                except ZeroDivisionError:
                    raise fail("division by zero", at) from None
            else:
                values[-1] = _ARITHMETIC[op](values[-1], rhs)

    i = 0
    operand = True  # the next token must start an operand
    start = True  # ... and may be a unary '+'
    powerable = False  # the last value read may take '^'
    while True:
        kind, val, at = tokens[i]
        i += 1
        if operand:
            if kind == "number" or kind == "name":
                try:
                    values.append(leaf(val))
                except KeyError:
                    raise fail(f"unknown name {val!r}", at) from None
                powers.append(1)
                operand, powerable = False, True
            elif kind == "op" and val == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise PolyParseError(
                        f"expression nested too deeply: more than {MAX_NESTING} open"
                        f" parentheses at position {at} in {text[:30]!r}..."
                    )
                pending.append(("(", at))
                start = True
                continue
            elif kind == "op" and val == "-":
                if pending and pending[-1][0] == "neg":
                    pending.pop()  # a double negation cancels
                else:
                    pending.append(("neg", at))
            elif not (start and kind == "op" and val == "+"):
                raise fail(f"expected a term, found {val!r}", at)
            start = False
            continue
        if powerable and kind == "op" and val == "^":
            kind, val, at = tokens[i]
            i += 1
            if kind != "number" or not isinstance(val, int):
                raise fail("exponent must be a nonnegative integer", at)
            if val > MAX_EXPONENT:
                raise fail(f"exponent {val} is above the limit {MAX_EXPONENT}", at)
            power = powers[-1] * val
            if power > MAX_EXPONENT:
                raise fail(
                    f"nested exponents multiply to {power}, above the limit {MAX_EXPONENT}", at
                )
            values[-1] = values[-1] ** val
            powers[-1] = power
            powerable = False
            continue
        powerable = False
        if kind is None:
            break
        if kind == "op" and (val in "+-*" or (val == "/" and divide is not None)):
            apply_pending(_PRECEDENCE[val])
            pending.append((val, at))
            operand = True
        elif kind != "op" or val == "(":  # implicit multiplication
            apply_pending(_PRECEDENCE["*"])
            pending.append(("*", at))
            operand = True
            i -= 1
        elif val == ")" and depth:
            apply_pending(0)
            pending.pop()
            depth -= 1
            powerable = True
        else:
            raise fail("expected ')'" if depth else f"unexpected token {val!r}", at)
    if depth:
        raise fail("expected ')'", at)
    apply_pending(0)
    return values[0]


def parse_polynomial(text: str, table: VariableTable) -> Polynomial:
    """Parse ``x12*x21 + x22^2`` style text ('*' optional, '^' for powers,
    no '/' between terms) over the variables of ``table``."""

    def leaf(v) -> Polynomial:
        if isinstance(v, str):
            return Polynomial.variable(table, v)
        return Polynomial.constant(table, v)

    return evaluate_expression(text, leaf)


def parse_rational(text: str) -> Fraction:
    """Exact rational literal ('3', '-3/4'): the grammar's number token, with
    an optional sign right before it; rejects floats and anything else."""
    text = text.strip()
    shown = repr(text) if len(text) <= 60 else repr(text[:60]) + "..."
    if _FLOAT_RE.search(text):
        raise PolyParseError(f"{shown} is not an exact rational; use p/q form")
    body = text[1:] if text[:1] in ("-", "+") else text
    try:
        tokens = _tokenize(body)
    except PolyParseError as exc:
        raise PolyParseError(f"bad rational literal {shown}: {exc}") from None
    if len(tokens) != 1 or tokens[0][0] != "number" or tokens[0][2] != 0:
        raise PolyParseError(f"bad rational literal {shown}")
    value = Fraction(tokens[0][1])
    return -value if text[:1] == "-" else value
