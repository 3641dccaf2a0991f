"""Catalog of omega-Lie algebras and the structured documents the CLI reads.

Catalog files are YAML lists of entries.  A full entry carries basis names,
bracket relations like ``"[x,y] = y"``, omega values like ``"w(x,y) = 1"``,
and optionally parameter names with excluded values.  An entry with only an
``external_source`` field is a stub: its defining relations live in the
cited classification literature and must be transcribed by the user before
the entry can be used; reports mark such rows as skipped.

Every instantiation is validated against the defining identity; an entry
whose relations break it is rejected with the failing basis triple named.

Every relation, bracket or omega, is read by one loop: its right-hand side
is polynomial text over the basis names, evaluated by
``poly.evaluate_expression`` with each parameter bound to its value, so a
bracket must come out linear and an omega value constant, and integral
coefficients stay ints.  Operator-file entries are rational expressions
over named parameters (:func:`evaluate_rational_expression`), read by the
same grammar; only operator entries may divide.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import combinations
from operator import truediv
from typing import Mapping, Optional, Sequence

import yaml

from .algebras import OmegaAlgebra, OperatorMatrix, validate_algebra
from .linalg import identity
from .poly import (
    PolyParseError,
    Polynomial,
    Scalar,
    VariableTable,
    evaluate_expression,
    parse_rational,
)


class CatalogError(ValueError):
    """Malformed catalog data; message carries entry/field diagnostics."""


# default specialization samples for parameterized families
DEFAULT_PARAMETER_SAMPLES = (Fraction(2), Fraction(-1), Fraction(1, 2))

_BRACKET_RE = re.compile(r"^\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]\s*=\s*(.*)$")
_OMEGA_RE = re.compile(r"^\s*w\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*=\s*(.*)$")
# how each relation kind is read: its pattern, its name in messages, the
# degree of every term of its right-hand side, and what that makes it
_BRACKET = (_BRACKET_RE, "bracket", 1, "a linear combination of basis vectors")
_OMEGA = (_OMEGA_RE, "omega", 0, "a rational value")


@dataclass(frozen=True)
class ParamSpec:
    name: str
    excluded: tuple[Fraction, ...] = ()


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    source: str
    external: bool
    basis: tuple[str, ...] = ()
    bracket_relations: tuple[str, ...] = ()
    omega_relations: tuple[str, ...] = ()
    params: tuple[ParamSpec, ...] = ()

    @property
    def has_definition(self) -> bool:
        return not self.external

    def default_param_values(self) -> dict[str, Fraction]:
        values = {}
        for spec in self.params:
            for sample in DEFAULT_PARAMETER_SAMPLES:
                if sample not in spec.excluded:
                    values[spec.name] = sample
                    break
            else:
                raise CatalogError(
                    f"{self.name}: no admissible default for parameter {spec.name}"
                )
        return values

    def instantiate(
        self, param_values: Optional[Mapping[str, Fraction]] = None
    ) -> OmegaAlgebra:
        """Build and validate the algebra at the given parameter values."""
        if self.external:
            raise CatalogError(
                f"{self.name}: definition not shipped (external source: {self.source});"
                " supply a transcribed catalog file to use this entry"
            )
        values = dict(self.default_param_values())
        if param_values:
            for k, v in param_values.items():
                if k not in {p.name for p in self.params}:
                    raise CatalogError(f"{self.name}: unknown parameter {k!r}")
                values[k] = Fraction(v)
        for spec in self.params:
            if values[spec.name] in spec.excluded:
                raise CatalogError(
                    f"{self.name}: parameter {spec.name} = {values[spec.name]}"
                    f" is excluded (constraints: != {list(spec.excluded)})"
                )
        basis = VariableTable(self.basis)

        def leaf(v) -> Polynomial:
            if not isinstance(v, str):
                return Polynomial.constant(basis, v)
            if v in values:
                return Polynomial.constant(basis, values[v])
            return Polynomial.variable(basis, v)  # KeyError for an unknown name

        units = identity(len(self.basis))  # the exponent tuple of each basis name
        brackets: dict[tuple[int, int], tuple] = {}
        omega: dict[tuple[int, int], Scalar] = {}
        relations = [(rel, _BRACKET) for rel in self.bracket_relations]
        relations += [(rel, _OMEGA) for rel in self.omega_relations]
        for rel, (pattern, kind, degree, what) in relations:
            m = pattern.match(rel)
            if not m:
                raise CatalogError(f"{self.name}: bad {kind} relation {rel!r}")
            a, b, rhs = m.groups()
            key = self._basis_index(a), self._basis_index(b)
            try:
                terms = evaluate_expression(rhs, leaf).terms
            except PolyParseError as exc:
                raise CatalogError(f"{self.name}: {rel!r}: {exc}") from exc
            if any(sum(mono) != degree for mono in terms):
                raise CatalogError(f"{self.name}: {rel!r} is not {what}")
            if degree:
                brackets[key] = tuple(terms.get(u, 0) for u in units)
            else:
                omega[key] = next(iter(terms.values()), 0)
        try:
            algebra = OmegaAlgebra.from_brackets(
                self.basis, brackets, omega, params=values or None
            )
        except ValueError as exc:  # [e,e] or omega(e,e) given nonzero
            raise CatalogError(f"{self.name}: {exc}") from None
        check = validate_algebra(algebra)
        if not check.ok:
            kind, indices, residual = check.failures[0]
            triple = ", ".join(self.basis[i] for i in indices)
            raise CatalogError(
                f"{self.name}: defining identity fails ({kind}) on ({triple});"
                f" residual {tuple(str(r) for r in residual)}"
            )
        return algebra

    def _basis_index(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise CatalogError(
                f"{self.name}: {name!r} is not a basis vector (basis: {self.basis})"
            ) from None


def _as_str_list(value, context: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise CatalogError(f"{context}: expected a list of strings")
    return tuple(value)


def _parse_entry(raw, index: int) -> CatalogEntry:
    if not isinstance(raw, dict):
        raise CatalogError(f"entry #{index}: expected a mapping, got {type(raw).__name__}")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(f"entry #{index}: missing or invalid 'name'")
    ctx = f"entry {name!r}"
    dim = raw.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise CatalogError(f"{ctx}: missing or invalid 'dim'")
    external_source = raw.get("external_source")
    if external_source is not None:
        extra = set(raw) - {"name", "dim", "external_source", "note"}
        if extra:
            raise CatalogError(f"{ctx}: stub entries cannot carry fields {sorted(extra)}")
        return CatalogEntry(name, dim, str(external_source), external=True)
    basis = _as_str_list(raw.get("basis"), f"{ctx}: basis")
    if len(basis) != dim:
        raise CatalogError(f"{ctx}: basis has {len(basis)} names, dim is {dim}")
    if len(set(basis)) != len(basis):
        raise CatalogError(f"{ctx}: basis names repeat")
    specs = raw.get("params") or []
    if not isinstance(specs, list):
        raise CatalogError(f"{ctx}: 'params' must be a list")
    params = []
    for p in specs:
        if isinstance(p, str):
            params.append(ParamSpec(p))
        elif isinstance(p, dict) and isinstance(p.get("name"), str):
            exclude = p.get("exclude") or []
            if not isinstance(exclude, list):
                raise CatalogError(f"{ctx}: parameter {p['name']}: 'exclude' must be a list")
            params.append(ParamSpec(p["name"], tuple(parse_rational(str(v)) for v in exclude)))
        else:
            raise CatalogError(f"{ctx}: bad parameter spec {p!r}")
    names = basis + tuple(p.name for p in params)
    if len(set(names)) != len(names):
        raise CatalogError(f"{ctx}: parameter names repeat or name a basis vector")
    return CatalogEntry(
        name=name,
        dim=dim,
        source=str(raw.get("source", "")),
        external=False,
        basis=basis,
        bracket_relations=_as_str_list(raw.get("brackets"), f"{ctx}: brackets"),
        omega_relations=_as_str_list(raw.get("omega"), f"{ctx}: omega"),
        params=tuple(params),
    )


def _load_yaml(text: str, what: str, loader=yaml.SafeLoader):
    try:
        return yaml.load(text, Loader=loader)
    except (yaml.YAMLError, RecursionError) as exc:
        raise CatalogError(f"{what} is not valid YAML: {exc}") from exc
    except ValueError as exc:  # an integer past the str -> int digit limit, say
        raise CatalogError(f"{what} holds a value that cannot be read: {exc}") from exc


def read_yaml(path):
    """The YAML document in the file ``path``; a file that is not UTF-8
    text or not YAML raises :class:`CatalogError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path} is not UTF-8 text: {exc}") from exc
    return _load_yaml(text, str(path))


def parse_catalog_text(text: str) -> list[CatalogEntry]:
    return _catalog_entries(_load_yaml(text, "catalog"))


def parse_catalog(path) -> list[CatalogEntry]:
    return _catalog_entries(read_yaml(path))


def _catalog_entries(data) -> list[CatalogEntry]:
    if data is None:
        return []
    if not isinstance(data, list):
        raise CatalogError("catalog must be a YAML list of entries")
    entries = [_parse_entry(raw, i) for i, raw in enumerate(data)]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise CatalogError(f"duplicate entry names: {dupes}")
    return entries


def read_builtin_yaml(relative: str):
    """The YAML document in the shipped data file ``data/<relative>``.

    Shipped data is parsed by libyaml when PyYAML has it, about eight times
    faster than the pure loader.  User files stay on the pure loader: the C
    parser recurses without a bound and crashes the process on deeply nested
    input, where the pure one raises RecursionError."""
    text = resources.files("omegarb").joinpath(f"data/{relative}").read_text("utf-8")
    return _load_yaml(text, relative, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def load_builtin_catalog() -> dict[str, CatalogEntry]:
    return {e.name: e for e in _catalog_entries(read_builtin_yaml("catalog.yaml"))}


# ---------------------------------------------------------------------------
# operator files: entries are rational expressions over named parameters


def evaluate_rational_expression(
    text: str, bindings: Mapping[str, Fraction]
) -> Fraction:
    """Exact value of an expression over named rationals: the polynomial
    grammar of :func:`omegarb.poly.evaluate_expression` plus '/'."""

    def leaf(v) -> Fraction:
        return Fraction(bindings[v] if isinstance(v, str) else v)

    return evaluate_expression(text, leaf, truediv)


def parse_operator_file(
    path, overrides: Optional[Mapping[str, Fraction]] = None
) -> OperatorMatrix:
    """Operator file: YAML with ``rows`` (entry expressions over parameter
    names) and optional ``params`` defaults; overrides win."""
    return operator_from_spec(read_yaml(path), overrides, context=str(path))


class _NotingBindings(dict):
    """Parameter bindings that note each name an expression reads."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def __getitem__(self, name: str) -> Fraction:
        self.read.add(name)
        return super().__getitem__(name)


def operator_from_spec(
    data, overrides: Optional[Mapping[str, Fraction]] = None, context: str = "operator"
) -> OperatorMatrix:
    """The operator whose entries are ``rows``, read with the ``params``
    defaults and then ``overrides``.  An override that ``params`` does not
    declare and no entry reads is rejected: it is most likely misspelled."""
    if not isinstance(data, dict) or "rows" not in data:
        raise CatalogError(f"{context}: expected a mapping with a 'rows' field")
    params = data.get("params") or {}
    if not isinstance(params, dict):
        raise CatalogError(f"{context}: 'params' must map names to values")
    bindings = _NotingBindings()
    for k, v in params.items():
        bindings[str(k)] = parse_rational(str(v))
    declared = set(bindings)
    for k, v in (overrides or {}).items():
        bindings[str(k)] = Fraction(v)
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise CatalogError(f"{context}: 'rows' must be a list of lists")
    entries = []
    for r, row in enumerate(rows):
        out_row = []
        for c, cell in enumerate(row):
            try:
                out_row.append(evaluate_rational_expression(str(cell), bindings))
            except PolyParseError as exc:
                raise CatalogError(f"{context}: row {r + 1} column {c + 1}: {exc}") from exc
        entries.append(out_row)
    unused = [k for k in map(str, overrides or {}) if k not in declared | bindings.read]
    if unused:
        raise CatalogError(
            f"{context}: parameter {unused[0]!r} is neither declared under 'params'"
            " nor read by any entry"
        )
    if any(len(r) != len(entries) for r in entries):
        raise CatalogError(f"{context}: operator matrix must be square")
    return OperatorMatrix(entries)


# ---------------------------------------------------------------------------
# serialization of constructed structures: a product's linear combination is
# printed by the polynomial printer, over a variable table of the basis names


def format_products(names: Sequence[str], table, pairs, template: str) -> list[str]:
    """``template.format(e_i, e_j) = combination`` for each pair (i, j) whose
    product table[i][j] is nonzero.  The combination is the linear
    polynomial over the basis names, printed by ``Polynomial.to_text``."""
    basis = VariableTable(tuple(names))
    units = identity(len(names))  # the exponent tuple of each basis name
    return [
        f"{template.format(names[i], names[j])} = "
        + Polynomial(basis, dict(zip(units, table[i][j]))).to_text()
        for i, j in pairs
        if any(table[i][j])
    ]


def algebra_to_catalog_dict(L: OmegaAlgebra, name: str) -> dict:
    names, pairs = L.basis_names, list(combinations(range(L.dim), 2))
    omega = L.omega
    return {
        "name": name,
        "dim": L.dim,
        "basis": list(names),
        "brackets": format_products(names, L.c, pairs, "[{},{}]"),
        "omega": [f"w({names[i]},{names[j]}) = {omega[i][j]}" for i, j in pairs if omega[i][j]],
    }


def serialize_constructed(kind: str, name: str, payload: dict, provenance: Sequence[str]) -> str:
    """Catalog-format text with a provenance comment header."""
    header = "".join(f"# {line}\n" for line in provenance)
    body = yaml.safe_dump([{"kind": kind, **payload}], sort_keys=False)
    return header + body
