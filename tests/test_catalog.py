"""Catalog parsing, parameter handling, operator files, serialization."""

import fractions
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import omegarb
from omegarb.algebras import validate_algebra
from omegarb.catalog import (
    CatalogError,
    algebra_to_catalog_dict,
    evaluate_rational_expression,
    format_products,
    load_builtin_catalog,
    operator_from_spec,
    parse_catalog_text,
)
from omegarb.linalg import identity
from omegarb.poly import MAX_EXPONENT, PolyParseError, VariableTable, parse_polynomial

SHIPPED = {"L1", "L2", "L1_1", "L1_2", "L1_8", "Atilde_alpha"}


def test_builtin_catalog_loads(catalog):
    assert SHIPPED <= set(catalog)
    for name in SHIPPED:
        assert catalog[name].has_definition
    stubs = {n for n, e in catalog.items() if not e.has_definition}
    assert {"B", "A_alpha", "C_alpha", "L1_3", "Btilde"} <= stubs


def test_all_shipped_entries_validate(catalog):
    # every defined entry instantiates, so none sets one pair twice
    defined = {n for n, e in catalog.items() if e.has_definition}
    assert defined >= SHIPPED
    for name in sorted(defined):
        algebra = catalog[name].instantiate()
        assert validate_algebra(algebra).ok


def test_a_pair_given_twice_names_both_relations():
    [twice, once] = parse_catalog_text(
        "- {name: X, dim: 2, basis: [a, b], brackets: ['[a,b] = a', '[ b , a ] = -a']}\n"
        "- {name: Y, dim: 2, basis: [a, b], brackets: ['[a,b] = 0'], omega: ['w(b,a) = 1']}\n"
    )
    with pytest.raises(CatalogError, match=r"X: '\[a,b\] = a' and '\[ b , a \] = -a'"):
        twice.instantiate()
    # a bracket and an omega value on one pair are two relations, not one twice
    assert once.instantiate().dim == 2


def test_stub_instantiation_rejected(catalog):
    with pytest.raises(CatalogError, match="external"):
        catalog["B"].instantiate()


def test_parameterized_entry(catalog):
    entry = catalog["Atilde_alpha"]
    for alpha in (Fraction(2), Fraction(-1, 4), Fraction(5)):
        L = entry.instantiate({"alpha": alpha})
        assert validate_algebra(L).ok
        assert dict(L.params)["alpha"] == alpha
    with pytest.raises(CatalogError, match="unknown parameter"):
        entry.instantiate({"beta": 1})


def test_default_parameter_skips_exclusions():
    text = """
- name: P
  dim: 2
  basis: [x, y]
  params:
    - name: t
      exclude: ["2", "-1"]
  brackets: []
  omega: ["w(x,y) = t"]
"""
    entry = parse_catalog_text(text)[0]
    assert entry.default_param_values() == {"t": Fraction(1, 2)}
    with pytest.raises(CatalogError, match="excluded"):
        entry.instantiate({"t": Fraction(2)})


def test_empty_catalog():
    assert parse_catalog_text("") == []
    assert parse_catalog_text("# nothing here\n") == []


def test_identity_violation_names_triple():
    text = """
- name: broken
  dim: 3
  basis: [x, y, z]
  brackets:
    - "[x,y] = y"
    - "[y,z] = z"
  omega:
    - "w(x,y) = 2"
"""
    entry = parse_catalog_text(text)[0]
    with pytest.raises(CatalogError, match=r"x, y, z"):
        entry.instantiate()


def test_malformed_entries_rejected():
    with pytest.raises(CatalogError, match="name"):
        parse_catalog_text("- dim: 3\n")
    with pytest.raises(CatalogError, match="basis"):
        parse_catalog_text("- name: X\n  dim: 3\n  basis: [x, y]\n")
    with pytest.raises(CatalogError, match="duplicate"):
        parse_catalog_text(
            "- name: X\n  dim: 2\n  basis: [a, b]\n- name: X\n  dim: 2\n  basis: [a, b]\n"
        )


# one malformed relation on the basis (x, y, z), with a parameter a:
# (field, relation, the full CatalogError text of instantiate)
MALFORMED_RELATIONS = {
    "bracket-syntax": ("brackets", "a*b = a", "X: bad bracket relation 'a*b = a'"),
    "omega-syntax": ("omega", "w(x) = 1", "X: bad omega relation 'w(x) = 1'"),
    "unknown-basis-vector": (
        "brackets", "[x,q] = y", "X: 'q' is not a basis vector (basis: ('x', 'y', 'z'))"
    ),
    "unknown-name": (
        "brackets", "[x,y] = q", "X: '[x,y] = q': unknown name 'q' at position 0 in 'q'"
    ),
    "unknown-name-in-omega": (
        "omega", "w(x,y) = q", "X: 'w(x,y) = q': unknown name 'q' at position 0 in 'q'"
    ),
    "constant-bracket": (
        "brackets", "[x,y] = 1", "X: '[x,y] = 1' is not a linear combination of basis vectors"
    ),
    "parameter-only-bracket": (
        "brackets", "[x,y] = a", "X: '[x,y] = a' is not a linear combination of basis vectors"
    ),
    "nonlinear-bracket": (
        "brackets",
        "[x,y] = x*y",
        "X: '[x,y] = x*y' is not a linear combination of basis vectors",
    ),
    "non-constant-omega": ("omega", "w(x,y) = a*x", "X: 'w(x,y) = a*x' is not a rational value"),
    "bracket-x-x": ("brackets", "[x,x] = y", "X: bracket [e_i,e_i] must be zero"),
    "omega-x-x": ("omega", "w(x,x) = a", "X: omega(e_i,e_i) must be zero"),
    "float-literal": (
        "brackets",
        "[x,y] = 0.5*z",
        "X: '[x,y] = 0.5*z': floating-point literals are not supported; use exact p/q rationals",
    ),
}


@pytest.mark.parametrize("case", MALFORMED_RELATIONS)
def test_malformed_relations_rejected(case):
    field, relation, message = MALFORMED_RELATIONS[case]
    text = f'- name: X\n  dim: 3\n  basis: [x, y, z]\n  params: [a]\n  {field}: ["{relation}"]\n'
    entry = parse_catalog_text(text)[0]
    with pytest.raises(CatalogError) as caught:
        entry.instantiate()
    assert str(caught.value) == message


def test_integer_entries_build_no_fraction(catalog):
    """An entry whose relations are all integral is read, cleared and
    validated in ints: nothing runs in the ``fractions`` module."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    for name in ("L1", "L2", "L1_1", "L1_2", "L1_8"):
        sys.setprofile(profile)
        try:
            catalog[name].instantiate()
        finally:
            sys.setprofile(None)
    assert calls == []


# -- operator files ---------------------------------------------------------------


def test_operator_expressions_with_division():
    spec = {
        "rows": [
            ["a", "0", "0", "-b"],
            ["-a*d/b", "0", "0", "d"],
            ["r", "0", "0", "s"],
            ["a^2/b", "0", "0", "-a"],
        ],
        "params": {"a": 1, "b": 2, "d": 3, "r": 0, "s": 0},
    }
    R = operator_from_spec(spec)
    assert R.entries[1][0] == Fraction(-3, 2)
    assert R.entries[3][0] == Fraction(1, 2)


def test_operator_param_override():
    spec = {"rows": [["d", "0"], ["0", "d"]], "params": {"d": 1}}
    R = operator_from_spec(spec, {"d": Fraction(7, 2)})
    assert R.entries[0][0] == Fraction(7, 2)


def test_operator_errors():
    with pytest.raises(CatalogError, match="rows"):
        operator_from_spec({"params": {}})
    with pytest.raises(CatalogError, match="row 1"):
        operator_from_spec({"rows": [["nope"], ["0"]]})
    with pytest.raises(CatalogError, match="square"):
        operator_from_spec({"rows": [["0", "0"], ["0"]]})
    with pytest.raises(CatalogError, match="zero denominator"):
        operator_from_spec({"rows": [["1/0"]]})


def test_expression_evaluator():
    env = {"a": Fraction(3), "b": Fraction(1, 2)}
    assert evaluate_rational_expression("a^2/b", env) == 18
    assert evaluate_rational_expression("-(a + b)(a - b)", env) == Fraction(-35, 4)
    assert evaluate_rational_expression("2a - 1/2", env) == Fraction(11, 2)
    with pytest.raises(Exception):
        evaluate_rational_expression("a/(b - 1/2)", env)
    with pytest.raises(PolyParseError, match="nested too deeply"):
        evaluate_rational_expression("(" * 3000 + "a" + ")" * 3000, env)
    assert evaluate_rational_expression("(" * 50 + "a" + ")" * 50, env) == 3


@pytest.mark.parametrize(
    "text, value",
    [("-a^2", -9), ("2*-a^2", -18), ("b - -a^2", 10), ("b+-a^2", -8), ("b/-a^2", Fraction(-1, 9))],
)
def test_expression_unary_minus_binds_looser_than_power(text, value):
    assert evaluate_rational_expression(text, {"a": Fraction(3), "b": Fraction(1)}) == value


def test_expression_exponent_bound():
    env = {"a": Fraction(3)}
    assert evaluate_rational_expression(f"a^{MAX_EXPONENT}", env) == 3**MAX_EXPONENT
    for k in (MAX_EXPONENT + 1, 1000000000):
        with pytest.raises(PolyParseError, match=f"exponent {k} is above the limit {MAX_EXPONENT} at position 2"):
            evaluate_rational_expression(f"3^{k}", env)


def test_expression_nested_powers_multiply_against_the_bound():
    env = {"a": Fraction(2)}
    assert evaluate_rational_expression("(a^8)^8", env) == 2**64
    for text in ("(a^8)^9", "((2^64)^64)^64", "((a/3 + 1)^8)^9"):
        with pytest.raises(PolyParseError, match="above the limit 64"):
            evaluate_rational_expression(text, env)


def test_expression_errors_name_their_position():
    env = {"a": Fraction(3)}
    for text, message in [
        ("a/(a - 3)", "division by zero at position 1"),
        ("q + a", "unknown name 'q' at position 0"),
        ("a^-1", "exponent must be a nonnegative integer at position 2"),
        ("2^2^2", "unexpected token '\\^' at position 3"),
        ("a*", "expected a term, found the end of the text at position 2"),
        ("(a", "expected '\\)' at position 2"),
    ]:
        with pytest.raises(PolyParseError, match=message):
            evaluate_rational_expression(text, env)
    # an exponent is the digits after '^' alone: '/' then divides the power
    assert evaluate_rational_expression("a^1/2", env) == Fraction(3, 2)
    assert evaluate_rational_expression("a^2/4", env) == Fraction(9, 4)


# -- serialization -----------------------------------------------------------------


def test_algebra_round_trips_through_catalog_format(L1_8):
    data = algebra_to_catalog_dict(L1_8, "again")
    import yaml

    text = yaml.safe_dump([data])
    entry = parse_catalog_text(text)[0]
    L = entry.instantiate()
    assert L.c == L1_8.c
    assert L.omega == L1_8.omega


NAMES = ("x", "y", "z", "e1", "e_2")
# 0 and +-1 are drawn often, as the printer writes them specially
COEFF = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)


def coefficient_vectors():
    """1 to 5 coefficients, sometimes all zero."""
    vectors = st.integers(1, 5).flatmap(lambda n: st.lists(COEFF, min_size=n, max_size=n))
    zeros = st.integers(1, 5).map(lambda n: [Fraction(0)] * n)
    return st.one_of(vectors, zeros)


@settings(max_examples=300, deadline=None)
@given(coefficient_vectors())
def test_format_products_reads_back_to_its_coefficients(coeffs):
    names = NAMES[: len(coeffs)]
    lines = format_products(names, [[tuple(coeffs)]], [(0, 0)], "{}*{}")
    if not any(coeffs):
        assert lines == []
        return
    (line,) = lines
    head, _, text = line.partition(" = ")
    assert head == f"{names[0]}*{names[0]}"
    p = parse_polynomial(text, VariableTable(names))
    assert p.terms == {unit: c for unit, c in zip(identity(len(names)), coeffs) if c}


def test_format_products_pinned_lines():
    table = [[(1, -2, Fraction(1, 2)), (-1, 0, 0)], [(0, 0, 0), (0, Fraction(-7, 3), 5)]]
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert format_products(("x", "y", "z"), table, pairs, "[{},{}]") == [
        "[x,x] = x - 2*y + 1/2*z",
        "[x,y] = -x",
        "[y,y] = -7/3*y + 5*z",
    ]


# -- YAML loaders ---------------------------------------------------------------

DATA_FILES = sorted((Path(omegarb.__file__).resolve().parent / "data").rglob("*.yaml"))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", DATA_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_data_reads_the_same_under_both_loaders(path):
    text = path.read_text("utf-8")
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_deeply_nested_user_catalog_is_a_usage_error(tmp_path):
    # libyaml's parser crashes the process on this input; user files must
    # reach the pure loader, whose RecursionError becomes exit 2.  A
    # subprocess keeps a crash from taking the test run down with it.
    deep = tmp_path / "deep.yaml"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    env = dict(os.environ, PYTHONPATH=str(Path(omegarb.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "omegarb", "table", "1", "--catalog", str(deep)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 2
    assert "is not valid YAML" in proc.stderr
