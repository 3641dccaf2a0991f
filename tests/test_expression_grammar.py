"""The one expression grammar behind polynomial text and operator entries,
checked against a test-side evaluator of random expression trees."""

import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegarb.catalog import evaluate_rational_expression
from omegarb.poly import MAX_NESTING, PolyParseError, VariableTable, parse_polynomial

NAMES = ("a", "b", "c")
TABLE = VariableTable(NAMES)
BINDINGS = {"a": Fraction(3), "b": Fraction(-1, 2), "c": Fraction(0)}

# -- random trees, their text and their value ---------------------------------
#
# A tree is a tuple: ("num", p, q), ("name", n), ("neg", x), ("paren", plus, x),
# ("pow", x, k), or (op, left, right, spaced) with op one of "+ - * / implicit".
# Levels follow the grammar: sum 1, product 2, signed 3, power 4, atom 5.

leaves = st.one_of(
    st.builds(lambda p, q: ("num", p, q), st.integers(0, 12), st.integers(1, 4)),
    st.builds(lambda n: ("name", n), st.sampled_from(NAMES)),
)


def _extend(children):
    binary = st.builds(
        lambda op, l, r, spaced: (op, l, r, spaced),
        st.sampled_from(["+", "-", "*", "/", "implicit"]),
        children,
        children,
        st.booleans(),
    )
    return st.one_of(
        binary,
        st.builds(lambda x: ("neg", x), children),
        st.builds(lambda plus, x: ("paren", plus, x), st.booleans(), children),
        st.builds(lambda x, k: ("pow", x, k), children, st.integers(0, 3)),
    )


trees = st.recursive(leaves, _extend, max_leaves=12)

LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "implicit": 2, "neg": 3, "pow": 4}


def render(tree) -> str:
    """Text whose parse is exactly ``tree``: a child is parenthesized only
    when the grammar would otherwise bind it differently."""

    def wrap(child, level):
        text = render(child)
        return text if LEVEL.get(child[0], 5) >= level else f"({text})"

    kind = tree[0]
    if kind == "num":
        return str(tree[1]) if tree[2] == 1 else f"{tree[1]}/{tree[2]}"
    if kind == "name":
        return tree[1]
    if kind == "neg":
        return "-" + wrap(tree[1], 3)
    if kind == "paren":
        return "(" + ("+" if tree[1] else "") + render(tree[2]) + ")"
    if kind == "pow":
        return f"{wrap(tree[1], 5)}^{tree[2]}"
    op, left, right, spaced = tree
    if op == "implicit":
        return f"{wrap(left, 2)} {wrap(right, 4)}"
    if op == "/":  # spaces keep '2 / 3' apart from the literal '2/3'
        return f"{wrap(left, 2)} / {wrap(right, 3)}"
    sep = f" {op} " if spaced else op
    return wrap(left, 1 if op in "+-" else 2) + sep + wrap(right, 2 if op in "+-" else 3)


def value(tree):
    """Exact value at BINDINGS; None when some divisor is zero."""
    kind = tree[0]
    if kind == "num":
        return Fraction(tree[1], tree[2])
    if kind == "name":
        return BINDINGS[tree[1]]
    if kind == "paren":
        return value(tree[2])
    if kind in ("neg", "pow"):
        x = value(tree[1])
        if x is None:
            return None
        return -x if kind == "neg" else x ** tree[2]
    op, left, right, _ = tree
    a, b = value(left), value(right)
    if a is None or b is None or (op == "/" and b == 0):
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a / b if op == "/" else a * b


def divides(tree) -> bool:
    return tree[0] == "/" or any(divides(t) for t in tree[1:] if isinstance(t, tuple))


@settings(max_examples=300, deadline=None)
@given(trees)
def test_operator_entries_match_the_tree_evaluator(tree):
    text, want = render(tree), value(tree)
    if want is None:
        with pytest.raises(PolyParseError, match="division by zero"):
            evaluate_rational_expression(text, BINDINGS)
    else:
        assert evaluate_rational_expression(text, BINDINGS) == want, text


@settings(max_examples=200, deadline=None)
@given(trees.filter(lambda t: not divides(t)), st.booleans())
def test_polynomial_text_matches_the_tree_evaluator(tree, plus):
    text = ("+" if plus else "") + render(tree)
    want = value(tree)
    assert evaluate_rational_expression(text, BINDINGS) == want, text
    assert parse_polynomial(text, TABLE).evaluate(BINDINGS) == want, text


def test_renderer_exercises_the_tight_spots():
    # the cases a precedence slip would get wrong, rendered from trees
    neg_power = ("neg", ("pow", ("name", "a"), 2))
    cases = [
        (("*", ("num", 2, 1), neg_power, False), "2*-a^2"),
        (("-", ("name", "b"), neg_power, True), "b - -a^2"),
        (("+", ("name", "b"), neg_power, False), "b+-a^2"),
        (("pow", ("num", 1, 2), 2), "1/2^2"),
        (("implicit", ("num", 2, 1), ("pow", ("name", "a"), 2), False), "2 a^2"),
        (("pow", ("pow", ("name", "a"), 2), 2), "(a^2)^2"),
    ]
    for tree, text in cases:
        assert render(tree) == text
        assert evaluate_rational_expression(text, BINDINGS) == value(tree)


# -- any text: a value or PolyParseError ---------------------------------------

grammar_text = st.text(alphabet="abcq0123456789/+-*^() .", max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text(alphabet=string.printable, max_size=40), grammar_text))
def test_any_text_gives_a_value_or_a_parse_error(text):
    for parse in (
        lambda: evaluate_rational_expression(text, BINDINGS),
        lambda: parse_polynomial(text, TABLE),
    ):
        try:
            parse()
        except PolyParseError:
            pass


# -- the nesting bound holds at any caller depth --------------------------------


def _from_depth(frames, fn):
    return fn() if frames == 0 else _from_depth(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 700])
def test_nesting_bound_at_caller_depth(frames):
    ok = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    deep = "(" + ok + ")"
    for parse in (
        lambda text: evaluate_rational_expression(text, BINDINGS),
        lambda text: parse_polynomial(text, TABLE).evaluate(BINDINGS),
    ):
        assert _from_depth(frames, lambda: parse(ok)) == 3
        with pytest.raises(PolyParseError, match="nested too deeply"):
            _from_depth(frames, lambda: parse(deep))
