"""Malformed YAML documents end with exit code 0, 1 or 2, never a traceback.

Each test writes a generated document (a near miss of the right shape or an
arbitrary YAML value) to a file and runs `cli.main` in process on it: a
candidates file (`solve --candidates`), an operator file (`classify` and
`construct`), a catalog (`validate`), an expectations file (`table --expect`)
and a module file (`construct module-twist --module`).  Any exception that
escapes `main` fails the test.  Leaves come from a small pool, so a document
that happens to be well formed is still cheap to compute with.
"""

import contextlib
import io

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from omegarb.cli import main

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

TEXTS = [
    "x11", "x12 - x21", "x33", "x22^2", "x11*x23", "a", "1/2", "-1", "0", "q", "1/0", "x11 +", "",
]
leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(TEXTS),
    st.text(alphabet="ax1+-*/^()[] ", max_size=5),
)


def value(keys=()):
    """An arbitrary YAML value whose mapping keys lean toward ``keys``."""
    key = st.sampled_from(list(keys) + ["name", "x"]) if keys else st.sampled_from(["name", "x"])
    return st.recursive(
        leaf,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(key, inner, max_size=3),
        max_leaves=8,
    )


def near(shape: dict, keys):
    """A mapping with ``shape``'s fields, each either well formed or arbitrary."""
    return st.fixed_dictionaries(
        {}, optional={k: st.one_of(v, value(keys)) for k, v in shape.items()}
    )


def run_main(path, text, *argv):
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2), (text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture
def files(tmp_path):
    (tmp_path / "minus_id.yaml").write_text(
        "rows:\n  - ['-1','0','0']\n  - ['0','-1','0']\n  - ['0','0','-1']\n"
    )
    return tmp_path


def rows(size, cell):
    return st.lists(st.lists(cell, min_size=size, max_size=size), min_size=size, max_size=size)


CANDIDATE_KEYS = ["generators", "certificate", "pivot", "linear_vars"]
candidate = near(
    {
        "generators": st.lists(st.sampled_from(TEXTS[:5]), max_size=4),
        "certificate": st.one_of(
            st.lists(st.sampled_from(["x11", "x12", "x21", "q", "11", 11]), max_size=3),
            st.fixed_dictionaries({"pivot": st.sampled_from(["x11", "x12", "q", "11"])}),
            st.fixed_dictionaries(
                {"linear_vars": st.lists(st.sampled_from(["x11", "x33", "q"]), max_size=3)}
            ),
        ),
    },
    CANDIDATE_KEYS,
)


@FUZZ
@given(doc=st.one_of(st.lists(candidate, max_size=3), value(CANDIDATE_KEYS)))
def test_candidates_file(files, doc):
    path = files / "cands.yaml"
    run_main(path, yaml.safe_dump(doc), "solve", "L1", "bc", "--candidates", path, "--json")


OPERATOR_KEYS = ["rows", "params"]
operator = near(
    {
        "rows": rows(3, st.sampled_from(["0", "1", "-1", "a", "1/2", "a/0", "q"])),
        "params": st.fixed_dictionaries({"a": st.sampled_from([1, "1/2", "x", None])}),
    },
    OPERATOR_KEYS,
)


@FUZZ
@given(
    doc=st.one_of(operator, value(OPERATOR_KEYS)),
    kind=st.sampled_from(["lsa", "deform", "homlie"]),
)
def test_operator_file(files, doc, kind):
    path = files / "op.yaml"
    text = yaml.safe_dump(doc)
    run_main(path, text, "classify", "L1", "--op", path, "--weight", "1")
    run_main(path, text, "construct", kind, "L1", "--op", path, "--steps", "2")


CATALOG_KEYS = [
    "name", "dim", "basis", "brackets", "omega", "params", "exclude", "external_source",
]
BRACKETS = ["[a,b] = a", "[a,a] = b", "[b,a] = t*a", "[a,c] = a", "[a,b] = a^2"]
OMEGAS = ["w(a,b) = 1", "w(a,a) = 1", "w(a,b) = t", "w(a,b) = a"]
entry = st.fixed_dictionaries(
    # name, dim and basis are mostly well formed, so the other fields get read
    {
        "name": st.sampled_from(["A", "B", ""]),
        "dim": st.sampled_from([2, 2, 2, 0]),
        "basis": st.sampled_from([["a", "b"], ["a", "b"], ["a", "a"], ["a"]]),
    },
    optional={
        k: st.one_of(v, value(CATALOG_KEYS))
        for k, v in {
            "brackets": st.lists(st.sampled_from(BRACKETS), max_size=2),
            "omega": st.lists(st.sampled_from(OMEGAS), max_size=2),
            "params": st.lists(
                st.one_of(
                    st.sampled_from(["t", "a"]),
                    st.fixed_dictionaries(
                        {"name": st.sampled_from(["t", "a"])}, optional={"exclude": value()}
                    ),
                ),
                max_size=2,
            ),
            "external_source": st.sampled_from(["ref"]),
        }.items()
    },
)


@FUZZ
@given(doc=st.one_of(st.lists(entry, max_size=2), value(CATALOG_KEYS)))
def test_catalog_file(files, doc):
    path = files / "cat.yaml"
    run_main(path, yaml.safe_dump(doc), "validate", path, "--json")


ROW_KEYS = [
    "algebra", "dim", "components", "component_dims", "labels", "candidates", "alpha",
    "known_discrepancies",
]
row = near(
    {
        "algebra": st.sampled_from(["L1", "L2", "A_alpha", "nope"]),
        "dim": st.integers(0, 3),
        "components": st.integers(0, 3),
        "component_dims": st.lists(st.integers(0, 3), max_size=3),
        "labels": st.lists(st.sampled_from(["solvable", "abelian"]), max_size=2),
        "candidates": st.sampled_from(["table1_L1", "table1_L2", "nope"]),
        "alpha": st.sampled_from([2, "1/2", "x"]),
        "known_discrepancies": st.fixed_dictionaries(
            {},
            optional={
                "dim": value(),
                "components": st.integers(0, 3),
                "component_dims": value(),
                "labels": value(),
            },
        ),
    },
    ROW_KEYS,
)
expectations = near(
    {"profile": st.sampled_from(["bc", "bi1", "zz"]), "rows": st.lists(row, max_size=2)},
    ["profile", "rows"],
)


@FUZZ
@given(doc=st.one_of(expectations, value(["profile", "rows", *ROW_KEYS])))
def test_expectations_file(files, doc):
    path = files / "exp.yaml"
    run_main(path, yaml.safe_dump(doc), "table", "1", "--expect", path, "--json")


MODULE_KEYS = ["matrices"]
module = near(
    {"matrices": st.lists(rows(1, st.sampled_from(["0", "1", "-1", "1/2", "x"])), max_size=4)},
    MODULE_KEYS,
)


@FUZZ
@given(doc=st.one_of(module, value(MODULE_KEYS)))
def test_module_file(files, doc):
    path = files / "module.yaml"
    run_main(
        path, yaml.safe_dump(doc),
        "construct", "module-twist", "L1", "--op", files / "minus_id.yaml", "--module", path,
    )


def test_unreadable_documents_exit_two(files):
    for text in ("a: [", "[" * 3000, "\udcff"):
        path = files / "bad.yaml"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for argv in (
            ["solve", "L1", "bc", "--candidates", path],
            ["classify", "L1", "--op", path],
            ["validate", path],
            ["table", "1", "--expect", path],
            ["construct", "module-twist", "L1", "--op", files / "minus_id.yaml", "--module", path],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([str(a) for a in argv])
            assert code == 2 and "error:" in err.getvalue(), (text[:10], argv)


@pytest.mark.parametrize(
    "command, text",
    [
        ("candidates", "- generators: ['x11']\n  certificate: 5\n"),
        ("candidates", "- generators: 5\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {linear_vars: 5}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {linear_vars: [q]}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {pivot: [1]}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {pivot: q}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {pivot: [x11, q]}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {pivot: [x11], linear_vars: [q]}\n"),
        ("candidates", "- generators: ['x11']\n  certificate: x12\n"),
        ("candidates", "- generators: ['x11']\n  certificate: [q]\n"),
        ("candidates", "- generators: ['x11']\n  certificate: {pivot: x12}\n"),
        ("operator", "rows: [['0','0','0'],['0','0','0'],['0','0','0']]\nparams: [1, 2]\n"),
        ("catalog", "- name: A\n  dim: 1\n  basis: [a]\n  params: 5\n"),
        ("catalog", "- name: A\n  dim: 1\n  basis: [a]\n  params: [{name: t, exclude: 3}]\n"),
        ("catalog", "- name: A\n  dim: 2\n  basis: [a, a]\n"),
        ("catalog", "- name: A\n  dim: 2\n  basis: [a, b]\n  brackets: ['[a,a] = b']\n"),
        ("expectations", "- 1\n- 2\n"),
        ("expectations", "profile: bc\nrows: [5]\n"),
        ("expectations", "profile: bc\n"),
        ("expectations", "entries: [1]\n"),
        ("module", "null\n"),
        ("module", "matrices: [[[1]]]\n"),
    ],
)
def test_malformed_documents_exit_two(files, command, text):
    path = files / "doc.yaml"
    argv = {
        "candidates": ["solve", "L1", "bc", "--candidates", path],
        "operator": ["classify", "L1", "--op", path],
        "catalog": ["validate", path],
        "expectations": ["table", "1", "--expect", path],
        "module": ["construct", "module-twist", "L1", "--op", files / "minus_id.yaml", "--module", path],
    }[command]
    assert run_main(path, text, *argv) == 2
