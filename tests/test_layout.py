"""Package layout rules checked on the source, not by running it."""

import ast
import importlib.util
from pathlib import Path

import pytest

import omegarb

PACKAGE = Path(omegarb.__file__).resolve().parent


def private_sibling_imports(path: Path) -> list[str]:
    """``module.name`` for every underscore-prefixed name ``path`` imports
    from a sibling module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 1 or module.split(".")[0] == "omegarb":
            found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: private_sibling_imports(p) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .poly import PolyParseError, _tokenize\n"
        "from omegarb.ideals import _solve_chain\n"
        "from . import cli\n"
        "from fractions import _gcd\n"
    )
    assert private_sibling_imports(probe) == ["poly._tokenize", "omegarb.ideals._solve_chain"]


# the operator layer is recomputed on every call: `omegarb classify` and
# `omegarb construct` run cold, and so must every repeated call in one
# process.  An algebra or operator is cleared once, when it is built, and
# keeps only that integer form: no cached copy or memo sits beside it, but
# for the one evaluation the constructions share (checked below)
UNCACHED_MODULES = ("algebras.py", "constructions.py", "linalg.py")
CACHE_NAMES = {"lru_cache", "cache", "cached_property"}


def cache_uses(path: Path) -> list[str]:
    """Every import of, or reference to, a caching decorator in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in CACHE_NAMES]
        elif isinstance(node, ast.Name) and node.id in CACHE_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in CACHE_NAMES:
            found.append(node.attr)
    return found


def test_operator_layer_keeps_no_cache():
    offenders = {name: cache_uses(PACKAGE / name) for name in UNCACHED_MODULES}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_the_check_sees_a_cache(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import functools\n"
        "from functools import cached_property, reduce\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def f(x):\n"
        "    return x\n"
        "class A:\n"
        "    @cached_property\n"
        "    def v(self):\n"
        "        return reduce(max, [1])\n"
    )
    assert sorted(cache_uses(probe)) == ["cached_property", "cached_property", "lru_cache"]
    assert cache_uses(PACKAGE / "solver.py")  # generate_system is cached, and seen


# the operator identities are read in one pass over all basis pairs,
# `algebras.operator_identities`: over ints by `algebras.evaluate_operator`,
# once per (algebra, operator), and over polynomials by the solver; the
# constructions take their tables from that pass instead of re-running it,
# and the per-pair helper it replaced is gone
IDENTITY_READERS = {"algebras.py", "solver.py"}


def name_references(path: Path, name: str) -> int:
    """How often ``path`` imports, or refers by name or attribute to, ``name``."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom):
            count += sum(a.name == name for a in node.names)
        elif isinstance(node, ast.Name):
            count += node.id == name
        elif isinstance(node, ast.Attribute):
            count += node.attr == name
    return count


def test_only_the_evaluation_and_the_solver_read_operator_identities():
    readers = {p.name for p in PACKAGE.glob("*.py") if name_references(p, "operator_identities")}
    assert readers == IDENTITY_READERS
    assert not any(name_references(p, "pair_identities") for p in PACKAGE.glob("*.py"))


def test_the_check_sees_a_reference(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""operator_identities in a docstring is no reference."""\n'
        "from .algebras import operator_identities\n"
        "from . import algebras\n"
        "algebras.operator_identities(None, ())\n"
        "operator_identities(None, ())\n"
    )
    assert name_references(probe, "operator_identities") == 3


# an algebra is cleared in one place, `algebras.integral_algebra`, and a
# table reduced in one, `IntegralAlgebra.reduced`; a construction output
# keeps the integer table it was built from, as an algebra does, so no
# construction clears a table, divides one back or takes its content
CLEARING = ("cleared", "lcm_of_denominators")


def test_the_constructions_neither_clear_nor_divide_a_table():
    algebras = PACKAGE / "algebras.py"
    assert {name: set(enclosing_uses(algebras, name)) for name in CLEARING} == {
        name: {"algebras", "algebras.integral_algebra"} for name in CLEARING
    }
    path = PACKAGE / "constructions.py"
    names = ("integral_algebra", "divided", "gcd")
    assert {name: name_references(path, name) for name in names} == dict.fromkeys(names, 0)


# classification and the constructions share one evaluation per
# (algebra, operator, weight): the algebra keeps the last one in an
# attribute that only `algebras.kept_evaluation` reads or writes, so no
# construction keeps evaluation state of its own.  getattr and setattr name
# the attribute by a string, so string constants count as references too
KEPT_EVALUATION = "_kept_evaluation"


def test_only_algebras_keeps_an_evaluation_on_the_algebra():
    def references(path: Path) -> int:
        tree = ast.parse(path.read_text("utf-8"))
        strings = sum(
            isinstance(node, ast.Constant) and node.value == KEPT_EVALUATION
            for node in ast.walk(tree)
        )
        return name_references(path, KEPT_EVALUATION) + strings

    readers = {p.name for p in PACKAGE.glob("*.py") if references(p)}
    assert readers == {"algebras.py"}
    uses = enclosing_uses(PACKAGE / "algebras.py", KEPT_EVALUATION)
    assert set(uses) == {"algebras.kept_evaluation"}


# the benchmark's tracer patches these names by attribute lookup, so a
# deleted or renamed one breaks `perfbench/run.py --trace 1`
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.mark.skipif(not TRACING.exists(), reason="no perfbench/ next to the tests")
def test_every_traced_name_resolves_on_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"omegarb.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


# libyaml crashes the process on deeply nested input, so only the shipped
# data may reach it; every user file goes through the pure loader
C_LOADER = "CSafeLoader"


def enclosing_nodes(path: Path) -> list[tuple[str, ast.AST]]:
    """Every node of ``path`` but the function definitions themselves, in
    source order, with its enclosing function: ``module.function``, or
    ``module`` at top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}")
                continue
            found.append((where, child))
            visit(child, where)

    visit(ast.parse(path.read_text("utf-8")), path.stem)
    return found


def enclosing_uses(path: Path, name: str) -> list[str]:
    """The enclosing function of every import of, reference to, or string
    equal to ``name``."""
    return [
        where
        for where, child in enclosing_nodes(path)
        if (isinstance(child, ast.alias) and child.name == name)
        or (isinstance(child, ast.Name) and child.id == name)
        or (isinstance(child, ast.Attribute) and child.attr == name)
        or (isinstance(child, ast.Constant) and child.value == name)
    ]


def test_only_the_shipped_data_reader_names_the_c_loader():
    uses = [u for p in sorted(PACKAGE.glob("*.py")) for u in enclosing_uses(p, C_LOADER)]
    assert uses == ["catalog.read_builtin_yaml"]


def test_the_check_sees_a_second_c_loader(tmp_path):
    probe = tmp_path / "catalog.py"
    probe.write_text(
        '"""CSafeLoader in a docstring is no use."""\n'
        "import yaml\n"
        "from yaml import CSafeLoader\n"
        "def read_builtin_yaml(text):\n"
        "    return yaml.load(text, Loader=getattr(yaml, 'CSafeLoader', yaml.SafeLoader))\n"
        "def read_yaml(text):\n"
        "    return yaml.load(text, Loader=yaml.CSafeLoader)\n"
    )
    assert enclosing_uses(probe, C_LOADER) == [
        "catalog", "catalog.read_builtin_yaml", "catalog.read_yaml"
    ]


# the Groebner kernel owns its monomial packing: ``MonomialOrder`` keeps
# only its key, and ``groebner._packing`` builds the one packing per (order,
# width) that every kernel call shares
PACKING_NAMES = ("weights", "desc_key")


def call_sites(path: Path, name: str) -> list[str]:
    """The enclosing function, as in ``enclosing_uses``, of every call of
    ``name`` in ``path``."""
    return [
        where
        for where, node in enclosing_nodes(path)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_only_the_kernel_packs_monomials():
    poly = PACKAGE / "poly.py"
    assert [u for name in PACKING_NAMES for u in enclosing_uses(poly, name)] == []
    builders = [u for p in sorted(PACKAGE.glob("*.py")) for u in call_sites(p, "_Packing")]
    assert builders == ["groebner._packing"]


def test_the_check_sees_a_call(tmp_path):
    probe = tmp_path / "groebner.py"
    probe.write_text(
        '"""_Packing(order) in a docstring is no call."""\n'
        "class _Packing:\n"
        "    def wider(self) -> '_Packing':\n"
        "        return _Packing(self.order, 32)\n"
        "def _packing(order: _Packing):\n"
        "    return _Packing(order)\n"
        "P = groebner._Packing(None)\n"
    )
    assert call_sites(probe, "_Packing") == ["groebner.wider", "groebner._packing", "groebner"]


# a basis grows only through ``GroebnerBasis.extend``: ``buchberger`` takes
# generators and an order, nothing more, at every call in the package
def wide_buchberger_calls(path: Path) -> list[str]:
    """The enclosing function, as in ``enclosing_uses``, of every call of
    ``buchberger`` in ``path`` that passes more than ``(gens, order)``: a
    third positional argument, a keyword, or an unpacked argument list."""
    return [
        where
        for where, node in enclosing_nodes(path)
        if isinstance(node, ast.Call)
        and "buchberger" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and (
            len(node.args) > 2
            or node.keywords
            or any(isinstance(a, ast.Starred) for a in node.args)
        )
    ]


def test_buchberger_takes_generators_and_an_order_only():
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in wide_buchberger_calls(p)] == []
    assert call_sites(PACKAGE / "ideals.py", "buchberger")  # the calls are seen


def test_the_check_sees_a_wide_buchberger_call(tmp_path):
    probe = tmp_path / "ideals.py"
    probe.write_text(
        '"""buchberger(gens, order, groebner_prefix=2) in a docstring is no call."""\n'
        "def saturate(gens, order):\n"
        "    return buchberger(gens, order, groebner_prefix=2)\n"
        "def rabinowitsch(gens, order):\n"
        "    return groebner.buchberger(gens, order, 2)\n"
        "def intersect(gens, order):\n"
        "    return buchberger(*gens)\n"
        "def plain(gens, order):\n"
        "    return buchberger(gens, order)\n"
        "G = groebner.buchberger(gens=[], order=None)\n"
    )
    assert wide_buchberger_calls(probe) == [
        "ideals.saturate", "ideals.rabinowitsch", "ideals.intersect", "ideals"
    ]


# a component report is built next to what justifies it: the split whose
# leaves are the components by construction, and the one verifier of
# candidates given from outside, both in ``ideals``
REPORTS = ("CandidateReport", "ComponentReport")


def report_builders(path: Path) -> list[str]:
    """The enclosing function, as in ``enclosing_uses``, of every call of a
    report class in ``path``."""
    return [u for name in REPORTS for u in call_sites(path, name)]


def test_only_ideals_builds_component_reports():
    builders = {p.name for p in PACKAGE.glob("*.py") if report_builders(p)}
    assert builders == {"ideals.py"}


def test_the_check_sees_a_report_built_elsewhere(tmp_path):
    probe = tmp_path / "solver.py"
    probe.write_text(
        '"""ComponentReport(records, True, True) in a docstring is no call."""\n'
        "from .ideals import CandidateReport, ComponentReport\n"
        "def analyze(records):\n"
        "    return ComponentReport(records, True, True)\n"
        "R = ideals.CandidateReport(None, None, True, 'passed', 0)\n"
    )
    assert report_builders(probe) == ["solver", "solver.analyze"]


# tracemalloc counts the objects parked in CPython's free lists, and only a
# full collection empties them: a ``gc`` call in the package would move the
# benchmark's allocation peak without the package holding any less
def gc_imports(path: Path) -> list[str]:
    """The enclosing function, as in ``enclosing_uses``, of every import of
    ``gc`` or of a name from it in ``path``."""
    return [
        where
        for where, node in enclosing_nodes(path)
        if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc" and not node.level)
    ]


def test_no_module_imports_gc():
    assert [u for p in sorted(PACKAGE.glob("*.py")) for u in gc_imports(p)] == []


def test_the_check_sees_a_gc_import(tmp_path):
    probe = tmp_path / "solver.py"
    probe.write_text(
        '"""import gc in a docstring is no import."""\n'
        "import os, gc as collector\n"
        "from . import gc as sibling\n"
        "def analyze():\n"
        "    from gc import collect\n"
        "    collect()\n"
        "import gcd\n"
    )
    assert gc_imports(probe) == ["solver", "solver.analyze"]
