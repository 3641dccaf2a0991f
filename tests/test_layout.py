"""Package layout rules checked on the source, not by running it."""

import ast
from pathlib import Path

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
