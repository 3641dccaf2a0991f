"""CLI behavior: commands, reports, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import omegarb
from omegarb.catalog import load_builtin_catalog
from omegarb.cli import main, run_table_row

ABELIAN_CATALOG = """
- name: abelian2
  dim: 2
  source: "test fixture"
  basis: [a, b]
  brackets: []
  omega: []
"""


# sha256 of `omegarb table N --json` stdout; any change to a report's bytes
# shows here
TABLE_SHA256 = {
    1: "2f1b0d1858f6a2c0e7ea3f9248f9294952299c6d7bf5d5f3d5197c7c397e84f8",
    2: "4d0d7a4bd3564007b06a9484a0a48ad679aced265547a7587f9b4b26986179a4",
    3: "67efdba1ed8ba6dbb7754fb821066ff47b8e2cb6bddb3f74c66ae8abe555ce77",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_solve_compatible_weight_zero(capsys):
    code, out, _ = run(capsys, "solve", "L1", "bc", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 3
    assert len(data["components"]) == 2
    assert data["decomposition_confirmed"] is True
    assert sorted(c["dim"] for c in data["components"]) == [3, 3]


def test_solve_second_algebra(capsys):
    code, out, _ = run(capsys, "solve", "L2", "bc", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["dim"] == 2
    assert len(data["components"]) == 3


def test_solve_abelian_zero_ideal(tmp_path, capsys):
    cat = tmp_path / "cat.yaml"
    cat.write_text(ABELIAN_CATALOG)
    code, out, _ = run(
        capsys, "solve", "abelian2", "b", "--catalog", str(cat), "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["generators"] == []
    assert data["dim"] == 4  # n^2 for the 2-dimensional algebra


def test_solve_lex_order_output(capsys):
    code, out, _ = run(capsys, "solve", "L1", "bc", "--order", "lex", "--json")
    assert code == 0
    assert json.loads(out)["order"] == "lex"


def test_solve_unknown_algebra(capsys):
    code, _, err = run(capsys, "solve", "nope", "bc")
    assert code == 2
    assert "unknown algebra" in err


def test_unknown_profile_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "L1", "zz"])
    assert exc.value.code == 2


def test_validate_builtin_catalog(tmp_path, capsys):
    from importlib import resources

    text = resources.files("omegarb").joinpath("data/catalog.yaml").read_text("utf-8")
    path = tmp_path / "catalog.yaml"
    path.write_text(text)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert "L1: valid" in out
    assert "B: stub" in out


def test_validate_rejects_identity_violation(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(
        '- name: broken\n  dim: 3\n  basis: [x, y, z]\n'
        '  brackets: ["[x,y] = y", "[y,z] = z"]\n  omega: ["w(x,y) = 2"]\n'
    )
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "REJECTED" in out and "x, y, z" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.yaml")
    assert code == 2


def test_table_one_report(capsys):
    code, out, _ = run(capsys, "table", "1", "--json")
    assert code == 0
    assert sha256(out) == TABLE_SHA256[1]
    data = json.loads(out)
    by_name = {r["algebra"]: r for r in data["rows"]}
    assert by_name["L1"]["status"] == "PASS"
    assert by_name["L1"]["computed"]["dim"] == 3
    assert by_name["L2"]["status"] == "PASS"
    for stub in ("B", "A_alpha", "C_alpha"):
        assert by_name[stub]["status"] == "SKIPPED"
    assert data["summary"]["FAIL"] == 0


def test_table_two_discrepancy(capsys):
    code, out, _ = run(capsys, "table", "2", "--json")
    assert code == 0
    assert sha256(out) == TABLE_SHA256[2]
    data = json.loads(out)
    row = {r["algebra"]: r for r in data["rows"]}["L1"]
    assert row["status"] == "DISCREPANCY"
    assert row["computed"]["dim"] == 2
    assert any("published value 3" in d for d in row["discrepancies"])


def test_table_json_deterministic(capsys):
    _, out1, _ = run(capsys, "table", "1", "--json")
    _, out2, _ = run(capsys, "table", "1", "--json")
    assert out1 == out2


def test_table_runs_serially_without_jobs_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "2", "--jobs", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, first, _ = run(capsys, "table", "2", "--json")
    _, second, _ = run(capsys, "table", "2", "--json")
    assert first == second


def test_table_failure_exit_code(tmp_path, capsys):
    expect = {
        "table": 1,
        "profile": "bc",
        "rows": [{"algebra": "L1", "dim": 99, "components": 2, "candidates": "table1_L1"}],
    }
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(expect))
    code, out, _ = run(capsys, "table", "1", "--expect", str(path), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["rows"][0]["status"] == "FAIL"


KNOWN = "(known internal inconsistency)"


@pytest.mark.parametrize(
    "profile, row, status, message",
    [
        # a known discrepancy for each published field
        ("bc", {"dim": 4, "known_discrepancies": {"dim": 3}}, "DISCREPANCY",
         f"dim: published value 4, computed 3 {KNOWN}"),
        ("bc", {"components": 5, "known_discrepancies": {"components": 2}}, "DISCREPANCY",
         f"components: published value 5, computed 2 {KNOWN}"),
        ("bc", {"component_dims": [2, 3], "known_discrepancies": {"component_dims": [3, 3]}},
         "DISCREPANCY", f"component_dims: published value [2, 3], computed [3, 3] {KNOWN}"),
        ("bs", {"algebra": "L2", "labels": ["nilpotent", "nilpotent"],
                "known_discrepancies": {"labels": ["solvable", "abelian"]}}, "DISCREPANCY",
         f"labels: published ['nilpotent', 'nilpotent'], computed ['abelian', 'solvable'] {KNOWN}"),
        # a mismatch, and a mismatch that is not the recorded one
        ("bc", {"dim": 4}, "FAIL", None),
        ("bc", {"dim": 4, "known_discrepancies": {"dim": 5}}, "FAIL", None),
        ("bc", {"component_dims": [3, 3], "known_discrepancies": {"dim": 4}}, "PASS", None),
        # lists are multisets
        ("bs", {"algebra": "L2", "labels": ["solvable", "abelian"]}, "PASS", None),
        # an absent field is not compared
        ("bc", {}, "PASS", None),
        # labels are computed, and so compared, only on square-zero profiles
        ("bc", {"labels": ["abelian"]}, "PASS", None),
        # an empty list is a published value like any other
        ("bc", {"component_dims": []}, "FAIL", None),
    ],
)
def test_run_table_row_verdict(profile, row, status, message):
    base = {"algebra": "L1", "candidates": "table1_L1"} if profile == "bc" else {"algebra": "L1"}
    row = {**base, **row}
    result = run_table_row(load_builtin_catalog(), profile, row, 1)
    assert result["status"] == status
    assert result["discrepancies"] == ([message] if message else [])
    published = ("dim", "components", "component_dims", "labels")
    assert result["expected"] == {k: row[k] for k in published if k in row}
    if profile != "bs":
        assert "labels" not in result["computed"]


@pytest.mark.parametrize("field, bad", [("dim", "3"), ("components", [2]),
                                        ("component_dims", 3), ("labels", "solvable")])
def test_known_discrepancies_are_shape_checked(tmp_path, capsys, field, bad):
    expect = {"profile": "bc", "rows": [{"algebra": "L1", "known_discrepancies": {field: bad}}]}
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump(expect))
    code, _, err = run(capsys, "table", "1", "--expect", str(path))
    assert code == 2
    assert f"{field!r} has the wrong type" in err


def test_shipped_expectations_are_shape_checked(monkeypatch):
    from omegarb import cli
    from omegarb.catalog import CatalogError

    assert cli._builtin_expectations(3)["profile"] == "bs"
    monkeypatch.setattr(cli, "read_builtin_yaml", lambda relative: {"profile": "bc", "rows": [{}]})
    with pytest.raises(CatalogError, match="expectations/table1.yaml: row #0 needs an 'algebra'"):
        cli._builtin_expectations(1)


def test_table_empty_expectations(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("table: 1\nprofile: bc\nrows: []\n")
    code, out, _ = run(capsys, "table", "1", "--expect", str(path), "--json")
    assert code == 0
    assert json.loads(out)["rows"] == []


def test_table_rejects_an_unknown_profile_naming_the_file(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text("table: 1\nprofile: zz\nrows: [{algebra: L1}]\n")
    code, out, err = run(capsys, "table", "1", "--expect", str(path), "--json")
    assert code == 2 and out == ""
    assert err == f"error: {path}: unknown profile 'zz'; expected one of ['b', 'bc', 'bi1', 'bs']\n"


def test_bad_candidate_generator_names_the_file_and_candidate(tmp_path, capsys):
    path = tmp_path / "cands.yaml"
    path.write_text("- generators: [x12, x13]\n- generators: ['x11 +']\n")
    code, out, err = run(capsys, "solve", "L1", "bc", "--candidates", str(path))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith(f"error: {path}: candidate #1: ")
    assert "found the end of the text at position 5 in 'x11 +'" in err


def test_bad_module_entry_names_the_file_and_matrix(tmp_path, capsys):
    op, module = tmp_path / "op.yaml", tmp_path / "module.yaml"
    op.write_text("rows:\n  - ['0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    zero = "[['0','0'],['0','0']]"
    module.write_text(f"matrices:\n  - {zero}\n  - [['1','0'],['0','q']]\n  - {zero}\n")
    code, out, err = run(capsys, "construct", "module-twist", "L1", "--op", str(op), "--module", str(module))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == f"error: {module}: matrix 2: bad rational literal 'q'\n"


def test_bad_row_alpha_names_the_file_and_row(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text("profile: bs\nrows:\n  - {algebra: L1}\n  - {algebra: Atilde_alpha, alpha: 'zz'}\n")
    code, out, err = run(capsys, "table", "3", "--expect", str(path))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == f"error: {path}: row #1: 'alpha': bad rational literal 'zz'\n"


def test_empty_candidates_file_is_usage_error(tmp_path, capsys):
    # an empty list would leave the variety with no components to verify
    path = tmp_path / "cands.yaml"
    path.write_text("[]\n")
    code, out, err = run(capsys, "solve", "L1", "bc", "--candidates", str(path))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == f"error: {path}: candidates file must be a nonempty YAML list\n"


def test_known_discrepancy_of_an_unpublished_field_is_usage_error(tmp_path, capsys):
    # 'dimension' is not a published field: the row would FAIL with no hint
    path = tmp_path / "exp.yaml"
    path.write_text(
        "profile: bi1\nrows:\n  - {algebra: L1, dim: 4, candidates: table2_L1,"
        " known_discrepancies: {dimension: 3}}\n"
    )
    code, out, err = run(capsys, "table", "2", "--expect", str(path))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err == (
        f"error: {path}: row #0: 'known_discrepancies': 'dimension' is not a published field;"
        " expected one of dim, components, component_dims, labels\n"
    )


def test_construct_left_symmetric(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text(
        "rows:\n  - ['0','0','d']\n  - ['0','0','e']\n  - ['0','0','0']\n"
        "params: {d: 1, e: 1}\n"
    )
    code, out, _ = run(capsys, "construct", "lsa", "L1", "--op", str(op))
    assert code == 0
    assert "x*y = -z" in out and "y*y = -z" in out
    assert "left-symmetric identity holds" in out


def test_construct_homlie_with_series(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','a','b']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, _ = run(
        capsys,
        "construct", "homlie", "L2", "--op", str(op),
        "--param", "a=2", "--param", "b=3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert "[x,y] = -3*z" in data["brackets"]
    assert "[x,z] = 2*z" in data["brackets"]
    assert data["series"]["category"] == "solvable"


def test_construct_deform_zero_operator(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, _ = run(capsys, "construct", "deform", "L1", "--op", str(op), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["algebras"][0]["brackets"] == []
    assert data["algebras"][0]["omega"] == []


def test_construct_precondition_failure_exits_nonzero(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    # weight-0 compatible on L1_2 but squares to a nonzero map
    op.write_text(
        "rows:\n  - ['0','0','0','1']\n  - ['0','0','0','1']\n"
        "  - ['1','1','0','0']\n  - ['0','0','0','0']\n"
    )
    code, _, err = run(capsys, "construct", "homlie", "L1_2", "--op", str(op))
    assert code == 1
    assert "R^2" in err


def test_construct_dimension_mismatch(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0']\n  - ['0','0']\n")
    code, _, err = run(capsys, "construct", "lsa", "L1", "--op", str(op))
    assert code == 2


def test_classify_command(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['-1','0','0']\n  - ['0','-1','0']\n  - ['0','0','-1']\n")
    code, out, _ = run(
        capsys, "classify", "L1", "--op", str(op), "--weight", "1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["rota_baxter"] and data["isometric"] and data["invertible"]
    assert not data["compatible"]


def test_classify_rejects_a_parameter_the_file_does_not_use(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0','d']\n  - ['0','0','0']\n  - ['0','0','0']\nparams: {d: 1}\n")
    for bad, name in (("dd=5", "'dd'"), ("=5", "''")):
        code, out, err = run(
            capsys, "classify", "L1", "--op", str(op), "--weight", "0", "--param", bad, "--json"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and name in err and "Traceback" not in err
    # a declared name, and a name that only an entry reads, are accepted
    code, out, _ = run(capsys, "classify", "L1", "--op", str(op), "--param", "d=5", "--json")
    assert code == 0 and json.loads(out)["rota_baxter"]
    op.write_text("rows:\n  - ['0','0','d']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, _ = run(capsys, "classify", "L1", "--op", str(op), "--param", "d=5", "--json")
    assert code == 0 and json.loads(out)["rota_baxter"]


def test_classify_dimension_mismatch_is_usage_error(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0']\n  - ['0','0']\n")
    code, _, err = run(capsys, "classify", "L1", "--op", str(op))
    assert code == 2
    assert "error:" in err and "2x2" in err
    assert "Traceback" not in err


def test_classify_zero_denominator_is_usage_error(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['1/0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, _, err = run(capsys, "classify", "L1", "--op", str(op))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_classify_entry_that_ends_too_early_is_usage_error(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    for entry in ("1*", ""):
        op.write_text(f"rows:\n  - ['{entry}','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
        code, out, err = run(capsys, "classify", "L1", "--op", str(op))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"found the end of the text at position {len(entry)}" in err
        assert "None" not in err


def test_classify_deeply_nested_entry_is_usage_error(tmp_path, capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    op = tmp_path / "op.yaml"
    op.write_text(f"rows:\n  - ['{deep}','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, _, err = run(capsys, "classify", "L1", "--op", str(op))
    assert code == 2
    assert "error:" in err and "nested too deeply" in err
    assert "Traceback" not in err


def test_classify_huge_exponent_is_usage_error(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['3^1000000000','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, _, err = run(capsys, "classify", "L1", "--op", str(op))
    assert code == 2
    assert "error:" in err and "above the limit" in err
    assert "Traceback" not in err


def test_classify_nested_powers_are_usage_error(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['((2^64)^64)^64','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, _, err = run(capsys, "classify", "L1", "--op", str(op))
    assert code == 2
    assert "error:" in err and "nested exponents multiply to 4096, above the limit 64" in err
    assert "Traceback" not in err


def test_solve_candidates_huge_exponent_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cands.yaml"
    path.write_text("- name: p1\n  generators: [x11^9999999999, x12]\n")
    code, _, err = run(capsys, "solve", "L1", "bc", "--candidates", str(path))
    assert code == 2
    assert "error:" in err and "above the limit" in err
    assert "Traceback" not in err


def test_solve_candidates_divided_power_is_usage_error(tmp_path, capsys):
    # the exponent stops at '/', and '/' is no operator in polynomial text
    path = tmp_path / "cands.yaml"
    path.write_text("- name: p1\n  generators: [x11^1/2, x12]\n")
    code, _, err = run(capsys, "solve", "L1", "bc", "--candidates", str(path))
    assert code == 2
    assert "error:" in err and "unexpected token '/' at position 5" in err
    assert "Traceback" not in err


def test_solve_with_explicit_candidates_file(tmp_path, capsys):
    from importlib import resources

    text = resources.files("omegarb").joinpath(
        "data/candidates/table1_L1.yaml"
    ).read_text("utf-8")
    path = tmp_path / "cands.yaml"
    path.write_text(text)
    code, out, _ = run(
        capsys, "solve", "L1", "bc", "--candidates", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["decomposition_confirmed"] is True


def test_solve_reads_the_candidates_of_the_shipped_row(tmp_path, capsys):
    # table 2 (profile bi1) names table2_L1 for L1
    from importlib import resources

    path = tmp_path / "cands.yaml"
    path.write_text(
        resources.files("omegarb").joinpath("data/candidates/table2_L1.yaml").read_text("utf-8")
    )
    _, shipped, _ = run(capsys, "solve", "L1", "bi1", "--json")
    _, explicit, _ = run(capsys, "solve", "L1", "bi1", "--candidates", str(path), "--json")
    assert shipped == explicit
    assert json.loads(shipped)["heuristic_components"] is False


def _catalog_entry(name: str, like: str) -> str:
    """The shipped catalog entry ``like``, verbatim but for its name."""
    from importlib import resources

    text = resources.files("omegarb").joinpath("data/catalog.yaml").read_text("utf-8")
    start = text.index(f"- name: {like}\n") + len(f"- name: {like}\n")
    return f"- name: {name}\n" + text[start : text.index("\n\n", start)] + "\n"


def test_solve_splits_a_redefined_algebra(tmp_path, capsys):
    # an L1 with L2's relations is L2 under another name: the shipped L1's
    # candidates do not apply, so it is split like any other algebra
    redefined = tmp_path / "redefined.yaml"
    redefined.write_text(_catalog_entry("L1", like="L2"))
    renamed = tmp_path / "renamed.yaml"
    renamed.write_text(_catalog_entry("L2copy", like="L2"))
    _, out, _ = run(capsys, "solve", "L1", "bc", "--catalog", str(redefined), "--json")
    got = json.loads(out)
    _, out, _ = run(capsys, "solve", "L2copy", "bc", "--catalog", str(renamed), "--json")
    want = json.loads(out)
    assert (got["dim"], got["decomposition_confirmed"], got["heuristic_components"]) == (2, True, True)
    assert [c["dim"] for c in got["components"]] == [2, 2, 2]
    assert got["components"] == want["components"]


def test_solve_reads_the_candidates_of_a_verbatim_copy(tmp_path, capsys):
    copy = tmp_path / "copy.yaml"
    copy.write_text(_catalog_entry("L1", like="L1"))
    _, out, _ = run(capsys, "solve", "L1", "bc", "--catalog", str(copy), "--json")
    data = json.loads(out)
    assert data["heuristic_components"] is False
    assert data["decomposition_confirmed"] is True and len(data["components"]) == 2


def test_table_splits_a_redefined_algebra(tmp_path, capsys):
    redefined = tmp_path / "redefined.yaml"
    redefined.write_text(_catalog_entry("L1", like="L2") + "\n" + _catalog_entry("L2", like="L2"))
    _, out, _ = run(capsys, "table", "1", "--catalog", str(redefined), "--json")
    rows = {r["algebra"]: r for r in json.loads(out)["rows"]}
    computed = rows["L1"]["computed"]
    assert (computed["dim"], computed["components"], computed["component_dims"]) == (2, 3, [2, 2, 2])
    assert computed["decomposition_confirmed"] is True
    # L2 is the shipped one, so its row still reads the shipped candidates
    assert rows["L2"]["status"] == "PASS"


def test_candidate_certificate_is_the_inverted_list(tmp_path, capsys):
    # p2 of table1_L1 needs x12 inverted; the old mapping form is refused
    def solve(certificate):
        path = tmp_path / "cands.yaml"
        path.write_text(
            "- generators: [x11, x12, x22, x31, x32, x33]\n"
            "- generators: [x31, x32, x33, x11 + x22, x12*x21 + x22^2,"
            " x12*x23 - x13*x22, x13*x21 + x22*x23]\n"
            f"  certificate: {certificate}\n"
        )
        return run(capsys, "solve", "L1", "bc", "--candidates", str(path), "--json")

    def statuses(certificate):
        code, out, _ = solve(certificate)
        assert code == 0
        return [c["certificate"] for c in json.loads(out)["components"]]

    assert statuses("[x12]") == ["unverified", "passed"]
    assert statuses("[]") == ["unverified", "failed"]
    code, _, err = solve("{pivot: x12}")
    assert code == 2 and "certificate must be a list" in err


def test_solve_parameterized_algebra(capsys):
    code, out, _ = run(capsys, "solve", "Atilde_alpha", "bc", "--alpha=-1/4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == "-1/4"


def test_negative_rationals_may_follow_their_option(tmp_path, capsys):
    # argparse alone reads "-1/4" as an option name and exits 2
    op = tmp_path / "op.yaml"
    op.write_text(PINNED_OPERATORS["displayed"])
    for joined, spaced in (
        (["--alpha=-1/4"], ["--alpha", "-1/4"]),
        (["--alpha=-1/4", "--weight=-1/2"], ["--alpha", "-1/4", "--weight", "-1/2"]),
    ):
        argv = ["classify", "Atilde_alpha", "--op", str(op), "--json"]
        code, out, _ = run(capsys, *argv, *joined)
        assert code == 0
        assert run(capsys, *argv, *spaced) == (0, out, "")
    data = json.loads(out)
    assert data["weight"] == "-1/2"
    code, out, _ = run(capsys, "solve", "Atilde_alpha", "bc", "--alpha", "-1/4", "--json")
    assert code == 0 and json.loads(out)["alpha"] == "-1/4"


def test_rational_options_read_grammar_literals_only(tmp_path, capsys):
    # Fraction() alone reads 1e3 and 1_000, and 1e5000 ended in a traceback
    # when the weight was printed
    op = tmp_path / "op.yaml"
    op.write_text(PINNED_OPERATORS["half"])
    classify = ["classify", "L1", "--op", str(op)]
    for argv in (
        [*classify, "--weight", "1e3"],
        [*classify, "--weight", "1e5000"],
        [*classify, "--weight", "0", "--param", "a=1e3"],
        ["solve", "Atilde_alpha", "bc", "--alpha", "1_000"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "bad rational literal" in err


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int() has no digit limit")
def test_oversized_yaml_integers_are_usage_errors(tmp_path, capsys):
    # PyYAML's int constructor raises ValueError past the str -> int digit limit
    big = "1" * (sys.get_int_max_str_digits() + 1)
    op = tmp_path / "op.yaml"
    op.write_text(f"rows:\n  - [{big}, 0, 0]\n  - [0, 0, 0]\n  - [0, 0, 0]\n")
    catalog = tmp_path / "catalog.yaml"
    catalog.write_text(
        "- name: line\n  dim: 1\n  basis: [a]\n"
        f"  params:\n    - name: t\n      exclude: [{big}]\n"
    )
    for path, argv in ((op, ["classify", "L1", "--op", str(op)]), (catalog, ["validate", str(catalog)])):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{path} holds a value that cannot be read" in err


def test_expectations_name_their_missing_key(tmp_path, capsys):
    path = tmp_path / "expect.yaml"
    for text, key in (("profile: bc\n", "'rows'"), ("rows: [{algebra: L1}]\n", "'profile'")):
        path.write_text(text)
        code, out, err = run(capsys, "table", "1", "--expect", str(path))
        assert code == 2 and out == ""
        assert f"need a {key} entry" in err and "None" not in err


def test_solve_json_deterministic(capsys):
    _, out1, _ = run(capsys, "solve", "L1", "bi1", "--json")
    _, out2, _ = run(capsys, "solve", "L1", "bi1", "--json")
    assert out1 == out2


def test_table_three_full_reproduction(capsys):
    code, out, _ = run(capsys, "table", "3", "--json")
    assert code == 0
    assert sha256(out) == TABLE_SHA256[3]
    data = json.loads(out)
    rows = {r["algebra"]: r for r in data["rows"]}
    assert rows["L1_1"]["status"] == "PASS"
    assert rows["L1_1"]["computed"]["dim"] == 6
    assert rows["L1_1"]["computed"]["decomposition_confirmed"] is True
    assert rows["L1_1"]["notes"] == []
    computed = [r for r in data["rows"] if r["computed"]]
    assert all(r["computed"]["decomposition_confirmed"] for r in computed)
    assert rows["L1_2"]["status"] == "PASS"
    assert rows["L1_2"]["computed"]["dim"] == 5
    assert rows["L1_2"]["computed"]["components"] == 1
    assert rows["L1_8"]["status"] == "PASS"
    assert rows["L1_8"]["computed"]["dim"] == 4
    assert rows["L1_8"]["computed"]["components"] == 3
    assert sorted(rows["L1_8"]["computed"]["labels"]) == [
        "nilpotent", "solvable", "solvable",
    ]
    atilde = rows["Atilde_alpha"]
    assert atilde["status"] == "DISCREPANCY"
    assert atilde["computed"]["dim"] == 3
    assert atilde["computed"]["components"] == 4
    assert data["summary"]["FAIL"] == 0
    skipped = [r["algebra"] for r in data["rows"] if r["status"] == "SKIPPED"]
    assert "L1_3" in skipped and "Ctilde_alpha" in skipped


def test_construct_deform_with_steps(tmp_path, capsys):
    op = tmp_path / "op.yaml"
    op.write_text(
        "rows:\n  - ['-1','1','1']\n  - ['-1','1','1']\n  - ['0','0','0']\n"
    )
    code, out, _ = run(
        capsys, "construct", "deform", "L1", "--op", str(op), "--steps", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["algebras"]) == 2
    assert "[x,y] = -z" in data["algebras"][0]["brackets"]
    assert data["algebras"][1]["brackets"] == []  # R^2 = 0 here


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(omegarb.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "omegarb", "table", "1", "--json"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    code, out, _ = run(capsys, "table", "1", "--json")
    assert proc.returncode == code == 0
    assert proc.stdout == out


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_construct_deform_steps_below_one_is_usage_error(tmp_path, capsys, steps):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, err = run(
        capsys, "construct", "deform", "L1", "--op", str(op), "--steps", steps, "--json"
    )
    assert code == 2 and out == ""
    assert "error:" in err and "--steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("steps", [10**20, "bound + 1"])
def test_construct_deform_steps_above_the_bound_is_usage_error(tmp_path, capsys, monkeypatch, steps):
    """A step count above `MAX_STEPS` exits 2 naming the bound, before the
    operator file is read or any step starts."""
    from omegarb import cli

    def never(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(cli, "iterate_deform", never)
    monkeypatch.setattr(cli, "parse_operator_file", never)
    steps = cli.MAX_STEPS + 1 if steps == "bound + 1" else steps
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, err = run(
        capsys, "construct", "deform", "L1", "--op", str(op), "--steps", str(steps), "--json"
    )
    assert code == 2 and out == ""
    assert "--steps" in err and str(cli.MAX_STEPS) in err and str(steps) in err
    assert "Traceback" not in err


def test_construct_deform_runs_up_to_the_bound(tmp_path, capsys):
    from omegarb.cli import MAX_STEPS

    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['0','0','0']\n  - ['0','0','0']\n  - ['0','0','0']\n")
    code, out, _ = run(
        capsys, "construct", "deform", "L1", "--op", str(op), "--steps", str(MAX_STEPS), "--json"
    )
    assert code == 0
    assert len(json.loads(out)["algebras"]) == MAX_STEPS


ONE_STEP_DEFORM_JSON = """{
  "algebra": "L1",
  "algebras": [
    {
      "basis": [
        "x",
        "y",
        "z"
      ],
      "brackets": [
        "[x,y] = -z",
        "[x,z] = z",
        "[y,z] = z"
      ],
      "dim": 3,
      "name": "L1_deformed_1",
      "omega": []
    }
  ],
  "kind": "deform",
  "validated": true
}
"""


@pytest.mark.parametrize("extra", [[], ["--steps", "1"]])
def test_construct_deform_one_step_output_is_pinned(tmp_path, capsys, extra):
    op = tmp_path / "op.yaml"
    op.write_text("rows:\n  - ['-1','1','1']\n  - ['-1','1','1']\n  - ['0','0','0']\n")
    code, out, _ = run(capsys, "construct", "deform", "L1", "--op", str(op), "--json", *extra)
    assert code == 0
    assert out == ONE_STEP_DEFORM_JSON


# operators with non-integral entries, and the sha256 of the `--json` stdout
# of `omegarb classify|construct` on them
PINNED_OPERATORS = {
    # criterion 10's displayed operator at (a, b, c) = (1/2, -5, 7)
    "displayed": "rows:\n  - ['-1/2', '0', '0', '1/20']\n  - ['-20', '7/2', '7', '-12']\n"
    "  - ['0', '-7/4', '-7/2', '7']\n  - ['-5', '0', '0', '1/2']\n",
    "half": "rows:\n  - ['-1/2', '0', '0']\n  - ['0', '-1/2', '0']\n  - ['0', '0', '-1/2']\n",
    "lsa": "rows:\n  - ['0', '0', '1/2']\n  - ['0', '0', '-2/3']\n  - ['0', '0', '0']\n",
    "homlie": "rows:\n  - ['0', '1/2', '-2/3']\n  - ['0', '0', '0']\n  - ['0', '0', '0']\n",
}
PINNED_OUTPUT_SHA256 = [
    (
        "displayed", ["classify", "Atilde_alpha", "--alpha=-1/4"],
        "8f651c219d1ed5d63b14d8aade9d39d673c6dacad922c44c038c9d4b7569eafb",
    ),
    (
        "half", ["classify", "L1", "--weight", "1/2"],
        "6f08c8b1636356707179dd5ccaa4e78aeabd247fe0892302aac795ce6fac0863",
    ),
    (
        "lsa", ["construct", "lsa", "L1"],
        "618d5a0f7c40814ecef00dd767138bcff04b150d4a6c9cf4d78e4646434696b8",
    ),
    (
        "homlie", ["construct", "homlie", "L2"],
        "bee2125f968b03daba089790e3a81a3a1304457f20746c565324802defa773e7",
    ),
]


@pytest.mark.parametrize(
    "op,argv,digest", PINNED_OUTPUT_SHA256, ids=[op for op, _, _ in PINNED_OUTPUT_SHA256]
)
def test_classify_and_construct_output_is_pinned(tmp_path, capsys, op, argv, digest):
    path = tmp_path / "op.yaml"
    path.write_text(PINNED_OPERATORS[op])
    code, out, _ = run(capsys, *argv, "--op", str(path), "--json")
    assert code == 0
    assert sha256(out) == digest


HEISENBERG_CATALOG = """
- name: heis
  dim: 3
  source: "test fixture"
  basis: [x, y, z]
  brackets:
    - "[x,y] = z"
  omega: []
"""


def test_construct_deform_halt_exits_one_without_traceback(tmp_path, capsys):
    cat = tmp_path / "cat.yaml"
    cat.write_text(HEISENBERG_CATALOG)
    op = tmp_path / "op.yaml"
    # compatible Rota-Baxter on the Heisenberg algebra; R^2 is not one on L_1
    op.write_text("rows:\n  - ['-1','-1','-1']\n  - ['-1','0','0']\n  - ['0','0','1']\n")
    argv = ["construct", "deform", "heis", "--catalog", str(cat), "--op", str(op)]
    code, out, err = run(capsys, *argv, "--steps", "3")
    assert code == 1 and out == ""
    assert "halted at step 2" in err
    assert "Traceback" not in err
    code, _, _ = run(capsys, *argv, "--steps", "1")
    assert code == 0


def test_an_incomplete_split_is_reported(capsys, monkeypatch):
    """With the split depth bound at 0 the unseeded L1 bc variety is kept
    whole; the table row notes it and `solve` prints it.  The JSON keys
    stay as they are."""
    import omegarb.ideals as ideals

    catalog = load_builtin_catalog()
    row = {"algebra": "L1", "dim": 3, "components": 2, "component_dims": [3, 3]}
    complete = run_table_row(catalog, "bc", row, 1)
    assert not any("split incomplete" in n for n in complete["notes"])
    monkeypatch.setattr(ideals, "_SPLIT_DEPTH", 0)
    result = run_table_row(catalog, "bc", row, 1)
    assert any(n.startswith("split incomplete") for n in result["notes"])
    assert result.keys() == complete.keys()
    assert not result["computed"]["decomposition_confirmed"]
    code, out, _ = run(capsys, "solve", "L1", "b")
    assert code == 0 and "\nsplit incomplete" in out
    code, out, _ = run(capsys, "solve", "L1", "b", "--json")
    assert "split incomplete" not in out
