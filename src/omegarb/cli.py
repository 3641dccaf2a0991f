"""Command-line surface: catalog validation, single variety computations,
survey-table reproduction reports, constructions, and operator
classification.

Exit codes: 0 success, 1 when a table report contains FAIL cells (or a
construction hypothesis fails), 2 for usage and parse errors.  The --json
renderings are byte-deterministic for identical inputs: fixed orderings,
fixed sampling seeds, and no timing fields (wall-clock timing appears only
in the human-readable text).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .algebras import OmegaAlgebra, OperatorMatrix, classify_map
from .catalog import (
    CatalogEntry,
    CatalogError,
    load_builtin_catalog,
    parse_catalog,
    parse_operator_file,
    read_builtin_yaml,
    read_yaml,
    algebra_to_catalog_dict,
    format_products,
    serialize_constructed,
)
from .constructions import (
    IterationHalted,
    ModuleAction,
    PreconditionError,
    homlie_from_rb,
    homlie_structure,
    iterate_deform,
    left_symmetric_from_rb,
    module_twist,
    validate_module,
)
from .ideals import (
    EMPTY_VARIETY,
    CertificateError,
    Ideal,
    PrimalityCertificate,
    make_ideal,
    sample_points,
)
from .poly import PolyParseError, VariableTable, grevlex_order, lex_order, parse_polynomial, parse_rational
from .solver import (
    PROFILES,
    ConstraintProfile,
    GenericOperator,
    analyze_variety,
    entry_name,
    profile_by_name,
)

_LABEL_ORDER = {"abelian": 0, "nilpotent": 1, "solvable": 2, "non-solvable": 3}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_catalog(path: Optional[str]) -> dict[str, CatalogEntry]:
    if path is None:
        return load_builtin_catalog()
    return {e.name: e for e in parse_catalog(path)}


def _algebra_for(
    entry: CatalogEntry, alpha: Optional[str]
) -> tuple[OmegaAlgebra, Optional[Fraction]]:
    values = {}
    a = None
    if alpha is not None:
        a = parse_rational(alpha)
        if not entry.params:
            raise UsageError(f"{entry.name} takes no parameter")
        values[entry.params[0].name] = a
    L = entry.instantiate(values or None)
    if entry.params and a is None:
        a = entry.default_param_values()[entry.params[0].name]
    return L, a


def _algebra_arg(args) -> tuple[OmegaAlgebra, Optional[Fraction]]:
    """The algebra named on the command line, from --catalog or the shipped one."""
    entry = _load_catalog(args.catalog).get(args.algebra)
    if entry is None:
        raise UsageError(f"unknown algebra {args.algebra!r}")
    return _algebra_for(entry, args.alpha)


def _candidate_table(dim: int) -> VariableTable:
    return GenericOperator.of_dimension(dim).table


def _parse_candidates_data(data, table: VariableTable, context: str):
    if not isinstance(data, list) or not data:
        raise CatalogError(f"{context}: candidates file must be a nonempty YAML list")
    out = []
    for i, raw in enumerate(data):
        where = f"{context}: candidate #{i}"
        if not isinstance(raw, dict) or not isinstance(raw.get("generators"), list):
            raise CatalogError(f"{where} needs a 'generators' list")
        try:
            gens = [parse_polynomial(str(s), table) for s in raw["generators"]]
        except PolyParseError as exc:
            raise CatalogError(f"{where}: {exc}") from None
        cert = None
        if "certificate" in raw:
            inverted = raw["certificate"]
            if not _has_shape(inverted, [str]) or not set(inverted) <= set(table.names):
                raise CatalogError(
                    f"{where}: certificate must be a list of the entries to invert,"
                    f" among {table.names[0]}..{table.names[-1]}, e.g. [x12] or []"
                )
            cert = PrimalityCertificate(inverted=inverted)
        out.append((make_ideal(table, gens), cert))
    return out


def _load_candidates_file(path: str, table: VariableTable):
    return _parse_candidates_data(read_yaml(path), table, str(path))


def _load_builtin_candidates(name: str, table: VariableTable):
    return _parse_candidates_data(read_builtin_yaml(f"candidates/{name}.yaml"), table, name)


def _has_shape(v, shape) -> bool:
    """``shape`` is a type or a tuple of types, which a bool never matches,
    or ``[shape]`` for a list of such values."""
    if isinstance(shape, list):
        return isinstance(v, list) and all(_has_shape(x, shape[0]) for x in v)
    return isinstance(v, shape) and not isinstance(v, bool)


def _check_fields(mapping: dict, shapes: dict, where: str) -> None:
    for name, shape in shapes.items():
        value = mapping.get(name)
        if value is not None and not _has_shape(value, shape):
            raise CatalogError(f"{where}: {name!r} has the wrong type")


# the published fields of a table row, each with how its discrepancy message
# names the published value
_PUBLISHED = {"dim": "published value", "components": "published value",
              "component_dims": "published value", "labels": "published"}

# the fields of an expectations row that `run_table_row` reads, all optional
_ROW_FIELDS = {"dim": int, "components": int, "component_dims": [int], "labels": [str],
               "candidates": str, "alpha": (int, str), "known_discrepancies": dict}


def _check_expectations(data, where: str) -> dict:
    """``data`` if it has the shape of an expectations document."""
    if not isinstance(data, dict):
        raise CatalogError(f"{where}: expectations must be a mapping with 'profile' and 'rows'")
    for key in ("profile", "rows"):
        if data.get(key) is None:
            raise CatalogError(f"{where}: expectations need a {key!r} entry")
    _check_fields(data, {"profile": str, "rows": [dict]}, where)
    try:
        profile_by_name(data["profile"])
    except KeyError as exc:
        raise CatalogError(f"{where}: {exc.args[0]}") from None
    for i, row in enumerate(data["rows"]):
        at = f"{where}: row #{i}"
        if not _has_shape(row.get("algebra"), str):
            raise CatalogError(f"{at} needs an 'algebra' name")
        _check_fields(row, _ROW_FIELDS, at)
        if row.get("alpha") is not None:
            try:
                parse_rational(str(row["alpha"]))
            except PolyParseError as exc:
                raise CatalogError(f"{at}: 'alpha': {exc}") from None
        known = row.get("known_discrepancies") or {}
        unknown = [k for k in known if k not in _PUBLISHED]
        if unknown:
            raise CatalogError(
                f"{at}: 'known_discrepancies': {unknown[0]!r} is not a published field;"
                f" expected one of {', '.join(_PUBLISHED)}"
            )
        _check_fields(known, {k: _ROW_FIELDS[k] for k in _PUBLISHED}, at)
    return data


def _load_expectations_file(path: str) -> dict:
    return _check_expectations(read_yaml(path), str(path))


def _load_module_file(path: str, dim: int) -> ModuleAction:
    data = read_yaml(path)
    matrices = data.get("matrices") if isinstance(data, dict) else None
    if not _has_shape(matrices, [[list]]):
        raise CatalogError(f"{path}: expected a mapping with 'matrices', a list of row lists")
    values = []
    for k, m in enumerate(matrices, 1):
        try:
            values.append([[parse_rational(str(x)) for x in row] for row in m])
        except PolyParseError as exc:
            raise CatalogError(f"{path}: matrix {k}: {exc}") from None
    try:
        return ModuleAction.from_matrices(dim, values)
    except ValueError as exc:  # a matrix count or shape that does not fit
        raise CatalogError(f"{path}: {exc}") from None


def _builtin_expectations(table_id: int) -> dict:
    relative = f"expectations/table{table_id}.yaml"
    return _check_expectations(read_builtin_yaml(relative), relative)


def _shipped_row(algebra: str, profile_name: str) -> dict:
    """The shipped expectations row for (algebra, profile), or {}."""
    docs = (_builtin_expectations(t) for t in (1, 2, 3))
    rows = (r for doc in docs if doc["profile"] == profile_name for r in doc["rows"])
    return next((r for r in rows if r["algebra"] == algebra), {})


def _row_candidates(row: dict, dim: int):
    """The shipped candidates an expectations row names, or None."""
    name = row.get("candidates")
    return _load_builtin_candidates(name, _candidate_table(dim)) if name else None


def _is_shipped(L: OmegaAlgebra, name: str) -> bool:
    """L is the shipped algebra ``name`` at L's parameters: the one algebra
    that the shipped candidates of ``name`` fit."""
    entry = load_builtin_catalog().get(name)
    try:
        return entry is not None and entry.instantiate(dict(L.params or ())) == L
    except CatalogError:
        return False


# ---------------------------------------------------------------------------
# component labels (Hom-Lie structure per component, sampled)


def component_labels(
    L: OmegaAlgebra,
    component: Ideal,
    cert: Optional[PrimalityCertificate],
    seed: str,
    count: int = 5,
) -> tuple[Optional[str], list[str]]:
    """Qualitative label of the Hom-Lie algebras induced by one component:
    the most general category over sampled rational points, with notes for
    more special loci seen along the way.  (None, notes) when no points can
    be sampled."""
    rng = random.Random(seed)
    try:
        points = sample_points(component, cert, count, rng)
    except CertificateError as exc:
        return None, [f"sampling failed: {exc}"]
    n = L.dim
    seen: set[str] = set()
    for pt in points:
        R = OperatorMatrix(
            [[pt[entry_name(i, j)] for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        g = homlie_from_rb(L, R)
        seen.add(homlie_structure(g).category)
    label = max(seen, key=_LABEL_ORDER.__getitem__)
    notes = []
    special = sorted(seen - {label}, key=_LABEL_ORDER.__getitem__)
    if special:
        notes.append(f"special locus also shows: {', '.join(special)}")
    return label, notes


# ---------------------------------------------------------------------------
# table reports


def _dim_json(d):
    return "empty" if d is EMPTY_VARIETY else d


def _same(got, want) -> bool:
    """Equality, with lists compared as multisets."""
    if isinstance(want, list):
        return isinstance(got, list) and sorted(got, key=str) == sorted(want, key=str)
    return got == want


# split_heuristic keeps a branch whole once it reaches its depth bound
_SPLIT_INCOMPLETE = (
    "split incomplete: a branch at the depth bound was kept whole,"
    " so a candidate may not be irreducible"
)


def run_table_row(
    catalog: dict[str, CatalogEntry],
    profile_name: str,
    row: dict,
    table_id: int,
) -> dict:
    """Compute one row's cell and give it its one verdict.

    Each published field the row gives and the cell computed is compared,
    lists as multisets.  A mismatch equal to the row's
    ``known_discrepancies`` entry for that field is reported as a
    discrepancy; any other mismatch fails the row."""
    name = row["algebra"]
    result = {
        "algebra": name,
        "profile": profile_name,
        "alpha": None,
        "expected": {k: row[k] for k in _PUBLISHED if row.get(k) is not None},
        "computed": {},
        "status": "SKIPPED",
        "notes": [],
        "discrepancies": [],
    }
    entry = catalog.get(name)
    if entry is None:
        result["notes"].append("not in catalog")
        return result
    if not entry.has_definition:
        result["notes"].append(f"no definition shipped (external source: {entry.source})")
        return result
    alpha = row.get("alpha")
    L, a = _algebra_for(entry, str(alpha) if alpha is not None else None)
    result["alpha"] = str(a) if a is not None else None
    profile = profile_by_name(profile_name)
    rep = analyze_variety(L, profile, _row_candidates(row, L.dim))
    computed = result["computed"] = {
        "dim": _dim_json(rep.dim),
        "components": rep.n_components,
        "component_dims": [_dim_json(d) for d in rep.component_dims],
        "gb_size": len(rep.ideal.groebner().elements),
        "decomposition_confirmed": rep.confirmed,
    }
    result["discrepancies"].extend(rep.discrepancy_flags)
    if rep.split is not None and not rep.split.complete:
        result["notes"].append(_SPLIT_INCOMPLETE)
    records = [] if rep.components is None else rep.components.candidates
    unverified = [i for i, c in enumerate(records) if c.certificate_status != "passed"]
    if unverified:
        result["notes"].append(
            "primality unverified for component(s) "
            + ", ".join(str(i + 1) for i in unverified)
            + " (no certificate found)"
        )
    if row.get("labels") is not None and profile.square_zero:
        labels = []
        for idx, c in enumerate(records):
            label, notes = component_labels(
                L, c.ideal, c.certificate, seed=f"table{table_id}:{name}:{idx}"
            )
            labels.append(label if label else "unsampled")
            result["notes"].extend(f"component {idx + 1}: {n}" for n in notes)
        computed["labels"] = labels
    known = row.get("known_discrepancies") or {}
    ok = True
    for field, published in _PUBLISHED.items():
        want, got = row.get(field), computed.get(field)
        if want is None or got is None or _same(got, want):
            continue
        if field in known and _same(got, known[field]):
            result["discrepancies"].append(
                f"{field}: {published} {want}, computed {got} (known internal inconsistency)"
            )
        else:
            ok = False
    if not ok:
        result["status"] = "FAIL"
    elif result["discrepancies"]:
        result["status"] = "DISCREPANCY"
    else:
        result["status"] = "PASS"
    return result


def run_table(
    table_id: int,
    expectations: dict,
    catalog: dict[str, CatalogEntry],
) -> dict:
    profile_name = expectations["profile"]
    results = [run_table_row(catalog, profile_name, row, table_id) for row in expectations["rows"]]
    statuses = [r["status"] for r in results]
    return {
        "table": table_id,
        "profile": profile_name,
        "rows": results,
        "summary": {
            "PASS": statuses.count("PASS"),
            "FAIL": statuses.count("FAIL"),
            "DISCREPANCY": statuses.count("DISCREPANCY"),
            "SKIPPED": statuses.count("SKIPPED"),
        },
    }


# ---------------------------------------------------------------------------
# command implementations


def _emit(report: dict, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def cmd_validate(args) -> int:
    entries = parse_catalog(args.catalog_path)  # a malformed file exits 2 in main
    lines = []
    report = {"entries": [], "ok": True}
    status = 0
    for e in entries:
        if not e.has_definition:
            info = {"name": e.name, "status": "stub", "source": e.source}
            lines.append(f"{e.name}: stub (external source: {e.source})")
        else:
            try:
                e.instantiate()
                info = {"name": e.name, "status": "valid"}
                lines.append(f"{e.name}: valid (dim {e.dim})")
            except CatalogError as exc:
                info = {"name": e.name, "status": "rejected", "error": str(exc)}
                lines.append(f"{e.name}: REJECTED - {exc}")
                report["ok"] = False
                status = 2
        report["entries"].append(info)
    _emit(report, args.json, lines)
    return status


def cmd_solve(args) -> int:
    L, a = _algebra_arg(args)
    profile = profile_by_name(args.profile)
    if args.candidates:
        candidates = _load_candidates_file(args.candidates, _candidate_table(L.dim))
    else:
        row = _shipped_row(args.algebra, args.profile) if _is_shipped(L, args.algebra) else {}
        candidates = _row_candidates(row, L.dim)
    t0 = time.monotonic()
    rep = analyze_variety(L, profile, candidates)
    elapsed = time.monotonic() - t0
    order = (
        lex_order(rep.ideal.table) if args.order == "lex" else grevlex_order(rep.ideal.table)
    )
    gb = rep.ideal.groebner(order)
    records = [] if rep.components is None else rep.components.candidates
    comp = [
        {
            "index": i,
            "dim": _dim_json(c.dim),
            "contains_variety_ideal": c.contains_ideal,
            "certificate": c.certificate_status,
            "generators": sorted(g.to_text(order) for g in c.ideal.generators),
        }
        for i, c in enumerate(records, 1)
    ]
    report = {
        "algebra": args.algebra,
        "alpha": str(a) if a is not None else None,
        "profile": args.profile,
        "order": args.order,
        "generators": sorted(g.to_text(order) for g in rep.ideal.generators),
        "groebner_basis": [g.to_text(order) for g in gb.elements],
        "dim": _dim_json(rep.dim),
        "components": comp,
        "decomposition_confirmed": rep.confirmed,
        "heuristic_components": rep.split is not None,
        "discrepancies": rep.discrepancy_flags,
    }
    lines = [
        f"algebra {args.algebra}" + (f" (alpha = {a})" if a is not None else ""),
        f"profile {args.profile}: {len(rep.ideal.generators)} defining polynomials",
        f"groebner basis ({args.order}): {len(gb.elements)} elements",
    ]
    lines += [f"  {g.to_text(order)}" for g in gb.elements]
    lines.append(f"dim = {report['dim']}")
    lines.append(
        f"components: {rep.n_components}"
        + (" (confirmed)" if rep.confirmed else " (not confirmed)")
    )
    if rep.split is not None and not rep.split.complete:
        lines.append(_SPLIT_INCOMPLETE)
    for c in comp:
        lines.append(
            f"  component {c['index']}: dim {c['dim']}, certificate {c['certificate']}"
        )
        lines += [f"    {g}" for g in c["generators"]]
    lines.append(f"elapsed: {elapsed:.2f}s")
    _emit(report, args.json, lines)
    return 0


def cmd_table(args) -> int:
    catalog = _load_catalog(args.catalog)
    if args.expect:
        expectations = _load_expectations_file(args.expect)
    else:
        expectations = _builtin_expectations(args.table_id)
    for row in expectations["rows"] if args.catalog else ():
        entry, alpha = catalog.get(row["algebra"]), row.get("alpha")
        if "candidates" in row and entry and entry.has_definition:
            L, _ = _algebra_for(entry, None if alpha is None else str(alpha))
            if not _is_shipped(L, entry.name):  # a redefined algebra is split
                del row["candidates"]
    t0 = time.monotonic()
    report = run_table(args.table_id, expectations, catalog)
    elapsed = time.monotonic() - t0
    lines = [f"table {args.table_id} (profile {report['profile']})"]
    for r in report["rows"]:
        extra = f" alpha={r['alpha']}" if r["alpha"] else ""
        lines.append(f"  {r['status']:<12} {r['algebra']}{extra}")
        comp = r["computed"]
        if comp:
            got = (
                f"dim {comp['dim']}, {comp['components']} component(s)"
                f" dims {comp['component_dims']}"
            )
            if "labels" in comp:
                got += f", labels {comp['labels']}"
            lines.append(f"               computed: {got}")
        for d in r["discrepancies"]:
            lines.append(f"               discrepancy: {d}")
        for n in r["notes"]:
            lines.append(f"               note: {n}")
    s = report["summary"]
    lines.append(
        f"summary: {s['PASS']} pass, {s['FAIL']} fail, {s['DISCREPANCY']} discrepancy,"
        f" {s['SKIPPED']} skipped ({elapsed:.1f}s)"
    )
    _emit(report, args.json, lines)
    return 1 if report["summary"]["FAIL"] else 0


def _parse_param_overrides(pairs) -> dict[str, Fraction]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--param expects name=value, got {pair!r}")
        k, v = pair.split("=", 1)
        k = k.strip()
        if k in out:
            raise UsageError(f"--param {k} is given twice")
        out[k] = parse_rational(v)
    return out


def _operator_for(L, args) -> OperatorMatrix:
    """The `--op` operator, which must match the algebra's dimension."""
    R = parse_operator_file(args.op, _parse_param_overrides(args.param))
    if R.dim != L.dim:
        raise UsageError(
            f"operator is {R.dim}x{R.dim} but {args.algebra} has dimension {L.dim}"
        )
    return R


# the most deformation steps `construct deform` runs: each step keeps its
# algebra, and a nilpotent R deforms by the zero operator from some power
# on, which never halts the iteration, so the count alone bounds the memory
MAX_STEPS = 64


def cmd_construct(args) -> int:
    if not 1 <= args.steps <= MAX_STEPS:
        raise UsageError(f"--steps must be between 1 and {MAX_STEPS}, got {args.steps}")
    L, a = _algebra_arg(args)
    R = _operator_for(L, args)
    provenance = [
        f"constructed: {args.kind} from {args.algebra}"
        + (f" (alpha = {a})" if a is not None else ""),
        f"operator file: {args.op}",
    ]
    lines: list[str] = []
    report: dict = {"kind": args.kind, "algebra": args.algebra}
    try:
        if args.kind == "lsa":
            A = left_symmetric_from_rb(L, R)
            pairs = product(range(A.dim), repeat=2)
            payload = {
                "name": f"{args.algebra}_lsa",
                "dim": A.dim,
                "basis": list(A.basis_names),
                "products": format_products(A.basis_names, A.m, pairs, "{}*{}"),
            }
            text = serialize_constructed("left-symmetric", args.algebra, payload, provenance)
            report.update(payload)
            report["validated"] = True
            lines = text.splitlines() + ["validation: left-symmetric identity holds"]
        elif args.kind == "deform":
            steps = iterate_deform(L, R, args.steps)
            outs = []
            for i, Li in enumerate(steps[1:], 1):
                payload = algebra_to_catalog_dict(Li, f"{args.algebra}_deformed_{i}")
                outs.append(payload)
            report["algebras"] = outs
            report["validated"] = True
            text = "".join(
                serialize_constructed("omega-lie", args.algebra, p, provenance)
                for p in outs
            )
            lines = text.splitlines() + ["validation: defining identity holds at every step"]
        elif args.kind == "homlie":
            g = homlie_from_rb(L, R)
            series = homlie_structure(g)
            pairs = combinations(range(g.dim), 2)
            payload = {
                "name": f"{args.algebra}_homlie",
                "dim": g.dim,
                "basis": list(g.basis_names),
                "brackets": format_products(g.basis_names, g.c, pairs, "[{},{}]"),
                "twist_rows": [[str(x) for x in row] for row in g.twist.entries],
            }
            report.update(payload)
            report["series"] = {
                "derived_dims": list(series.derived_dims),
                "lower_central_dims": list(series.lower_central_dims),
                "category": series.category,
                "solvable_length": series.solvable_length,
                "nilpotent_class": series.nilpotent_class,
            }
            report["validated"] = True
            text = serialize_constructed("hom-lie", args.algebra, payload, provenance)
            lines = text.splitlines()
            lines.append("validation: twisted Jacobi identity holds")
            lines.append(
                f"series: derived dims {series.derived_dims},"
                f" lower central dims {series.lower_central_dims} -> {series.category}"
            )
        elif args.kind == "module-twist":
            if not args.module:
                raise UsageError("module-twist requires --module FILE")
            V = _load_module_file(args.module, L.dim)
            check = validate_module(L, V)
            if not check.ok:
                raise UsageError("input module violates the module identity")
            W = module_twist(L, V, R)
            payload = {
                "name": f"{args.algebra}_module_twisted",
                "module_dim": W.module_dim,
                "matrices": [
                    [[str(x) for x in row] for row in m] for m in W.rho
                ],
            }
            report.update(payload)
            report["validated"] = True
            text = serialize_constructed("module", args.algebra, payload, provenance)
            lines = text.splitlines() + ["validation: module identity holds"]
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown construction kind {args.kind!r}")
    except PreconditionError as exc:
        print(f"construction rejected - {exc}", file=sys.stderr)
        return 1
    except IterationHalted as exc:
        print(f"construction halted - {exc}", file=sys.stderr)
        return 1
    _emit(report, args.json, lines)
    return 0


def cmd_classify(args) -> int:
    L, a = _algebra_arg(args)
    R = _operator_for(L, args)
    weight = parse_rational(args.weight)
    cls = classify_map(L, R, weight)
    report = {
        "algebra": args.algebra,
        "weight": str(cls.weight),
        "rota_baxter": cls.is_rb,
        "compatible": cls.is_compatible,
        "isometric": cls.is_isometric,
        "derivation": cls.is_derivation,
        "automorphism": cls.is_automorphism,
        "square_zero": cls.is_square_zero,
        "invertible": cls.is_invertible,
    }
    lines = [f"{k}: {v}" for k, v in report.items()]
    _emit(report, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegarb",
        description="Exact Rota-Baxter operator varieties on omega-Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--catalog", help="catalog file (default: shipped catalog)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("validate", help="validate a catalog file")
    p.add_argument("catalog_path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute one operator variety")
    p.add_argument("algebra")
    p.add_argument("profile", choices=sorted(PROFILES))
    p.add_argument("--alpha", help="parameter value for parameterized families")
    p.add_argument("--candidates", help="component candidates file")
    p.add_argument("--order", choices=["lex", "grevlex"], default="grevlex")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("table", help="reproduce a survey table")
    p.add_argument("table_id", type=int, choices=[1, 2, 3])
    p.add_argument("--expect", help="expectations file (default: shipped)")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="run a construction")
    p.add_argument("kind", choices=["lsa", "deform", "homlie", "module-twist"])
    p.add_argument("algebra")
    p.add_argument("--op", required=True, help="operator file")
    p.add_argument("--param", action="append", help="operator parameter name=value")
    p.add_argument("--alpha", help="algebra parameter value")
    p.add_argument("--steps", type=int, default=1, help="deformation iterations")
    p.add_argument("--module", help="module action file (module-twist)")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("classify", help="classify one operator")
    p.add_argument("algebra")
    p.add_argument("--op", required=True)
    p.add_argument("--weight", default="0")
    p.add_argument("--param", action="append")
    p.add_argument("--alpha")
    common(p)
    p.set_defaults(func=cmd_classify)
    return parser


# options that take a rational: argparse reads a value such as -1/4 as an
# option name, so a negative value is joined to its option first
_RATIONAL_OPTIONS = ("--alpha", "--weight")


def _join_negative_values(argv) -> list:
    """``--alpha -1/4`` as ``--alpha=-1/4``; no option name starts with a
    dash and a digit."""
    out: list = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (UsageError, CatalogError, PolyParseError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
