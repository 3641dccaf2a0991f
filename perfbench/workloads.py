"""Set-up and workload definitions, driving the package's public entry points.

Table cells call `cli.run_table_row`, the function `omegarb table` runs for
each row.  The constructions workload calls the `algebras` and
`constructions` functions that `omegarb classify` and `omegarb construct`
run.  A cell is one checked item: a table row, or one operator.  A group
is a table row, or the operators sampled from one component.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

import reference

# Cells stay short: the host's speed alternates between a fast and a
# half-speed mode in phases of 0.05 s at the median, so only a short cell has
# a steady fastest time (see README.md).  Many small 9-variable systems, with
# their shipped candidates: fixed per-call costs dominate.
TABLE_CELLS = {"tables12-small": [(1, "L1"), (1, "L2"), (2, "L1"), (2, "L2")]}

# certified components the constructions workload samples operators from
CONSTRUCTION_SOURCES = (
    ("L1", "table1_L1"), ("L2", "table1_L2"), ("L1_2", "table3_L1_2"), ("L1_8", "table3_L1_8"),
)
OPERATORS_PER_COMPONENT = 10
DEFORM_STEPS = 2

WORKLOADS = tuple(TABLE_CELLS) + ("constructions",)


@dataclass
class Setup:
    catalog: dict
    expectations: dict  # table id -> shipped expectation document
    candidates: dict  # candidate file name -> [(Ideal, certificate)]


def setup() -> Setup:
    """What every `omegarb` invocation pays before its first cell: the
    package import, the catalog, the expectations and the shipped candidates."""
    from omegarb import catalog as catalog_mod
    from omegarb import cli

    catalog = catalog_mod.load_builtin_catalog()
    expectations = {t: cli._builtin_expectations(t) for t in (1, 2, 3)}
    candidates = {}
    for doc in expectations.values():
        for row in doc["rows"]:
            name = row.get("candidates")
            if name:
                dim = catalog[row["algebra"]].dim
                candidates[name] = cli._load_builtin_candidates(name, cli._candidate_table(dim))
    return Setup(catalog, expectations, candidates)


@dataclass
class Cell:
    name: str
    group: str
    run: Callable[[], object]  # -> answer
    check: Callable[[object], list]  # answer -> problems, empty when correct


def canonical(answer) -> str:
    """The byte form the benchmark hashes and compares between passes."""
    return json.dumps(answer, sort_keys=True, indent=2, default=str)


def _table_cell(env: Setup, table_id: int, algebra: str) -> Cell:
    from omegarb import cli

    doc = env.expectations[table_id]
    row = next(r for r in doc["rows"] if r["algebra"] == algebra)

    def run():
        return cli.run_table_row(env.catalog, doc["profile"], row, table_id)

    name = f"table{table_id}/{algebra}"
    return Cell(name, name, run, lambda answer: reference.check_cell(table_id, answer))


def operator_outcome(L, R) -> list:
    """One operator through classify, LSA, iterated deformation and Hom-Lie,
    in the order and form of `reference.oracle_outcome`."""
    from omegarb import algebras, constructions

    cls = algebras.classify_map(L, R, 0)
    try:
        constructions.left_symmetric_from_rb(L, R)
        lsa = "accepted"
    except constructions.PreconditionError:
        lsa = "rejected"
    try:
        constructions.iterate_deform(L, R, DEFORM_STEPS)
        deform = "accepted"
    except constructions.PreconditionError:
        deform = "rejected"
    except constructions.IterationHalted as exc:
        deform = f"halted at {exc.step}"
    try:
        homlie = constructions.homlie_structure(constructions.homlie_from_rb(L, R)).category
    except constructions.PreconditionError:
        homlie = "rejected"
    return [cls.is_rb and cls.is_compatible, cls.is_square_zero, lsa, deform, homlie]


def _construction_cells(env: Setup, seed: int) -> list[Cell]:
    from omegarb import algebras, ideals, solver

    rng = random.Random(seed)
    cells = []
    for algebra, source in CONSTRUCTION_SOURCES:
        entry = env.catalog[algebra]
        n = entry.dim
        for k, (component, cert) in enumerate(env.candidates[source], 1):
            points = ideals.sample_points(component, cert, OPERATORS_PER_COMPONENT, rng)
            rows = [
                tuple(tuple(p[solver.entry_name(i, j)] for j in range(1, n + 1)) for i in range(1, n + 1))
                for p in points
            ]
            for i, r in enumerate(rows):
                def run(entry=entry, R=algebras.OperatorMatrix(r)):
                    return operator_outcome(entry.instantiate(), R)

                def check(answer, want=list(reference.oracle_outcome(algebra, r))):
                    return [] if answer == want else [f"got {answer}, oracle {want}"]

                cells.append(Cell(f"{source}/p{k}/op{i}", f"{source}/p{k}", run, check))
    return cells


def build(name: str, env: Setup, seed: int) -> list[Cell]:
    """The workload's cells; the seed picks the sampled operators, and the
    table cells are fixed inputs."""
    if name == "constructions":
        return _construction_cells(env, seed)
    return [_table_cell(env, t, a) for t, a in TABLE_CELLS[name]]


if __name__ == "__main__":
    # set-up probe: `python3 perfbench/workloads.py SRC_DIR` pays set-up once
    sys.path.insert(0, sys.argv[1])
    setup()
