"""omegarb benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from its `src/`.  With
`--trace 0` it measures the end-to-end metrics; with `--trace 1` it makes
untraced passes for half of `--seconds`, then traced passes, and reports the
per-layer metrics.  The
last line of standard output is the JSON result; the lines before it record
the environment, a sha256 per cell answer and a readable summary.  Spans of
the last traced pass go to `.perfbench_out/` in the checkout.  README.md next
to this file describes every workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 20


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import omegarb from this checkout, and nowhere else."""
    if not (SRC / "omegarb" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'omegarb'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import omegarb

    if Path(omegarb.__file__).resolve().parent != SRC / "omegarb":
        fail(f"imported omegarb from {omegarb.__file__}, not from {SRC}")


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "loadavg_1m": os.getloadavg()[0], "commit": commit,
    }


def setup_probe() -> float:
    """Wall time of a fresh interpreter that imports the package and loads
    the catalog, expectations and shipped candidates."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "workloads.py"), str(SRC)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


def setup_probes(seconds: float):
    """An after-pass hook that spreads the set-up probes evenly over
    `seconds`, so that a slow phase of the host lasting several seconds
    cannot hold all of them, and the list it fills."""
    times, start = [], time.perf_counter()

    def hook():
        while len(times) < SETUP_PROBES and time.perf_counter() - start >= len(times) * seconds / SETUP_PROBES:
            times.append(setup_probe())

    return hook, times


def setup_seconds(times) -> float:
    """The fastest probe: the set-up work is fixed, so slower probes measure
    the host."""
    while len(times) < SETUP_PROBES:
        times.append(setup_probe())
    return min(times)


# ---------------------------------------------------------------------------
# passes and the checker


def run_pass(cells) -> list[tuple]:
    """(seconds, answer, error) per cell; an exception fails its cell only."""
    out = []
    for cell in cells:
        t0 = time.perf_counter()
        try:
            answer, error = cell.run(), None
        except Exception as exc:
            answer, error = None, f"{type(exc).__name__}: {exc}"
        out.append((time.perf_counter() - t0, answer, error))
    return out


def tally(cells, results, first) -> tuple[int, list[str]]:
    """Failed cells of one pass: errors, reference mismatches, and answers
    that differ from the first pass's."""
    failed, problems = 0, []
    for cell, (_, answer, error), (_, base, _) in zip(cells, results, first):
        bad = [f"raised {error}"] if error is not None else cell.check(answer)
        if error is None and base is not None and answer != base:
            bad.append("differs from the first pass")
        failed += bool(bad)
        problems += [f"{cell.name}: {p}" for p in bad]
    return failed, problems


def self_test() -> None:
    """The checker must count a wrong answer and a raising cell, and pass a
    right one; the oracle must classify the zero operator."""
    import reference
    from workloads import Cell

    good = {"algebra": "L1", "status": "PASS", "computed": {
        "dim": 3, "components": 2, "component_dims": [3, 3], "decomposition_confirmed": True}}
    wrong = dict(good, computed=dict(good["computed"], components=3))

    def boom():
        raise ArithmeticError("deliberate")

    def cell(name, run):
        return Cell(name, name, run, lambda answer: reference.check_cell(1, answer))

    cells = [cell("good", lambda: good), cell("wrong", lambda: wrong), cell("raises", boom)]
    results = run_pass(cells)
    failed, _ = tally(cells, results, results)
    zero = ((0, 0, 0),) * 3
    if failed != 2 or tally(cells[:1], results[:1], results[:1])[0] != 0:
        fail("checker self-test failed: a wrong or raising cell was not counted")
    if reference.oracle_outcome("L1", zero) != (True, True, "accepted", "accepted", "abelian"):
        fail("oracle self-test failed on the zero operator")


def measure(cells, seconds: float, generate_system, before_pass=None, after_pass=None, baseline=None):
    """Cold passes for `seconds`: at least one, and another only while it
    should end in time, judged by the slowest pass so far.  Answers are
    compared with `baseline`, or else with the first pass.  Returns the
    per-pass results, the failed cell count and the problems found."""
    passes, failed, problems = [], 0, []
    generate_system.cache_clear()
    start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        t0 = time.perf_counter()
        if generate_system.cache_info().currsize:
            raise RuntimeError("pass would start with a warm generate_system cache")
        if before_pass:
            before_pass()
        results = run_pass(cells)
        generate_system.cache_clear()
        if after_pass:
            after_pass()
        f, p = tally(cells, results, baseline or (passes[0] if passes else results))
        failed, problems = failed + f, problems + p
        passes.append(results)
        longest = max(longest, time.perf_counter() - t0)
    return passes, failed, problems


def fastest_by_group(cells, passes) -> dict:
    """Each cell at its fastest over the passes, summed per group.  The work
    is deterministic; on a shared host its slower repeats measure the other
    tenants."""
    groups = defaultdict(float)
    for i, cell in enumerate(cells):
        groups[cell.group] += min(p[i][0] for p in passes)
    return groups


def memory_pass(cells, generate_system):
    """One cold pass under tracemalloc, untimed: its results and the peak of
    the memory the cells allocated, in MiB."""
    generate_system.cache_clear()
    tracemalloc.start()
    try:
        results = run_pass(cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        generate_system.cache_clear()
    return results, peak / 2**20


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

PER_LAYER_TIMES = [
    "catalog.load_builtin_catalog", "catalog.instantiate", "poly.parse_polynomial",
    "solver.generate_system", "groebner.buchberger.grevlex", "groebner.buchberger.incremental",
    "groebner.buchberger.lex", "groebner.interreduce", "groebner.reduce",
    "ideals.intersect", "ideals.elimination",
    "ideals.verify_components", "ideals.verify.containment", "ideals.verify.primality",
    "ideals.verify.radical_cover", "ideals.verify.irredundancy", "ideals.radical_membership",
    "ideals.krull_dim", "cli.run_table_row",
    "algebras.classify_map", "algebras.validate_algebra", "constructions.left_symmetric_from_rb",
    "constructions.iterate_deform", "constructions.homlie_from_rb", "constructions.homlie_structure",
]
PER_LAYER_CALLS = [
    "poly.parse_polynomial", "groebner.buchberger", "groebner.reduce",
    "ideals.colon", "ideals.intersect", "ideals.ideal_equal",
    "ideals.radical_membership", "algebras.classify_map", "linalg.rref",
]


def layer_metrics(tracer, cell_roots) -> dict:
    from tracing import LAYERS

    m = {}
    for name in PER_LAYER_TIMES:
        m[f"{name}.s"] = (tracer.total[name], "s")
    for name in PER_LAYER_CALLS:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
    m["groebner.mono_divides.calls"] = (tracer.count("poly.mono_divides"), "count")
    m["poly.leading_monomial.calls"] = (tracer.count("poly.leading_monomial"), "count")
    m["solver.generators"] = (tracer.stats["generators"], "count")
    m["groebner.basis_elements"] = (tracer.stats["basis_elements"], "count")
    m["groebner.max_coeff_bits"] = (tracer.max_coeff_bits, "bits")
    reduced = tracer.calls["groebner.reduce.spair"]
    m["groebner.spair_zero_ratio"] = (tracer.stats["spair_zero"] / reduced if reduced else 0.0, "ratio")
    lookups = tracer.calls["ideals.groebner"]
    m["ideals.groebner_cache_hit_ratio"] = (
        tracer.stats["groebner_cache_hits"] / lookups if lookups else 0.0, "ratio")
    cands = tracer.stats["candidates"]
    m["ideals.certified_ratio"] = (tracer.stats["certified"] / cands if cands else 0.0, "ratio")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in tracer.self_time.items() if k.startswith(layer + ".")), "s")
    m["cell.max_s"] = (max(r.duration for r in cell_roots), "s")
    m["trace.unattributed_share"] = (
        sum(unattributed(r) for r in cell_roots) / sum(r.duration for r in cell_roots), "ratio")
    return m


def unattributed(root) -> float:
    """Time of a cell outside every wrapped call below its entry point: the
    benchmark's own code, and `run_table_row`'s own code with the callees
    that have no wrapper."""
    return root.self_time + root.inside.get("cli.run_table_row", 0.0)


def cell_accounting(cells, cell_roots) -> list[dict]:
    """Per group of cells: traced seconds, unattributed seconds and the self
    time of each layer inside (the entry point's own time excluded)."""
    from tracing import LAYERS

    out = {}
    for cell, r in zip(cells, cell_roots):
        acc = out.setdefault(cell.group, {"group": cell.group, "seconds": 0.0, "unattributed_s": 0.0,
                                          "layer_self_s": dict.fromkeys(LAYERS, 0.0)})
        acc["seconds"] += r.duration
        acc["unattributed_s"] += unattributed(r)
        for k, v in r.inside.items():
            if k != "cli.run_table_row":
                acc["layer_self_s"][k.split(".", 1)[0]] += v
    return list(out.values())


def traced_run(args, cells, generate_system, untraced, seconds: float):
    """Traced passes for `seconds`, after the untraced passes `untraced`:
    each re-runs the set-up steps under a span, then the cells.  Returns
    measure()'s results, the per-layer medians over passes with the tracing
    overhead, and the per-group accounting of the last pass."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    roots, per_pass = [], []

    def traced(cell):
        def run():
            with tracer.root(f"cell:{cell.name}") as root:
                roots.append(root)
                return cell.run()
        return workloads.Cell(cell.name, cell.group, run, cell.check)

    def before_pass():
        tracer.reset()
        roots.clear()
        with tracer.root("setup"):
            workloads.setup()

    def after_pass():
        per_pass.append(layer_metrics(tracer, roots))

    tracer.install()
    try:
        passes, failed, problems = measure(
            [traced(c) for c in cells], seconds, generate_system, before_pass, after_pass, untraced[0])
    finally:
        tracer.uninstall()
    accounting = cell_accounting(cells, roots)
    OUT.mkdir(exist_ok=True)
    t0 = min((s[3] for s in tracer.spans), default=0.0)
    trace = {
        "workload": args.workload, "seed": args.seed, "cells": accounting,
        "spans": [[i, parent, name, a - t0, b - t0] for i, parent, name, a, b in tracer.spans],
    }
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(trace))
    metrics = {
        name: (statistics.median(p[name][0] for p in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    overhead = sum(fastest_by_group(cells, passes).values()) / sum(fastest_by_group(cells, untraced).values())
    metrics["trace.overhead_ratio"] = (overhead - 1, "ratio")
    return passes, failed, problems, metrics, accounting


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from omegarb import solver

    generate_system = solver.generate_system  # the cached original, never a wrapper
    self_test()
    print(json.dumps({"env": environment(args)}))
    cells = workloads.build(args.workload, workloads.setup(), args.seed)

    if args.trace:
        first, failed, problems = measure(cells, args.seconds / 2, generate_system)
        passes, f, p, metrics, accounting = traced_run(args, cells, generate_system, first, args.seconds / 2)
        passes, failed, problems = first + passes, failed + f, problems + p
        for c in accounting:
            layers = ", ".join(f"{k} {v:.3f}" for k, v in c["layer_self_s"].items() if v > 0)
            print(f"group {c['group']}: {c['seconds']:.3f} s traced; self s: {layers};"
                  f" unattributed {c['unattributed_s']:.3f} ({c['unattributed_s'] / c['seconds']:.1%})")
    else:
        memory, alloc_mb = memory_pass(cells, generate_system)
        probe, probe_times = setup_probes(args.seconds)
        passes, failed, problems = measure(cells, args.seconds, generate_system, after_pass=probe)
        f, p = tally(cells, memory, passes[0])
        failed, problems = failed + f, problems + p
        groups = fastest_by_group(cells, passes)
        walls = [sum(r[0] for r in p) for p in passes]
        print(f"pass seconds: min {min(walls):.4g} median {statistics.median(walls):.4g} max {max(walls):.4g}")
        metrics = {
            "setup_s": (setup_seconds(probe_times), "s"),
            "wall_s": (sum(groups.values()), "s"),
            "slowest_cell_s": (max(groups.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_alloc_peak_mb": (alloc_mb, "MB"),
        }
        passes.append(memory)

    attempted = len(cells) * len(passes)
    for cell, (_, answer, _) in zip(cells, passes[0]):
        digest = hashlib.sha256(workloads.canonical(answer).encode()).hexdigest()
        print(f"cell {cell.name}: sha256 {digest}")
    for problem in problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"passes {len(passes)}; error_rate {failed / attempted:.4g} ratio ({failed}/{attempted} failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
