"""Run the benchmark over workloads and seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, and
prints for every metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.  With one seed it simply
prints every metric of every workload.  The raw results are written to
`.perfbench_out/spread-<workloads>-<seeds>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="N or N-M")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = seed_range(args.seeds)
    raw, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct {result['correct']},"
                  f" {result['failed']}/{result['attempted']} failed", flush=True)
            runs.append(result)
        raw[workload] = runs
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else 0.0
                extra = f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                if bounds.get(name) is not None:
                    extra += f" bound {bounds[name]} ({spread / bounds[name]:.2f} of it)"
            else:
                extra = ""
            print(f"  {workload} {name}: median {median:.6g} {unit}{extra}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workloads.replace(',', '+')}-{args.seeds}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
