"""Repeat the benchmark over seeds and summarise the spread of each metric.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out FILE]

Runs ``perfbench/run.py`` as a fresh process once per workload of
BENCHMARK.json and seed 1-10, the way it is meant to be invoked, and
reports for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median over the
seeds. ``--out`` writes the summary as JSON, e.g. the recorded baseline
perfbench/BENCH_1.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        values, failures = {}, 0
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:<11} {name:<16} median {med:<12.6g} spread {(q3 - q1) / med:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        summary["workloads"][workload] = {"seeds": list(SEEDS),
                                          "failed": failures, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
