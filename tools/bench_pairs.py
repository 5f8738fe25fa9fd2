#!/usr/bin/env python3
"""Compare two lagdg checkouts on one benchmark workload, or on Tier-1, in
alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs N] [--first-seed F]
    python3 tools/bench_pairs.py PARENT CHANGE --tier1 [--pairs N] [--first-seed F]

Pair i (i = F..F+N-1; N defaults to 10, F to 1) runs ``python3
perfbench/run.py --workload W --seed i --seconds S --trace 0`` once in each
checkout, S being BENCHMARK.json's run_seconds; odd seeds run PARENT first,
even seeds CHANGE first, so a drift of the host's speed does not favour one
side.  A later --first-seed re-checks a claim on seeds not used while the
change was written.
For every end-to-end metric that BENCHMARK.json lists, it prints the
median [q1, q3] of each side and the pairs that CHANGE won, judged by the
metric's "better".  It reads BENCHMARK.json and perfbench/ of its own
checkout and writes nothing of its own; perfbench/run.py keeps its run
records under each checkout's .perfbench_out/.

With --tier1, pair i instead runs Tier-1 (``PYTHONPATH=src python -m pytest
-q --continue-on-collection-errors``, pytest's cache off) once in each
checkout, in the same alternating order, and prints each side's wall time
as median [q1, q3], its pass counts, and the pairs in which CHANGE was
faster.

Exit status 1 when any run fails, is not "correct" or reports failed > 0
(with --tier1: when a Tier-1 run exits non-zero); 2 for bad arguments; 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from run import quartiles  # noqa: E402


def summarize(pairs: list[tuple[dict | None, dict | None]], end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Summary lines of (parent, change) result lines, and whether every run
    was correct.  A result line is perfbench/run.py's last stdout line, or
    None for a run that ended without one."""
    ok = all(r is not None and r["correct"] and r["failed"] == 0 for pair in pairs for r in pair)
    lines = [f"{len(pairs)} pairs; every run correct: {ok}"]
    for metric in end_to_end:
        name = metric["name"]
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
                if p is not None and c is not None and name in p["metrics"] and name in c["metrics"]]
        if not both:
            continue
        sign = 1.0 if metric["better"] == "higher" else -1.0
        won = sum(sign * (c - p) > 0 for p, c in both)
        (p1, pm, p3), (c1, cm, c3) = (quartiles(list(side)) for side in zip(*both))
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): "
                     f"parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
                     f"change/parent {cm / pm:.4f}  change won {won}/{len(both)}")
    return lines, ok


def run_once(checkout: Path, workload: str, seed: int) -> dict | None:
    """perfbench/run.py's result line of one untraced run, or None if it gave none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize_tier1(pairs: list[tuple[dict, dict]]) -> tuple[list[str], bool]:
    """Summary lines of (parent, change) Tier-1 runs, and whether every run
    passed.  A run is {"wall_s", "passed", "ok"}; passed is None when
    pytest printed no count."""
    ok = all(r["ok"] for pair in pairs for r in pair)
    lines = [f"{len(pairs)} pairs; every run passed: {ok}"]
    medians = []
    for label, side in (("parent", 0), ("change", 1)):
        q1, med, q3 = quartiles([pair[side]["wall_s"] for pair in pairs])
        counts = ", ".join(sorted({str(pair[side]["passed"]) for pair in pairs}))
        lines.append(f"{label}: wall_s {med:.4g} [{q1:.4g}, {q3:.4g}]  passed {counts}")
        medians.append(med)
    won = sum(c["wall_s"] < p["wall_s"] for p, c in pairs)
    lines.append(f"change/parent {medians[1] / medians[0]:.4f}  change faster in {won}/{len(pairs)}")
    return lines, ok


def run_tier1(checkout: Path) -> dict:
    """Wall time, pass count and success of one Tier-1 run in checkout."""
    path = os.pathsep.join(filter(None, [str(Path(checkout).resolve() / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider"], cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    wall_s = time.monotonic() - t0
    passed = re.findall(r"(\d+) passed", proc.stdout)   # the last is pytest's summary line
    if proc.returncode != 0:
        print(f"{checkout}: Tier-1 exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr}", file=sys.stderr)
    return {"wall_s": wall_s, "passed": int(passed[-1]) if passed else None, "ok": proc.returncode == 0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--tier1", action="store_true", help="time Tier-1 instead of a workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = range(args.first_seed, args.first_seed + args.pairs)

    pairs = []
    for i, seed in enumerate(seeds, 1):
        result = [None, None]
        for side in ((0, 1) if seed % 2 else (1, 0)):
            checkout = (args.parent, args.change)[side]
            result[side] = run_tier1(checkout) if args.tier1 else run_once(checkout, args.workload, seed)
        pairs.append(tuple(result))
        print(f"pair {i}/{args.pairs} done", file=sys.stderr, flush=True)
    if args.tier1:
        lines, ok = summarize_tier1(pairs)
        print(f"Tier-1, pairs {seeds[0]}..{seeds[-1]}")
        print("\n".join(lines))
        return 0 if ok else 1
    lines, ok = summarize(pairs, BENCHMARK["end_to_end"])
    print(f"workload {args.workload}, seeds {seeds[0]}..{seeds[-1]}, {BENCHMARK['run_seconds']} s per run")
    print("\n".join(lines))
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
