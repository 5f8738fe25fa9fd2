"""Capture the goldens the benchmark checks outputs against.

Usage (from the repository root): python3 perfbench/make_goldens.py [WORKLOAD ...]

Runs every golden job of each workload (workloads.golden_jobs: all the
choices a seed can draw, at scale 1) once, untraced, in a workload
process, and writes perfbench/goldens/<workload>.json (and .npz for
arrays). Run it on the commit whose outputs define "correct"; the
shipped goldens come from the seed commit of the benchmark.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import checks
import run
import workloads


def capture(workload: str) -> None:
    jobs = workloads.golden_jobs(workload, run.ROOT)
    sample_dir = run.OUT / f"goldens-{workload}"
    shutil.rmtree(sample_dir, ignore_errors=True)
    res, _, log = run.run_child(jobs, False, sample_dir)
    if res is None:
        raise SystemExit(f"golden run of {workload} failed:\n{log}")
    goldens, arrays = {}, {}
    for i, (job, call) in enumerate(zip(jobs, res["calls"])):
        if call["rc"] != 0:
            raise SystemExit(f"golden job {job['id']} exited with {call['rc']}")
        outdir, check = sample_dir / job["id"], job["check"]
        if check["kind"] == "table":
            header, rows = checks.read_csv(outdir / "results.csv")
            solves = [[s["model"], s["dofs"], s["steps"]] for s in res["solves"] if s["call"] == i]
            goldens[check["key"]] = {"header": header, "rows": rows, "solves": solves}
            if check.get("snapshot"):
                (snapshot,) = outdir.glob("snapshot_*.csv")
                arrays[check["key"]] = np.array(checks.read_csv(snapshot)[1])
        elif check["kind"] == "spectrum":
            summary = json.loads((outdir / "summary.json").read_text())
            _, rows = checks.read_csv(outdir / "eigenvalues.csv")
            arrays[check["key"]] = np.array([complex(re, im) for re, im in rows])
            goldens[check["key"]] = {**summary, "n": len(rows)}
        else:
            for name in checks.ARRAY_FILES[check["kind"]]:
                arrays[f"{check['kind']}/{name}"] = np.array(checks.read_csv(outdir / name)[1])
    shutil.rmtree(sample_dir, ignore_errors=True)
    checks.GOLDEN_DIR.mkdir(exist_ok=True)
    (checks.GOLDEN_DIR / f"{workload}.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    if arrays:
        np.savez_compressed(checks.GOLDEN_DIR / f"{workload}.npz", **arrays)
    print(f"{workload}: {len(goldens)} golden entries, {len(arrays)} arrays")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        capture(name)
