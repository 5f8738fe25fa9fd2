"""lagdg benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample starts a fresh workload process (child.py) that runs the
workload's seeded CLI calls through ``lagdg.cli.main``, then checks every
output against the goldens. Samples repeat until ``--seconds`` is used up
(at least MIN_SAMPLES untraced ones). With ``--trace 0`` the last stdout
line carries the end-to-end metrics, each stretch of work between two
marks of the workload process timed at its fastest over the samples
(robust_lengths); with ``--trace 1``
untraced and traced samples alternate and it carries the per-layer
metrics of the traced ones and the tracing overhead. The full record of a
run goes to ``.perfbench_out/runs/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # workloads reads the configs with lagdg's parser

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3
# A run must end within 180 s even on a machine too slow for MIN_SAMPLES.
CHILD_TIMEOUT_S = 75
STOP_SAMPLING_AFTER_S = 60

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("dof_steps_per_s", "1/s"),
    ("variants_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)

REQUIRED_FILES = (
    "src/lagdg/__init__.py", "src/lagdg/cli.py",
    "configs/coupling_validation.cfg", "configs/absorption_main.cfg",
    "configs/absorption_beta_sweep.cfg", "configs/wavetrain_15nodes.cfg",
    "configs/wavetrain_30nodes.cfg", "configs/rule_example.cfg", "configs/operator_example.cfg",
)


@dataclass
class Sample:
    traced: bool
    wall_s: float | None = None
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    timeline: tuple | None = None  # untraced: (mark labels, mark times, solves)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(jobs: list[dict], traced: bool, sample_dir: Path) -> tuple[dict | None, float, str]:
    """Run one workload process; returns (its result, launch time, log tail)."""
    sample_dir.mkdir(parents=True)
    plan = {
        "jobs": [{"id": j["id"], "argv": j["argv"] + ["--output", str(sample_dir / j["id"])]}
                 for j in jobs],
        "trace": traced, "src": str(ROOT / "src"), "result": str(sample_dir / "result.json"),
    }
    plan_path = sample_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    log_path = sample_dir / "child.log"
    with open(log_path, "wb") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "child.py"), str(plan_path)],
                                cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result_path = sample_dir / "result.json"
    if rc != 0 or not result_path.exists():
        return None, t_launch, log_path.read_text(errors="replace")[-2000:]
    return json.loads(result_path.read_text()), t_launch, ""


# Stretches of identical work that repeat within a sample: every RK3 step
# of a solve, and the Laguerre table calls of a rule build, keyed by
# (label of the enclosing mark, first mark, last mark).
POOLED = frozenset({("solve>", "step", "step"), ("rule>", "lpt>", "lpt<"), ("rule>", "lpt<", "lpt>")})
INNER = frozenset({"step", "lpt>", "lpt<"})


def robust_lengths(labels: list[str], lengths: np.ndarray) -> np.ndarray:
    """Length of each stretch between consecutive marks, from all samples.

    ``lengths`` is samples x stretches. A stretch gets the shortest of its
    lengths over the samples or, if it belongs to a POOLED group, the
    shortest length in that group over all samples. The host alternates
    between a fast speed and one 1.7-1.9 times slower, in phases of 50 ms
    to seconds, and the share of fast phases in a run ranges from none to
    most: any median or quartile of these bimodal lengths jumps between
    the modes from run to run, while the fastest stays on the fast one.
    """
    out = lengths.min(axis=0)
    pooled, ctx = {}, 0
    for i in range(len(labels) - 1):
        if labels[i] not in INNER:
            ctx = i
        if (labels[ctx], labels[i], labels[i + 1]) in POOLED:
            pooled.setdefault((ctx, labels[i], labels[i + 1]), []).append(i)
    for cols in pooled.values():
        out[cols] = lengths[:, cols].min()
    return out


def end_to_end(jobs: list[dict], labels: list[str], t: np.ndarray, solves: list[dict],
               goldens: dict) -> dict:
    """End-to-end metrics from the times ``t`` of the marks ``labels``
    (t[0] is the launch of the workload process)."""
    calls, rows, solve_spans, open_ = [], [], [], {}
    for i, label in enumerate(labels):
        if label.endswith(">") and label not in INNER:
            open_[label[:-1]] = i
            if label == "row>":
                rows.append({"call": len(calls), "t0": t[i], "first_solve": None})
            elif label == "solve>" and rows and rows[-1]["first_solve"] is None and "row" in open_:
                rows[-1]["first_solve"] = t[i]
        elif label.endswith("<") and label not in INNER:
            start = open_.pop(label[:-1])
            if label == "call<":
                calls.append((t[start], t[i]))
            elif label == "solve<":
                solve_spans.append(t[i] - t[start])
    setup = t[labels.index("call>")] - t[0]  # interpreter start, imports
    for n, (c0, _) in enumerate(calls):
        starts = [r for r in rows if r["call"] == n and r["first_solve"] is not None]
        if starts:
            setup += min(r["t0"] for r in starts) - c0  # config resolution
            setup += sum(r["first_solve"] - r["t0"] for r in starts)  # rules, operators, models, states
    if solves:
        dof_steps = sum(s["dofs"] * s["steps"] for s in solves) / sum(solve_spans)
        variants = len(rows) / sum(c1 - c0 for c0, c1 in calls)
    else:
        # spectra: one assembled operator counts as one step over its dofs
        spectra = [(j, c) for j, c in zip(jobs, calls) if j["check"]["kind"] == "spectrum"]
        busy = sum(c1 - c0 for _, (c0, c1) in spectra)
        dof_steps = sum(goldens[j["check"]["key"]]["n"] for j, _ in spectra) / busy
        variants = len(spectra) / busy
    return {
        "wall_s": t[labels.index("end")] - t[0],
        "setup_s": setup,
        "dof_steps_per_s": dof_steps,
        "variants_per_s": variants,
    }


def run_sample(jobs, traced, sample_dir, goldens) -> Sample:
    sample = Sample(traced)
    try:
        res, t_launch, log = run_child(jobs, traced, sample_dir)
        units = [checks.expected_units(j["check"], goldens) for j in jobs]
        sample.attempted = sum(units)
        if res is None:
            sample.failed = sample.attempted
            sample.messages.append(f"workload process failed:\n{log}")
            return sample
        sample.wall_s = res["t_end"] - t_launch
        for job, call, n in zip(jobs, res["calls"], units):
            outdir = sample_dir / job["id"]
            if call["rc"] != 0:
                sample.failed += n
                sample.messages.append(f"{job['id']}: lagdg exited with {call['rc']}")
                continue
            outcome = checks.check_job(job["check"], outdir, goldens)
            sample.failed += outcome.failed
            sample.messages += outcome.messages
            sample.digests[job["id"]] = (_digest(outdir), n)
        if traced:
            expected_solves = [s for j in jobs if j["check"]["kind"] == "table"
                               for s in goldens[j["check"]["key"]]["solves"]]
            n_spectra = sum(j["check"]["kind"] == "spectrum" for j in jobs)
            n_operators = sum(j["check"]["kind"] == "operator_example" for j in jobs)
            errors = tracer.count_errors(res["spans"], expected_solves, n_spectra, n_spectra + n_operators)
            sample.attempted += 1
            if errors:
                sample.failed += 1
                sample.messages += [f"trace count: {e}" for e in errors]
            sample.metrics = tracer.per_layer(res["spans"], res["import_s"])
        else:
            labels = ["launch"] + res["labels"]
            t = np.array([t_launch] + res["times"])
            sample.timeline = (labels, t, res["solves"])
            sample.metrics = end_to_end(jobs, labels, t, res["solves"], goldens)
            sample.metrics["peak_rss_mib"] = res["maxrss_kib"] / 1024.0
        return sample
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)


def run_metrics(jobs, samples: list[Sample], goldens) -> tuple[dict, list[Sample]]:
    """End-to-end metrics of a run, each stretch of work timed over every
    sample whose marks match the first one's; returns them and those samples."""
    labels, _, solves = samples[0].timeline
    same = [s for s in samples if s.timeline[0] == labels]
    lengths = np.diff(np.stack([s.timeline[1] for s in same]), axis=1)
    t = np.concatenate(([0.0], np.cumsum(robust_lengths(labels, lengths))))
    metrics = end_to_end(jobs, labels, t, solves, goldens)
    metrics["peak_rss_mib"] = statistics.median(s.metrics["peak_rss_mib"] for s in same)
    return metrics, same


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout; do not report an enclosing repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "scipy": importlib.metadata.version("scipy"),
        "git_sha": git_sha(), "src_sha256": src.hexdigest(), "loadavg_at_start": loadavg,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, min_samples: int = MIN_SAMPLES) -> dict:
    """Measure one workload; returns the full record of the run."""
    env = environment()
    jobs = workloads.build(workload, seed, ROOT)
    goldens = checks.load_goldens(workload)
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    rounds_min = 1 if trace else min_samples
    kinds = (False, True) if trace else (False,)

    samples, t_begin = [], time.monotonic()
    while True:
        for traced in kinds:
            samples.append(run_sample(jobs, traced, run_dir / f"sample{len(samples)}", goldens))
        rounds = len(samples) // len(kinds)
        elapsed = time.monotonic() - t_begin
        if rounds >= rounds_min and elapsed * (rounds + 1) / rounds > seconds:
            break
        if elapsed > STOP_SAMPLING_AFTER_S:
            break
    shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    messages = [m for s in samples for m in s.messages]
    first = {}
    for s in samples:
        for job_id, (digest, n) in s.digests.items():
            if first.setdefault(job_id, digest) != digest:
                failed += n
                messages.append(f"{job_id}: output bytes differ between samples "
                                f"({'traced' if s.traced else 'untraced'} sample)")

    measured = [s for s in samples if s.traced == trace and s.metrics]
    if trace:
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        for name, unit in units.items():
            values = {s.metrics[name] for s in measured} if unit == "count" else ()
            if len(values) > 1:
                failed += 1
                messages.append(f"{name} differs between traced samples: {sorted(values)}")
        plain = [s.wall_s for s in samples if not s.traced and s.wall_s is not None]
        if measured and plain:
            traced_wall = statistics.median(s.wall_s for s in measured)
            for s in measured:
                s.metrics["trace.overhead_s"] = traced_wall - statistics.median(plain)
                s.metrics["trace.overhead_ratio"] = traced_wall / statistics.median(plain) - 1.0
    else:
        units = dict(END_TO_END)
        value = {}
        if measured:
            value, timed = run_metrics(jobs, measured, goldens)
            if len(timed) < len(measured):
                messages.append(f"{len(measured) - len(timed)} samples made other calls than the "
                                "first one; they are not timed")

    summary = {}
    for name, unit in units.items():
        if measured and all(name in s.metrics for s in measured):
            q1, med, q3 = quartiles([s.metrics[name] for s in measured])
            # traced: the median sample; untraced: every stretch over all samples (run_metrics)
            summary[name] = {"value": med if trace else value[name], "unit": unit,
                             "sample_median": med, "q1": q1, "q3": q3, "n": len(measured)}
    return {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "environment": env, "jobs": [j["argv"] for j in jobs],
        "samples": [{"traced": s.traced, "wall_s": s.wall_s, "metrics": s.metrics,
                     "attempted": s.attempted, "failed": s.failed} for s in samples],
        "attempted": attempted, "failed": failed, "messages": messages, "summary": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"perfbench: not a lagdg checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for message in record["messages"]:
        print(f"perfbench: {message}", file=sys.stderr)
    names = [m[0] for m in (tracer.PER_LAYER if args.trace else END_TO_END)]
    if sorted(record["summary"]) != sorted(names):
        print("perfbench: no metrics for " + ", ".join(sorted(set(names) - set(record["summary"]))),
              file=sys.stderr)
        return 1
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(record['samples'])} samples")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for name, m in record["summary"].items():
        print(f"# {name:<40} {m['value']:.6g} {m['unit']} (samples: median {m['sample_median']:.6g}, "
              f"q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    print(f"# fail_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.6g}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["summary"].items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated run still kills and reaps its workload process (run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
