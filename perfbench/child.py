"""Workload process: runs the planned ``lagdg`` CLI calls, then writes the
timings it took to a JSON file.

Usage: python3 perfbench/child.py PLAN.json

The plan lists CLI argument vectors (each with its ``--output``), whether
to trace, the ``src`` directory lagdg must be imported from, and where to
write the result. Untraced, the process keeps a timeline of labelled
marks (see Timeline); traced, every public lagdg function records a span
(see tracer.py).
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import sys  # noqa: E402


class ImportMarks:
    """Import hook that notes when each module starts to import, so that
    the import time splits into short stretches (see Timeline)."""

    def __init__(self):
        self.times = []

    def find_spec(self, name, path=None, target=None):
        self.times.append(time.monotonic())
        return None  # leave the import to the other finders


IMPORTS = ImportMarks()
sys.meta_path.insert(0, IMPORTS)

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


class Timeline:
    """Labelled timestamps of one untraced workload process.

    Marks the start of the process and of every module import before
    the first call, the start and end of every CLI call, scenario row, time-stepping solve and quadrature rule build, the entry of every
    RK3 step, and the entry and exit of every ``laguerre_poly_table`` call
    (the inner loop of a rule build). The calls are deterministic, so the
    marks of two samples line up one to one; run.py times each stretch of
    work between two marks over all samples of a run.
    """

    # marked function -> the lagdg modules through which it is reached; the
    # first defines it, the others import it by name
    ALIASES = {
        "rk3_step": ("coupled",),
        "run_simulation": ("coupled", "scenarios"),
        "build_rule": ("quadrature", "semiinf", "scenarios", "advection"),
        "laguerre_poly_table": ("basis", "quadrature"),
    }

    def __init__(self, import_times):
        self.labels = ["start"] + ["import"] * len(import_times)
        self.times = [T_START] + import_times
        self.solves = []

    def mark(self, label: str) -> None:
        self.labels.append(label)
        self.times.append(time.monotonic())

    def install(self, lagdg_modules: dict, row_runners) -> None:
        scenarios = lagdg_modules["scenarios"]
        for name in row_runners:
            setattr(scenarios, name, self._span("row", getattr(scenarios, name)))
        wrappers = {
            "rk3_step": self._step,
            "run_simulation": self._solve,
            "build_rule": lambda fn: self._span("rule", fn),
            "laguerre_poly_table": lambda fn: self._span("lpt", fn),
        }
        for name, modules in self.ALIASES.items():
            original = getattr(lagdg_modules[modules[0]], name)
            wrapper = wrappers[name](original)
            rebound = set()
            for mod_name, mod in lagdg_modules.items():
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapper)
                    rebound.add(mod_name)
            if not rebound >= set(modules):
                raise RuntimeError(f"{name} not rebound in {sorted(set(modules) - rebound)}")

    def _span(self, label: str, fn):
        enter, leave, mark = label + ">", label + "<", self.mark

        def timed(*args, **kwargs):
            mark(enter)
            try:
                return fn(*args, **kwargs)
            finally:
                mark(leave)
        return timed

    def _step(self, fn):
        labels, times, clock = self.labels, self.times, time.monotonic

        def timed(*args, **kwargs):
            labels.append("step")
            times.append(clock())
            return fn(*args, **kwargs)
        return timed

    def _solve(self, fn):
        timed_span = self._span("solve", fn)

        def timed(rhs, y0, *args, **kwargs):
            n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
            model = getattr(rhs, "__self__", None)
            self.solves.append({"dofs": len(y0), "steps": int(n_steps),
                                "model": type(model).__name__ if model is not None else "function"})
            return timed_span(rhs, y0, *args, **kwargs)
        return timed


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    t0 = time.monotonic()
    from lagdg import cli
    modules = {name: importlib.import_module(f"lagdg.{name}")
               for name in ("basis", "quadrature", "advection", "semiinf", "dg", "coupled",
                            "scenarios")}
    import_s = time.monotonic() - t0
    src = Path(plan["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"lagdg was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1

    import tracer as tracing

    sys.meta_path.remove(IMPORTS)
    tracer = timeline = None
    if plan["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        timeline = Timeline(IMPORTS.times)
        timeline.install(modules, tracing.ROW_RUNNERS)
        timeline.mark("imported")

    calls = []
    for job in plan["jobs"]:
        t0 = time.monotonic()
        if tracer is not None:
            rc = tracer.call_root(cli.main, job["argv"])
        else:
            timeline.mark("call>")
            rc = cli.main(job["argv"])
            timeline.mark("call<")
        calls.append({"id": job["id"], "rc": rc, "t0": t0, "t1": time.monotonic()})
    t_end = time.monotonic()

    result = {
        "t_start": T_START, "t_end": t_end, "import_s": import_s, "calls": calls,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    if timeline is not None:
        timeline.mark("end")
        result.update(labels=timeline.labels, times=timeline.times, solves=timeline.solves)
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
