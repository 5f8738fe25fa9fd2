"""Spans around the public functions of the lagdg modules, and the
per-layer metrics computed from them.

``install`` wraps every public function and every public method (plus
``__init__``) of the classes defined in each lagdg module, and the private
row runners of ``scenarios``. Several modules import functions by name,
so each wrapper is also bound under every other module name that held
the original; ``install`` fails if one of the known aliases was not
rebound, so a call cannot bypass its span.

A span is (id, parent id, name, start, end, run id, note). Spans stay in
memory until the workload process writes them out at the end. Spans
started on a worker thread with no open span get the running CLI call as
parent. Self time is a span's duration minus the union of the intervals
its children cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("basis", "quadrature", "advection", "spectrum", "semiinf", "dg",
          "coupled", "diagnostics", "scenarios")

ROW_RUNNERS = ("_validation_row", "_wavetrain_row", "_absorption_row")
PRIVATE = {"scenarios": ROW_RUNNERS + ("_map_rows",)}

# Names through which the row runners reach these functions (several are
# imported by name); each must be rebound.
REQUIRED_ALIASES = frozenset({
    "semiinf.build_rule", "scenarios.build_rule", "advection.build_rule",
    "scenarios.run_simulation", "coupled.rk3_step", "quadrature.laguerre_poly_table",
})

ROOT = "cli.main"

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("basis.laguerre_poly_table.calls", "count", "lower"),
    ("basis.laguerre_poly_table.self_s", "s", "lower"),
    ("quadrature.build_rule.calls", "count", "lower"),
    ("quadrature.build_rule.s", "s", "lower"),
    ("quadrature.build_rule.distinct_ratio", "ratio", "higher"),
    ("quadrature.build_diff_matrix.s", "s", "lower"),
    ("semiinf.LaguerreModalOperator.init_s", "s", "lower"),
    ("semiinf.rhs.calls", "count", "lower"),
    ("semiinf.rhs.self_s", "s", "lower"),
    ("semiinf.rhs.us_per_call", "us", "lower"),
    ("semiinf.project.s", "s", "lower"),
    ("dg.rhs.calls", "count", "lower"),
    ("dg.rhs.coupled_self_s", "s", "lower"),
    ("dg.rhs.reference_self_s", "s", "lower"),
    ("dg.rhs.us_per_call", "us", "lower"),
    ("dg.characteristic_ghost.calls", "count", "lower"),
    ("dg.characteristic_ghost.self_s", "s", "lower"),
    ("dg.project_dg.s", "s", "lower"),
    ("coupled.CoupledModel.rhs.self_s", "s", "lower"),
    ("coupled.rk3_step.calls", "count", "lower"),
    ("coupled.rk3_step.self_s", "s", "lower"),
    ("coupled.rk3_step.ms_p50", "ms", "lower"),
    ("coupled.rk3_step.ms_p99", "ms", "lower"),
    ("coupled.run_simulation.s", "s", "lower"),
    ("coupled.dofs", "count", "higher"),
    ("scenarios.reference_solve_s", "s", "lower"),
    ("scenarios.row_overlap", "ratio", "higher"),
    ("scenarios.write_csv.s", "s", "lower"),
    ("scenarios.write_csv.bytes", "bytes", "lower"),
    ("diagnostics.s", "s", "lower"),
    ("advection.assemble.calls", "count", "lower"),
    ("advection.assemble.s", "s", "lower"),
    ("spectrum.classify.calls", "count", "lower"),
    ("spectrum.eigenvalues.s", "s", "lower"),
    ("spectrum.exact_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder; ``wrap`` returns a recording wrapper."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._root = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, note=None):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else self._root
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, t0, clock(), self.run, "raised"))
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans.append((sid, parent, name, t0, t1, self.run,
                          note(args, kwargs, result) if note else None))
            return result

        return traced

    def call_root(self, fn, *args):
        """Run one CLI call as the root span of a new run id."""
        self.run += 1
        sid = self._root = next(self._ids)
        t0 = time.monotonic()
        try:
            return fn(*args)
        finally:
            self.spans.append((sid, 0, ROOT, t0, time.monotonic(), self.run, None))
            self._root = 0


# --------------------------------------------------------------------------
# notes: small facts recorded with a span, outside its timed interval


def _rule_key(args, kwargs, result):
    return repr((result.node_kind, result.basis_kind, result.beta, result.M))


_RUN_SIMULATION_PARAMS = ("rhs", "y0", "t0", "dt", "n_steps")


def _solve_note(args, kwargs, result):
    bound = dict(zip(_RUN_SIMULATION_PARAMS, args), **kwargs)
    model = getattr(bound["rhs"], "__self__", None)
    return {"model": type(model).__name__ if model is not None else "function",
            "dofs": int(np.size(bound["y0"])), "steps": int(bound["n_steps"])}


def _csv_bytes(args, kwargs, result):
    return (kwargs.get("path") or args[0]).stat().st_size


def _closed_form(args, kwargs, result):
    op = kwargs.get("op", args[0] if args else None)
    return op.exact_eigenvalues is not None


def _triangular(args, kwargs, result):
    A = np.asarray(kwargs.get("A", args[0] if args else None), dtype=float)
    return not np.any(np.triu(A, 1)) or not np.any(np.tril(A, -1))


NOTES = {
    "quadrature.build_rule": _rule_key,
    "coupled.run_simulation": _solve_note,
    "scenarios.write_csv": _csv_bytes,
    "spectrum.classify": _closed_form,
    "spectrum.eigenvalues": _triangular,
}


def install(tracer: Tracer) -> set[str]:
    """Wrap the lagdg modules in place; returns every module.name rebound."""
    modules = {layer: importlib.import_module(f"lagdg.{layer}") for layer in LAYERS}
    modules["cli"] = importlib.import_module("lagdg.cli")
    wrappers = {}  # id(original) -> (original, wrapper)
    rebound = set()

    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                wrapper = tracer.wrap(name, obj, NOTES.get(name))
                wrappers[id(obj)] = (obj, wrapper)
                setattr(mod, attr, wrapper)
                rebound.add(name)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__init__"):
                        setattr(obj, meth, tracer.wrap(f"{layer}.{attr}.{meth}", fn))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                rebound.add(f"{layer}.{attr}")
    # run_scenario looks runners up in the SCENARIOS table, not by name
    scenarios = modules["scenarios"]
    for key, entry in scenarios.SCENARIOS.items():
        scenarios.SCENARIOS[key] = dataclasses.replace(entry, runner=wrappers[id(entry.runner)][1])
    missing = REQUIRED_ALIASES - rebound
    if missing:
        raise RuntimeError(f"tracer did not rebind {sorted(missing)}")
    return rebound


# --------------------------------------------------------------------------
# aggregation


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, t0, t1, *_ in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - union_length(children.get(sid, ()), t0, t1)
            for sid, _parent, _name, t0, t1, *_ in spans}


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(spans, import_s: float) -> dict:
    """Per-layer metric values of one traced sample (overhead excluded)."""
    selfs = self_times(spans)
    names = {s[0]: s[2] for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum((s[4] - s[3] for s in by_name[name]), 0.0)

    def self_sum(name, parent=None):
        return sum((selfs[s[0]] for s in by_name[name]
                    if parent is None or names.get(s[1]) == parent), 0.0)

    def per_call(name, scale):
        return scale * total(name) / calls(name) if calls(name) else 0.0

    def layer_total(prefix):
        return sum((s[4] - s[3] for name, group in by_name.items() if name.startswith(prefix)
                    for s in group if not names.get(s[1], "").startswith(prefix)), 0.0)

    rules = by_name["quadrature.build_rule"]
    solves = by_name["coupled.run_simulation"]
    rows = sum(total(f"scenarios.{r}") for r in ROW_RUNNERS)
    row_map = total("scenarios._map_rows")
    rk3 = sorted(1e3 * (s[4] - s[3]) for s in by_name["coupled.rk3_step"])
    classify = by_name["spectrum.classify"]
    exact = (sum(1 for s in classify if s[6] is True)
             + sum(1 for s in by_name["spectrum.eigenvalues"] if s[6] is True))

    return {
        "cli.import_s": import_s,
        "basis.laguerre_poly_table.calls": calls("basis.laguerre_poly_table"),
        "basis.laguerre_poly_table.self_s": self_sum("basis.laguerre_poly_table"),
        "quadrature.build_rule.calls": len(rules),
        "quadrature.build_rule.s": total("quadrature.build_rule"),
        "quadrature.build_rule.distinct_ratio":
            len({s[6] for s in rules}) / len(rules) if rules else 0.0,
        "quadrature.build_diff_matrix.s": total("quadrature.build_diff_matrix"),
        "semiinf.LaguerreModalOperator.init_s": total("semiinf.LaguerreModalOperator.__init__"),
        "semiinf.rhs.calls": calls("semiinf.LaguerreModalOperator.rhs"),
        "semiinf.rhs.self_s": self_sum("semiinf.LaguerreModalOperator.rhs"),
        "semiinf.rhs.us_per_call": per_call("semiinf.LaguerreModalOperator.rhs", 1e6),
        "semiinf.project.s": total("semiinf.project"),
        "dg.rhs.calls": calls("dg.DGOperator.rhs"),
        "dg.rhs.coupled_self_s": self_sum("dg.DGOperator.rhs", "coupled.CoupledModel.rhs"),
        "dg.rhs.reference_self_s": self_sum("dg.DGOperator.rhs", "scenarios.DGOnlyModel.rhs"),
        "dg.rhs.us_per_call": per_call("dg.DGOperator.rhs", 1e6),
        "dg.characteristic_ghost.calls": calls("dg.characteristic_ghost"),
        "dg.characteristic_ghost.self_s": self_sum("dg.characteristic_ghost"),
        "dg.project_dg.s": total("dg.project_dg"),
        "coupled.CoupledModel.rhs.self_s": self_sum("coupled.CoupledModel.rhs"),
        "coupled.rk3_step.calls": len(rk3),
        "coupled.rk3_step.self_s": self_sum("coupled.rk3_step"),
        "coupled.rk3_step.ms_p50": _percentile(rk3, 50),
        "coupled.rk3_step.ms_p99": _percentile(rk3, 99),
        "coupled.run_simulation.s": total("coupled.run_simulation"),
        "coupled.dofs": sum(s[6]["dofs"] for s in solves),
        "scenarios.reference_solve_s":
            sum((s[4] - s[3] for s in solves if s[6]["model"] == "DGOnlyModel"), 0.0),
        "scenarios.row_overlap": rows / row_map if row_map else 0.0,
        "scenarios.write_csv.s": total("scenarios.write_csv"),
        "scenarios.write_csv.bytes": sum(s[6] for s in by_name["scenarios.write_csv"]),
        "diagnostics.s": layer_total("diagnostics."),
        "advection.assemble.calls": calls("advection.assemble"),
        "advection.assemble.s": total("advection.assemble"),
        "spectrum.classify.calls": len(classify),
        "spectrum.eigenvalues.s": total("spectrum.eigenvalues"),
        "spectrum.exact_ratio": exact / len(classify) if classify else 0.0,
        "trace.spans": len(spans),
    }


def count_errors(spans, expected_solves, expected_spectra: int, expected_assemblies: int) -> list[str]:
    """Exact call counts the traced run must show; returns the mismatches.

    expected_solves lists [model, dofs, steps] of every run_simulation
    call the plan makes, as recorded in the goldens.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
    solves = sorted([n["model"], n["dofs"], n["steps"]] for *_, n in by_name["coupled.run_simulation"])
    errors = []
    if solves != sorted(expected_solves):
        errors.append(f"solves {solves}, expected {sorted(expected_solves)}")
    steps = {model: sum(n for m, _, n in solves if m == model) for model in ("CoupledModel", "DGOnlyModel")}
    expect = {
        "coupled.rk3_step": sum(n for *_, n in solves),
        "dg.DGOperator.rhs": 3 * (steps["CoupledModel"] + steps["DGOnlyModel"]),
        "dg.characteristic_ghost": 3 * (steps["CoupledModel"] + steps["DGOnlyModel"]),
        "semiinf.LaguerreModalOperator.rhs": 3 * steps["CoupledModel"],
        "coupled.CoupledModel.rhs": 3 * steps["CoupledModel"],
        "spectrum.classify": expected_spectra,
        "advection.assemble": expected_assemblies,
    }
    errors += [f"{name}: {len(by_name[name])} calls, expected {n}"
               for name, n in expect.items() if len(by_name[name]) != n]
    raised = sorted({s[2] for s in spans if s[6] == "raised"})
    if raised:
        errors.append(f"spans ended by an exception: {raised}")
    return errors
