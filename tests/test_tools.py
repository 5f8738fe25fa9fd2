"""tools/run_set_diff.py on small hand-made output trees, tools/bench_pairs.py
on hand-made results (workload and Tier-1), tools/make_unit_nodes.py --check
on the shipped node table and a corrupted copy, and the benchmark's hooks on
the lagdg modules."""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "run_set_diff", Path(__file__).resolve().parents[1] / "tools" / "run_set_diff.py")
run_set_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_set_diff)


def _tree(root: Path, h: str = "0.125", name: str = "ingoing", extra: bool = False) -> Path:
    (root / "run").mkdir(parents=True)
    (root / "run" / "results.csv").write_text(f"direction,h\n{name},{h}\nother,2.0\n")
    (root / "run" / "summary.json").write_text(json.dumps({"rho": 0.5, "stable": True}))
    if extra:
        (root / "run" / "more.csv").write_text("x\n1\n")
    return root


def test_identical_trees_pass(tmp_path, capsys):
    assert run_set_diff.main([str(_tree(tmp_path / "a")), str(_tree(tmp_path / "b"))]) == 0
    assert "run/results.csv: identical" in capsys.readouterr().out


def test_rounding_level_move_passes_and_is_reported(tmp_path, capsys):
    moved = repr(0.125 + 2.0 ** -50)
    assert run_set_diff.main([str(_tree(tmp_path / "a")), str(_tree(tmp_path / "b", h=moved))]) == 0
    assert "h: max|d| 8.882e-16  max|v| 2.000e+00" in capsys.readouterr().out


@pytest.mark.parametrize("b_kwargs", [
    {"h": "0.1251"},         # moves by 5e-5 of the column's scale
    {"name": "outgoing"},    # a text cell differs
    {"extra": True},         # a file only in one tree
], ids=["moved", "text", "files"])
def test_differences_fail(tmp_path, b_kwargs):
    assert run_set_diff.main([str(_tree(tmp_path / "a")), str(_tree(tmp_path / "b", **b_kwargs))]) == 1


@pytest.mark.parametrize("column, mark, others", [("resid_h", "MOVED (rounding column)", 0), ("h", "MOVED", 1)])
def test_moved_rounding_columns_are_marked_and_others_counted(tmp_path, capsys, column, mark, others):
    # the exit status stays 1; the mark and the count say whether only rounding columns moved
    for side, value in (("a", "0.125"), ("b", "0.1251")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "results.csv").write_text(f"{column},e_en\n{value},1e-28\n")
    assert run_set_diff.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith(f"  {column}: max|d| 1.000e-04") and lines[1].endswith(f"  {mark}")
    assert lines[2] == "  e_en: max|d| 0.000e+00  max|v| 1.000e-28"
    assert lines[-1] == f"{others} moved columns outside the rounding columns"


def test_run_set_runs_every_shipped_config():
    # byte identity of the run set only covers the configs the script runs
    root = Path(__file__).resolve().parents[1]
    script = (root / "tools" / "run_set.sh").read_text()
    shipped = {p.stem for p in (root / "configs").glob("*.cfg")}
    named = set(re.findall(r"^run (\w+)", script, re.M))
    globbed = {p.stem for g in re.findall(r'"\$root"/configs/([\w*]+)\.cfg', script)
               for p in (root / "configs").glob(g + ".cfg")}
    assert globbed, "the spectrum_* loop is gone"
    assert named <= shipped, f"run_set.sh names missing configs {sorted(named - shipped)}"
    assert shipped <= named | globbed, f"run_set.sh skips {sorted(shipped - named - globbed)}"


def test_run_set_calls_every_inspection_command():
    # the flag spelling of the command line is compared byte for byte too
    from lagdg.cli import INSPECTORS

    script = (Path(__file__).resolve().parents[1] / "tools" / "run_set.sh").read_text()
    assert set(re.findall(r"^inspect \w+ (\w+) ", script, re.M)) == set(INSPECTORS)


_pairs_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_pairs_spec)
_pairs_spec.loader.exec_module(bench_pairs)

_END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "dof_steps_per_s", "unit": "1/s", "better": "higher"},
               {"name": "variants_per_s", "unit": "1/s", "better": "higher"}]


def _result(wall_s, rate, failed=0):
    return {"correct": failed == 0, "attempted": 3, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "dof_steps_per_s": {"value": rate, "unit": "1/s"}}}


def test_bench_pairs_summary_counts_wins_by_direction():
    # the change is faster in pairs 1, 2 and 4 and slower in pair 3
    pairs = [(_result(2.0, 1.0), _result(1.0, 2.0)), (_result(3.0, 1.5), _result(2.5, 1.6)),
             (_result(1.0, 2.0), _result(1.5, 1.0)), (_result(4.0, 1.2), _result(2.0, 3.0))]
    lines, ok = bench_pairs.summarize(pairs, _END_TO_END)
    assert ok and lines[0] == "4 pairs; every run correct: True"
    wall, rate = lines[1:]   # variants_per_s is in no result line
    assert wall.startswith("wall_s (s, lower is better): parent 2.5 [1.25, 3.75]  change 1.75 [1.125, 2.375]")
    assert wall.endswith("change won 3/4")
    assert rate.startswith("dof_steps_per_s (1/s, higher is better): parent 1.35 [1.05, 1.875]")
    assert rate.endswith("change won 3/4")


@pytest.mark.parametrize("bad", [None, _result(1.0, 1.0, failed=1), {**_result(1.0, 1.0), "correct": False}],
                         ids=["no-result", "failed", "incorrect"])
def test_bench_pairs_flags_bad_runs(bad):
    lines, ok = bench_pairs.summarize([(_result(2.0, 1.0), _result(1.0, 2.0)), (bad, _result(1.0, 2.0))],
                                      _END_TO_END)
    assert not ok and lines[0] == "2 pairs; every run correct: False"


def test_bench_pairs_runs_consecutive_seeds_in_alternating_order(monkeypatch, capsys):
    calls = []

    def run_once(checkout, workload, seed):
        calls.append((str(checkout), workload, seed))
        return _result(1.0, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["P", "C", "--workload", "w", "--pairs", "3", "--first-seed", "11"]) == 0
    # odd seeds run the parent first, even seeds the change
    assert calls == [("P", "w", 11), ("C", "w", 11), ("C", "w", 12), ("P", "w", 12),
                     ("P", "w", 13), ("C", "w", 13)]
    out = capsys.readouterr().out
    assert out.startswith("workload w, seeds 11..13,") and "3 pairs; every run correct: True" in out


def _tier1(wall_s, passed=683, ok=True):
    return {"wall_s": wall_s, "passed": passed, "ok": ok}


def test_bench_pairs_tier1_summary():
    # the change is faster in pairs 1 and 3; one of its runs has a test more
    pairs = [(_tier1(40.0), _tier1(38.0)), (_tier1(42.0), _tier1(44.0, 684)), (_tier1(50.0), _tier1(41.0))]
    lines, ok = bench_pairs.summarize_tier1(pairs)
    assert ok and lines == [
        "3 pairs; every run passed: True",
        "parent: wall_s 42 [40, 50]  passed 683",
        "change: wall_s 41 [38, 44]  passed 683, 684",
        "change/parent 0.9762  change faster in 2/3",
    ]
    lines, ok = bench_pairs.summarize_tier1(pairs + [(_tier1(40.0, None, ok=False), _tier1(40.0))])
    assert not ok and lines[0] == "4 pairs; every run passed: False" and lines[1].endswith("passed 683, None")


def test_bench_pairs_tier1_alternates_and_fails_on_a_failed_run(monkeypatch, capsys):
    calls = []

    def run_tier1(checkout):
        calls.append(str(checkout))
        return _tier1(1.0, ok=str(checkout) == "P")

    monkeypatch.setattr(bench_pairs, "run_tier1", run_tier1)
    assert bench_pairs.main(["P", "C", "--tier1", "--pairs", "2"]) == 1
    assert calls == ["P", "C", "C", "P"]
    assert "2 pairs; every run passed: False" in capsys.readouterr().out


# The benchmark rebinds lagdg functions by name; a decorator that hides a
# public function from it (an lru_cache on build_rule, say) aborts the run.
_HOOKS = {
    "tracer": "import tracer; tracer.install(tracer.Tracer())",
    "timeline": ("import importlib, child, tracer; "
                 "mods = {m: importlib.import_module('lagdg.' + m) for m in "
                 "('basis', 'quadrature', 'advection', 'semiinf', 'dg', 'coupled', 'scenarios')}; "
                 "child.Timeline([]).install(mods, tracer.ROW_RUNNERS)"),
}


@pytest.mark.parametrize("hook", sorted(_HOOKS))
def test_benchmark_hooks_install_on_lagdg(hook):
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "perfbench"), str(root / "src")])
    proc = subprocess.run([sys.executable, "-c", _HOOKS[hook]], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_make_unit_nodes_check_finds_one_flipped_bit(tmp_path):
    # --check regenerates every rule; a copy of the tool and the package with
    # one node's last bit flipped must fail it, the shipped table must not
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "lagdg", tmp_path / "src" / "lagdg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(root / "tools" / "make_unit_nodes.py", tmp_path / "tools")
    table_path = tmp_path / "src" / "lagdg" / "unit_nodes.npy"
    table = np.load(table_path)
    table.view(np.uint64)[12345] ^= 1
    np.save(table_path, table)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    procs = [subprocess.Popen([sys.executable, str(checkout / "tools" / "make_unit_nodes.py"), "--check"],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
             for checkout in (root, tmp_path)]   # both at once: each takes seconds
    (shipped, _), (flipped, _) = (proc.communicate(timeout=120) for proc in procs)
    assert procs[0].returncode == 0 and shipped.endswith(": identical\n"), shipped
    assert procs[1].returncode == 1, flipped
    assert "entry 12345 is" in flipped and flipped.endswith(": 1 differences\n")


_mutants_spec = importlib.util.spec_from_file_location(
    "_lagdg_tools_mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py")
mutants = sys.modules["_lagdg_tools_mutants"] = importlib.util.module_from_spec(_mutants_spec)  # dataclasses look it up
_mutants_spec.loader.exec_module(mutants)


def test_mutant_anchors_occur_once():
    # the full run (tools/mutants.py) takes minutes; Tier-1 only keeps its
    # list from rotting: every old text is still there, exactly once
    root = Path(__file__).resolve().parents[1]
    assert mutants.anchor_problems(root) == []
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(m.tests and all(t.startswith("tests/") for t in m.tests) for m in mutants.MUTANTS)


def test_mutant_anchor_problems_are_reported(tmp_path):
    (tmp_path / "f.py").write_text("a = 1\na = 1\nb = 2\n")
    cases = [mutants.Mutant("twice", "f.py", "a = 1", "a = 2", ("tests/x.py",)),
             mutants.Mutant("absent", "f.py", "c = 3", "c = 4", ("tests/x.py",)),
             mutants.Mutant("same", "f.py", "b = 2", "b = 2", ("tests/x.py",)),
             mutants.Mutant("ok", "f.py", "b = 2", "b = 3", ("tests/x.py",)),
             mutants.Mutant("no-file", "g.py", "b = 2", "b = 3", ("tests/x.py",))]
    problems = mutants.anchor_problems(tmp_path, cases)
    assert [p.split(":")[0] for p in problems] == ["twice", "absent", "same", "no-file"]
