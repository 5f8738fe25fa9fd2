"""tools/run_set_diff.py on small hand-made output trees."""

import importlib.util
import json
from pathlib import Path

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
