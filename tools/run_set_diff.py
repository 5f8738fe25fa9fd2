#!/usr/bin/env python3
"""Summarize how far two tools/run_set.sh output trees differ.

    python3 tools/run_set_diff.py A B

For every file of the two trees it prints, per numeric column, the largest
|B - A| and the column's scale, its largest |value| in either tree.  A
column of a CSV file is a header field; a column of a JSON file is a
top-level key, holding every number under it.  A byte-identical file is
reported on one line; a differing file that is neither CSV nor JSON
counts as a difference.  Cells that are not finite numbers (strings,
booleans, null, nan, inf) must match as text.

A moved column that the benchmark also compares with an absolute
tolerance (ROUNDING_COLUMNS in perfbench/workloads.py: the columns at
rounding level and the error columns) is marked "MOVED (rounding column)",
and the last line counts the moved columns outside that set.

Exit status 1 when the trees hold different sets of files, when a
non-numeric cell or a file's shape differs, or when a column moves by
more than RTOL times its own scale; 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import ROUNDING_COLUMNS  # noqa: E402

RTOL = 1e-10


def _number(cell):
    """float value of a numeric cell, else None."""
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell)
        except ValueError:
            return None
    return None


def _leaves(value):
    """Scalars under a JSON value, in document order."""
    if isinstance(value, dict):
        return [leaf for k in sorted(value) for leaf in _leaves(value[k])]
    if isinstance(value, list):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _columns(path: Path) -> dict[str, list]:
    """Column name -> cells, in file order."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        return {k: _leaves(v) for k, v in (data if isinstance(data, dict) else {"": data}).items()}
    if path.suffix != ".csv":
        raise ValueError("neither CSV nor JSON")
    rows = list(csv.reader(path.read_text().splitlines()))
    header, body = rows[0], rows[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("ragged rows")
    return {name: [r[j] for r in body] for j, name in enumerate(header)}


def compare_file(name: str, a: Path, b: Path) -> tuple[list[str], bool, list[str]]:
    """(report lines, within tolerance, moved columns) for one file present
    in both trees."""
    if a.read_bytes() == b.read_bytes():
        return [f"{name}: identical"], True, []
    try:
        cols_a, cols_b = _columns(a), _columns(b)
    except (ValueError, IndexError) as exc:
        return [f"{name}: cannot parse ({exc}) and the bytes differ"], False, []
    if list(cols_a) != list(cols_b) or any(len(cols_a[k]) != len(cols_b[k]) for k in cols_a):
        return [f"{name}: columns or row counts differ"], False, []
    lines, ok, moved_cols = [name], True, []
    for col in cols_a:
        delta, scale, numeric = 0.0, 0.0, False
        for i, (x, y) in enumerate(zip(cols_a[col], cols_b[col])):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None or not (math.isfinite(fx) and math.isfinite(fy)):
                if str(x) != str(y):
                    lines.append(f"  {col}[{i}]: {x!r} != {y!r}")
                    ok = False
                continue
            numeric = True
            delta = max(delta, abs(fy - fx))
            scale = max(scale, abs(fx), abs(fy))
        if numeric:
            moved = delta > RTOL * scale
            ok = ok and not moved
            mark = ""
            if moved:
                moved_cols.append(col)
                mark = "  MOVED (rounding column)" if col in ROUNDING_COLUMNS else "  MOVED"
            lines.append(f"  {col or '(values)'}: max|d| {delta:.3e}  max|v| {scale:.3e}{mark}")
    return lines, ok, moved_cols


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    files_a = {p.relative_to(args.a).as_posix() for p in args.a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(args.b).as_posix() for p in args.b.rglob("*") if p.is_file()}
    ok = files_a == files_b
    for name in sorted(files_a ^ files_b):
        print(f"{name}: only in {args.a if name in files_a else args.b}")
    other = 0
    for name in sorted(files_a & files_b):
        lines, same, moved = compare_file(name, args.a / name, args.b / name)
        print("\n".join(lines))
        ok = ok and same
        other += sum(col not in ROUNDING_COLUMNS for col in moved)
    print(f"{'within' if ok else 'OUTSIDE'} {RTOL:g} of each column's scale: "
          f"{len(files_a & files_b)} files compared")
    print(f"{other} moved columns outside the rounding columns")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
