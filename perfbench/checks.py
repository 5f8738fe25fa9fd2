"""Checks of a job's output files against the goldens.

Goldens were captured from the seed commit at the benchmark's own run
length (make_goldens.py). Table rows and snapshots must match to rtol
1e-10, and to atol 1e-12 on the rounding-level and error columns, up to
the resolution the CSV is printed with. Spectra must reproduce the
golden stability class and spectral radius, and their eigenvalues must
lie within 1e-6 * max(1, spectral radius) of the golden ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import ATOL_ROUNDING, ROUNDING_COLUMNS, RTOL, SNAPSHOT_POWERS

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SPECTRUM_RTOL = 1e-6
# lagdg prints floats with "%.8e": nine significant digits, so one unit in
# the last digit is at most 1e-8 of the value. Two printed values whose
# exact values agree to a tolerance may differ by that tolerance plus half
# a unit of each (the golden's unit rescales with the golden).
PRINT_RTOL = 1e-8


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    messages: list = field(default_factory=list)


def load_goldens(workload: str) -> dict:
    goldens = json.loads((GOLDEN_DIR / f"{workload}.json").read_text())
    arrays = GOLDEN_DIR / f"{workload}.npz"
    if arrays.exists():
        with np.load(arrays) as data:
            goldens["arrays"] = {k: data[k] for k in data.files}
    return goldens


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def close(got, expected, atol: float) -> np.ndarray:
    """Elementwise: do printed values agree to atol + RTOL * |expected|?"""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    slack = atol + RTOL * np.abs(expected) + 0.5 * PRINT_RTOL * (np.abs(got) + np.abs(expected))
    both_nan = np.isnan(got) & np.isnan(expected)
    return both_nan | (np.abs(got - expected) <= slack)


def expected_units(check: dict, goldens: dict) -> int:
    """Rows or variants a job produces: its share of ``attempted``."""
    if check["kind"] == "table":
        return len(goldens[check["key"]]["rows"])
    return 1


def check_job(check: dict, outdir: Path, goldens: dict) -> Outcome:
    kind = check["kind"]
    try:
        if kind == "table":
            snapshot = goldens["arrays"][check["key"]] if check.get("snapshot") else None
            return _check_table(check, outdir, goldens[check["key"]], snapshot)
        if kind == "spectrum":
            return _check_spectrum(check["key"], outdir, goldens)
        return _check_arrays(kind, outdir, goldens["arrays"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Outcome(expected_units(check, goldens), expected_units(check, goldens),
                       [f"{outdir.name}: unreadable output ({exc!r})"])


def _check_table(check: dict, outdir: Path, golden: dict, snapshot) -> Outcome:
    """Rows of results.csv fail one by one; a wrong snapshot fails them all."""
    out = Outcome(len(golden["rows"]))
    out.failed, out.messages = _mismatches(outdir / "results.csv", golden["header"], golden["rows"],
                                           check["scale"], check["powers"], ROUNDING_COLUMNS)
    if snapshot is not None:
        files = sorted(outdir.glob("snapshot_*.csv"))
        if len(files) != 1:
            bad, messages = 1, [f"{len(files)} snapshot files, expected 1"]
        else:
            # ahead of the train h and u are at rounding level
            bad, messages = _mismatches(files[0], ["x", "h", "u"], snapshot,
                                        check["scale"], SNAPSHOT_POWERS, {"h", "u"})
        if bad:
            out.failed = out.attempted
            out.messages += messages
    out.messages = [f"{outdir.name}: {m}" for m in out.messages]
    return out


def _mismatches(path: Path, gold_header, gold_rows, scale: float, powers: dict,
                rounding) -> tuple[int, list[str]]:
    """(rows that differ from the rescaled golden, messages on the first few).
    Columns in ``rounding`` also get the absolute tolerance."""
    header, rows = read_csv(path)
    got, gold = np.array(rows, dtype=float), np.array(gold_rows, dtype=float)
    if header != list(gold_header) or got.shape != gold.shape:
        return len(gold_rows), [f"{path.name}: shape {header} x {len(rows)} differs from the golden"]
    expected = gold * np.array([scale ** powers.get(col, 0) for col in header])
    atol = np.array([ATOL_ROUNDING if col in rounding else 0.0 for col in header])
    bad = np.argwhere(~close(got, expected, atol))
    messages = [f"{path.name} row {i} {header[j]}: got {float(got[i, j])!r}, expected {float(expected[i, j])!r}"
                for i, j in bad[:10]]
    return len(set(bad[:, 0])), messages


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance from a point of either set to the other set."""
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _check_spectrum(key: str, outdir: Path, goldens: dict) -> Outcome:
    out = Outcome(1)
    gold = goldens[key]
    summary = json.loads((outdir / "summary.json").read_text())
    _, rows = read_csv(outdir / "eigenvalues.csv")
    lam = np.array([complex(re, im) for re, im in rows])
    ref = goldens["arrays"][key]
    rho = gold["spectral_radius"]
    problems = []
    if summary["stable"] != gold["stable"]:
        problems.append(f"stable={summary['stable']}, golden {gold['stable']}")
    if not abs(summary["spectral_radius"] - rho) <= SPECTRUM_RTOL * rho:
        problems.append(f"spectral radius {summary['spectral_radius']!r}, golden {rho!r}")
    if lam.shape != ref.shape:
        problems.append(f"{lam.size} eigenvalues, golden {ref.size}")
    elif lam.size and hausdorff(lam, ref) > SPECTRUM_RTOL * max(1.0, rho):
        problems.append(f"eigenvalues off the golden ones by {hausdorff(lam, ref):.3e}")
    if problems:
        out.failed = 1
        out.messages.append(f"{outdir.name} ({key}): " + "; ".join(problems))
    return out


ARRAY_FILES = {
    "rule_example": ("rule.csv",),
    "operator_example": ("operator_a.csv", "operator_g.csv"),
}


def _check_arrays(kind: str, outdir: Path, arrays: dict) -> Outcome:
    out = Outcome(1)
    for name in ARRAY_FILES[kind]:
        _, rows = read_csv(outdir / name)
        got, ref = np.array(rows), arrays[f"{kind}/{name}"]
        if got.shape != ref.shape or not close(got, ref, ATOL_ROUNDING).all():
            out.failed = 1
            out.messages.append(f"{outdir.name}: {name} differs from the golden")
    return out
