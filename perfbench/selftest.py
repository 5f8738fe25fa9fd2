"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/selftest.py

The file name keeps these tests out of the repository's own test run;
the smoke runs take about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_a_synthetic_span_tree():
    # root 0..10 has two children that overlap in time (two threads):
    # a 1..4 with grandchild 2..3, and b 3..6; c 9..12 sticks out of root.
    spans = [
        (1, 0, "root", 0.0, 10.0, 1, None),
        (2, 1, "a", 1.0, 4.0, 1, None),
        (3, 2, "a.child", 2.0, 3.0, 1, None),
        (4, 1, "b", 3.0, 6.0, 1, None),
        (5, 1, "c", 9.0, 12.0, 1, None),
    ]
    selfs = tracer.self_times(spans)
    assert selfs == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 3.0}


def test_union_length_merges_and_clips():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    assert tracer.union_length([], 0, 1) == 0.0


def test_robust_lengths_pool_repeated_work_and_take_the_fastest():
    labels = ["launch", "call>", "solve>", "step", "step", "step", "step", "solve<", "call<"]
    # three samples; steps 1.0 (fast) or 2.0 (slow), the other stretches differ per sample
    lengths = np.array([
        [0.4, 0.1, 0.01, 2.0, 2.0, 2.0, 0.02, 0.1],
        [0.5, 0.2, 0.01, 2.0, 1.0, 2.0, 0.02, 0.1],
        [0.6, 0.3, 0.01, 2.0, 2.0, 2.0, 0.02, 0.1],
    ])
    out = run.robust_lengths(labels, lengths)
    # stretches 3-5 (step to step) pool nine values; the fast one holds for all
    assert out[3] == out[4] == out[5] == 1.0
    # every other stretch is timed alone
    assert out[0] == pytest.approx(0.4) and out[1] == pytest.approx(0.1)
    assert out[2] == pytest.approx(0.01)
    assert out[6] == pytest.approx(0.02)


def test_end_to_end_reads_the_marks():
    labels = ["launch", "start", "imported", "call>", "row>", "rule>", "rule<", "solve>", "step",
              "step", "solve<", "row<", "call<", "end"]
    t = np.array([0.0, 0.1, 0.5, 0.6, 0.7, 0.8, 1.8, 2.0, 2.0, 2.5, 3.0, 3.1, 3.2, 3.2])
    jobs = [{"check": {"kind": "table"}}]
    m = run.end_to_end(jobs, labels, t, [{"dofs": 10, "steps": 2, "model": "CoupledModel"}], {})
    assert m["wall_s"] == pytest.approx(3.2)
    assert m["setup_s"] == pytest.approx(0.6 + 0.1 + 1.3)  # to the call, config, to the solve
    assert m["dof_steps_per_s"] == pytest.approx(20 / 1.0)
    assert m["variants_per_s"] == pytest.approx(1 / 2.6)


def test_benchmark_json_names_what_run_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(tracer.PER_LAYER)
    assert set(tracer.per_layer([], 0.0)) | {"trace.overhead_s", "trace.overhead_ratio"} == {
        name for name, _, _ in tracer.PER_LAYER}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs_repeat_and_have_goldens(workload):
    goldens = checks.load_goldens(workload)
    drawn = set()
    for seed in range(40):
        jobs = workloads.build(workload, seed, run.ROOT)
        assert jobs == workloads.build(workload, seed, run.ROOT)
        for job in jobs:
            if "key" in job["check"]:
                assert job["check"]["key"] in goldens
        drawn.add(json.dumps(jobs))
    assert len(drawn) > 1  # at least the amplitude scale varies


def test_traced_run_writes_the_same_bytes(tmp_path):
    # the smallest absorption row, traced and untraced
    jobs = workloads.absorption_jobs(run.ROOT, ["main"], 2.0)
    jobs[0]["argv"] += ["--override", "rows=[[10, 100, 150, 0.0035714285714285713]]"]
    untraced, _, log = run.run_child(jobs, False, tmp_path / "plain")
    assert untraced is not None, log
    traced, _, log = run.run_child(jobs, True, tmp_path / "traced")
    assert traced is not None, log
    plain = (tmp_path / "plain" / "main" / "results.csv").read_bytes()
    assert plain == (tmp_path / "traced" / "main" / "results.csv").read_bytes()
    solves = [[s["model"], s["dofs"], s["steps"]] for s in untraced["solves"]]
    assert tracer.count_errors(traced["spans"], solves, 0, 0) == []
    assert tracer.count_errors(traced["spans"], solves[1:], 0, 0) != []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    record = run.run(workload, seed=1, seconds=0, trace=False, min_samples=1)
    assert record["messages"] == []
    assert record["attempted"] > 0 and record["failed"] == 0
    assert set(record["summary"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in record["summary"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    record = run.run("absorption", seed=2, seconds=0, trace=True)
    assert record["messages"] == []
    assert record["failed"] == 0
    assert set(record["summary"]) == {name for name, _, _ in tracer.PER_LAYER}
    summary = record["summary"]
    assert summary["semiinf.rhs.calls"]["value"] > 0
    assert summary["dg.rhs.calls"]["value"] == 3 * summary["coupled.rk3_step.calls"]["value"]


def _write_csv(path: Path, header, rows) -> None:
    path.write_text(",".join(header) + "\n" + "\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")


def _table_output(tmp_path: Path, workload: str, job: dict, edit=None, snapshot_edit=None) -> Path:
    """Write a job's golden output (rescaled), with ``edit(rows, header)``
    applied to results.csv and ``snapshot_edit(rows)`` to the snapshot."""
    goldens = checks.load_goldens(workload)
    check = job["check"]
    golden = goldens[check["key"]]
    out = tmp_path / job["id"]
    out.mkdir()
    scale = check["scale"]
    rows = [[v * scale ** check["powers"].get(c, 0) for c, v in zip(golden["header"], r)] for r in golden["rows"]]
    if edit:
        edit(rows, golden["header"])
    _write_csv(out / "results.csv", golden["header"], rows)
    if check.get("snapshot"):
        snap = goldens["arrays"][check["key"]] * [1.0, scale, scale]
        if snapshot_edit:
            snapshot_edit(snap)
        _write_csv(out / "snapshot_wavetrain.csv", ["x", "h", "u"], snap)
    return out


def _outcome(workload: str, job: dict, out: Path) -> tuple[int, int]:
    outcome = checks.check_job(job["check"], out, checks.load_goldens(workload))
    return outcome.attempted, outcome.failed


def test_a_wrong_output_is_counted_as_failed(tmp_path):
    job = workloads.absorption_jobs(run.ROOT, [workloads.ABSORPTION_SWEEP_ROW], 1.0)[0]

    def wrong_nodes(rows, header):
        rows[0][header.index("semi_nodes")] += 1.0

    assert _outcome("absorption", job, _table_output(tmp_path, "absorption", job, wrong_nodes)) == (1, 1)


@pytest.mark.parametrize("delta, failed", [(1e-14, 0), (1e-9, 1)])
def test_error_columns_tolerate_rounding_only(tmp_path, delta, failed):
    # ingoing rows report relative errors of about 4e-7
    job = workloads.validation_jobs(run.ROOT, [("ingoing", 0.1, 1000.0)], 4.0)[0]

    def move(rows, header):
        rows[0][header.index("e2_h")] += delta

    assert _outcome("validation", job, _table_output(tmp_path, "validation", job, move)) == (1, failed)


@pytest.mark.parametrize("delta, failed", [(1e-14, 0), (1e-9, 1)])
def test_zero_wavetrain_errors_tolerate_rounding_only(tmp_path, delta, failed):
    job = workloads.wavetrain_jobs(run.ROOT, [("wavetrain_15nodes.cfg", 0.05)], 0.5)[0]

    def move(rows, header):
        rows[0][header.index("einf_u")] += delta

    assert _outcome("wavetrain", job, _table_output(tmp_path, "wavetrain", job, move)) == (1, failed)


@pytest.mark.parametrize("relative, failed", [(0.0, 0), (1e-9, 0), (1e-6, 1)])
def test_wavetrain_snapshot_is_checked(tmp_path, relative, failed):
    # the train's crest, near the forced boundary, rescaled by 2
    job = workloads.wavetrain_jobs(run.ROOT, [("wavetrain_30nodes.cfg", 0.1)], 2.0)[0]

    def move(snap):
        i = np.argmax(np.abs(snap[:, 1]))
        snap[i, 1] *= 1.0 + relative

    assert _outcome("wavetrain", job, _table_output(tmp_path, "wavetrain", job, snapshot_edit=move)) == (1, failed)


def test_missing_snapshot_fails(tmp_path):
    job = workloads.wavetrain_jobs(run.ROOT, [("wavetrain_30nodes.cfg", 0.1)], 1.0)[0]
    out = _table_output(tmp_path, "wavetrain", job)
    (out / "snapshot_wavetrain.csv").unlink()
    assert _outcome("wavetrain", job, out) == (1, 1)


def test_printed_values_compare_up_to_their_last_digit():
    # one unit in the ninth significant digit is within tolerance, two are not
    assert checks.close(5.00000001, 5.00000000, 0.0)
    assert not checks.close(1.00000003, 1.00000000, 0.0)
    assert checks.close(float("nan"), float("nan"), 0.0)


def test_missing_checkout_exits_nonzero_without_a_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "validation", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
