import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagdg import scenarios
from lagdg.cli import INSPECTORS, build_parser, main
from lagdg.scenarios import SCENARIOS, ConfigError, parse_config_file, run_scenario

REPO = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO / "configs"
LIST_KEYS = [(name, key) for name, scenario in SCENARIOS.items()
             for key, default in scenario.defaults.items() if isinstance(default, list)]
# (config, key, value): a value of the wrong kind for its key, or a fraction
# where the code reads an int
MISTYPED_KEYS = [
    ("coupling_validation", "L", '"abc"'),
    ("absorption_main", "H", "null"),
    ("rule_example", "M", "[3]"),
    ("rule_example", "M", "1.5"),
    ("rule_example", "M", "true"),
    ("rule_example", "nodes", "3"),
    ("spectrum_modal_functions_outflow", "u", '"fast"'),
    ("wavetrain_15nodes", "write_snapshots", "1"),
    ("wavetrain_15nodes", "nx", "600.5"),
    ("convergence_dg", "p", "1.5"),
    ("convergence_dg", "nx_list", "[50, 100.5]"),
    ("coupling_validation", "semi_nodes", "180.5"),
    ("coupling_validation", "nt_ingoing", "2.5"),
    ("absorption_main", "rows", "[[40, 400.5, 600, 0.0035714285714285713]]"),
]


class TestConfigParsing:
    def test_key_value_with_comments(self, tmp_path):
        cfg_file = tmp_path / "a.cfg"
        cfg_file.write_text("# header\nscenario = \"rule\"\nM = 3  # inline\nbeta = 0.5\n\n")
        cfg = parse_config_file(cfg_file)
        assert cfg == {"scenario": "rule", "M": 3, "beta": 0.5}

    def test_list_values(self, tmp_path):
        cfg_file = tmp_path / "b.cfg"
        cfg_file.write_text("scenario = \"convergence\"\nnx_list = [10, 20]\n")
        assert parse_config_file(cfg_file)["nx_list"] == [10, 20]

    def test_malformed_line(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("scenario\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg_file)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario({"scenario": "rule", "bogus": 1}, tmp_path)

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_scenario({"scenario": "nope"}, tmp_path)


class TestCliCommands:
    def test_rule_one_point(self, tmp_path, capsys):
        rc = main(["rule", "--nodes", "gl", "--beta", "1.0", "--M", "0",
                   "--output", str(tmp_path)])
        assert rc == 0
        content = (tmp_path / "rule.csv").read_text()
        assert content.splitlines()[0] == "node,weight"
        node, weight = content.splitlines()[1].split(",")
        assert float(node) == pytest.approx(1.0)
        assert float(weight) == pytest.approx(1.0)

    def test_spectrum_modal_rows(self, tmp_path, capsys):
        rc = main(["spectrum", "--form", "modal", "--basis", "functions",
                   "--direction", "outflow", "--beta", "1.0", "--M", "50",
                   "--output", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "eigenvalues.csv").read_text().splitlines()
        assert len(lines) == 52  # header + 51 eigenvalues
        for line in lines[1:]:
            re_part, im_part = map(float, line.split(","))
            assert re_part == pytest.approx(-0.5, abs=1e-12)
            assert im_part == 0.0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stable"] is True

    def test_order_above_supported_maximum_exits_2(self, tmp_path, capsys):
        # the modal form builds no rule, yet rejects M = 201 like the others
        # before it builds an (M+1)^2 matrix
        rc = main(["spectrum", "--form", "modal", "--basis", "functions", "--direction", "outflow",
                   "--beta", "1", "--M", "201", "--output", str(tmp_path)])
        assert rc == 2
        assert "M=201 exceeds the supported maximum 200" in capsys.readouterr().err
        assert not (tmp_path / "eigenvalues.csv").exists()

    def test_operator_writes_matrix_and_forcing(self, tmp_path):
        rc = main(["operator", "--form", "modal", "--basis", "functions",
                   "--direction", "inflow", "--beta", "1.0", "--M", "3",
                   "--u", "1.0", "--q-left", "2.0", "--output", str(tmp_path)])
        assert rc == 0
        a_lines = (tmp_path / "operator_a.csv").read_text().splitlines()
        assert len(a_lines) == 5
        g = [float(r) for r in (tmp_path / "operator_g.csv").read_text().splitlines()[1:]]
        assert g == pytest.approx([2.0, 2.0, 2.0, 2.0])

    def test_run_with_config_and_override(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text('scenario = "convergence"\nnx_list = [10, 20]\nT = 0.1\n')
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--output", str(out),
                   "--override", "cfl = 0.2"])
        assert rc == 0
        assert (out / "results.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["cfl"] == 0.2
        assert manifest["nx_list"] == [10, 20]

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text('scenario = "unknown_thing"\n')
        rc = main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("config, key", [("operator_example", "tol_stability=1e-8"),
                                             ("spectrum_modal_functions_outflow", "q_left=1.0"),
                                             ("spectrum_modal_functions_outflow", "tol_stability=1e-8"),
                                             ("rule_example", "seed=0"),
                                             ("absorption_main", "seed=0"),
                                             ("rule_example", 'output_dir="o"')])
    def test_removed_variant_keys_are_config_errors(self, tmp_path, config, key):
        rc = main(["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--override", key,
                   "--output", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("config, key", [
        ("absorption_main", "rows=5"),
        ("absorption_main", "rows=[[40]]"),
        ("absorption_main", "rows=[5, 6, 7, 8]"),
        ("coupling_validation", "h1_list=0.1"),
        ("coupling_validation", "directions=\"ingoing\""),
        ("coupling_validation", "directions=[\"sideways\"]"),
        ("wavetrain_15nodes", "amplitude_list=0.05"),
        ("coupling_validation", "h1_list=[\"a\"]"),
        ("wavetrain_15nodes", "amplitude_list=[[0.05]]"),
        ("absorption_main", "rows=[[40, 400, 600, [0.01]]]"),
    ])
    def test_malformed_list_keys_are_config_errors(self, tmp_path, capsys, config, key):
        # rejected before any row runs, with the documented exit code
        rc = main(["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--override", key,
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("config, key, value", MISTYPED_KEYS)
    def test_mistyped_scalar_keys_are_config_errors(self, tmp_path, capsys, config, key, value):
        # each value has the wrong kind for its key, or a fraction where the code
        # reads an int: exit 2 naming the key, before any output is written
        rc = main(["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--override", f"{key}={value}",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert ("rows [[40, 400.5" if key == "rows" else f"key {key!r}") in err
        assert not (tmp_path / "o").exists()

    def test_whole_float_order_resolves(self, tmp_path):
        rc = main(["run", "--config", str(CONFIG_DIR / "rule_example.cfg"), "--override", "M=3.0",
                   "--output", str(tmp_path)])
        assert rc == 0
        assert len((tmp_path / "rule.csv").read_text().splitlines()) == 1 + 4

    @pytest.mark.parametrize("u", ["null", "-2", "-2.5"])
    def test_optional_speed_takes_null_or_a_number(self, tmp_path, u):
        rc = main(["run", "--config", str(CONFIG_DIR / "spectrum_modal_functions_outflow.cfg"),
                   "--override", f"u={u}", "--override", "M=3", "--output", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("config, overrides, reason", [
        ("wavetrain_15nodes", ["cfl=0"], "positive T and cfl"),
        ("wavetrain_15nodes", ["T=0"], "positive T and cfl"),
        ("absorption_main", ["rows=[[10, 100, 0, 0.0035714285714285713]]"], "steps >= 1"),
        ("convergence_dg", ["cfl=0"], "positive T and cfl"),
        ("coupling_validation", ["nt_outgoing=0", 'directions=["outgoing"]'], "nt_outgoing must be at least 1"),
        ("coupling_validation", ["nt_ingoing=0"], "nt_ingoing must be at least 1"),
    ], ids=["wavetrain-cfl", "wavetrain-T", "absorption-steps", "convergence-cfl", "validation-nt",
            "validation-nt-ingoing"])
    def test_zero_length_runs_are_config_errors(self, tmp_path, capsys, config, overrides, reason):
        # no step count can be derived: rejected up front with the reason, not with a
        # traceback or a later failure that names something else
        args = ["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--output", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and reason in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, overrides, key", [
        ("coupling_validation", ["ref_length=5000"], "ref_length"),
        ("absorption_main", ["ref_length=8000"], "ref_length"),
        ("wavetrain_15nodes", ["T=50", "ref_margin=-400"], "ref_margin"),
    ], ids=["validation", "absorption", "wavetrain"])
    def test_reference_shorter_than_the_mesh_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                                config, overrides, key):
        # rejected before any solve, naming the key, and not by a shape mismatch afterwards
        solves = []
        monkeypatch.setattr(scenarios, "run_simulation", lambda *a, **k: solves.append(a))
        args = ["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--output", str(tmp_path / "o")]
        for item in overrides:
            args += ["--override", item]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key} = " in err and "fewer than" in err
        assert solves == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, override, error, message", [
        ("coupling_validation", {"nt_ingoing": 0}, ConfigError, "nt_ingoing"),
        # SWEConfig rejects it with a plain ValueError inside the runner
        ("absorption_main", {"H": -1}, ValueError, "reference height and gravity must be positive"),
    ], ids=["config-error", "value-error"])
    @pytest.mark.parametrize("existing", [True, False], ids=["existing-dir", "new-nested-dir"])
    def test_failed_run_leaves_the_output_tree_as_it_was(self, tmp_path, existing, config, override, error,
                                                          message):
        # every directory the call made goes again; one that was there stays untouched
        out = tmp_path / "a" / "b"
        if existing:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("x")
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(error, match=message):
            run_scenario({**parse_config_file(CONFIG_DIR / f"{config}.cfg"), **override}, out)
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["operator", "spectrum"])
    def test_non_finite_operator_is_a_numerical_failure(self, tmp_path, capsys, command):
        # the weight ratios of the nodal polynomial GL operator overflow at M = 180:
        # exit 3 naming the variant, beta and M, no numpy warning on the way,
        # and no output of the failed run
        out = tmp_path / "o"
        rc = main([command, "--form", "nodal", "--basis", "polynomials", "--nodes", "gl",
                   "--direction", "inflow", "--beta", "1", "--M", "180", "--output", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure: nodal/polynomials/gl/inflow operator has non-finite entries" in err
        assert "beta=1.0, M=180" in err
        assert not out.exists()

    @pytest.mark.parametrize("config", ["wavetrain_15nodes", "convergence_dg"])
    def test_negative_dg_order_is_a_config_error(self, tmp_path, capsys, config):
        rc = main(["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--override", "p=-1",
                   "--output", str(tmp_path / "o")])
        assert rc == 2
        assert "configuration error: DG order p must be non-negative, got p=-1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, key", LIST_KEYS)
    def test_empty_list_keys_are_config_errors(self, tmp_path, capsys, scenario, key):
        # an empty list would run nothing and write a header-only table
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f'scenario = "{scenario}"\n{key} = []\n')
        rc = main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 2
        assert f"key {key!r} of scenario {scenario!r} takes a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        # an option value parses like a config value: JSON spells them NaN and Infinity
        ["spectrum", "--form", "modal", "--basis", "functions", "--direction", "inflow",
         "--beta", "1", "--M", "10", "--u", "NaN"],
        ["spectrum", "--form", "modal", "--basis", "functions", "--direction", "inflow",
         "--beta", "Infinity", "--M", "10"],
        ["rule", "--nodes", "glr", "--basis", "functions", "--beta", "Infinity", "--M", "10"],
        ["run", "--config", str(CONFIG_DIR / "wavetrain_15nodes.cfg"), "--override", "T=Infinity"],
        ["run", "--config", str(CONFIG_DIR / "wavetrain_15nodes.cfg"), "--override", "beta=Infinity"],
        ["run", "--config", str(CONFIG_DIR / "absorption_main.cfg"), "--override",
         "rows=[[40, Infinity, 600, 0.0035714285714285713]]"],
    ], ids=["spectrum-u-nan", "spectrum-beta-inf", "rule-beta-inf", "run-T-inf", "run-beta-inf",
            "run-nested-list-inf"])
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, args):
        # rejected before anything is written, not as a NaN result or a numerical failure
        assert main(args + ["--output", str(tmp_path / "o")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.csv"))

    def test_missing_config_file(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "missing.cfg"),
                   "--output", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("case", ["config-is-a-directory", "output-is-a-file", "output-under-a-file"])
    def test_bad_paths_exit_2_without_a_traceback(self, tmp_path, case):
        # the path error becomes a configuration error naming the path; the file stays as it was
        file = tmp_path / "FILE"
        file.write_text("keep\n")
        args, path = {
            "config-is-a-directory": (["run", "--config", str(CONFIG_DIR), "--output", str(tmp_path / "o")],
                                      CONFIG_DIR),
            "output-is-a-file": (["rule", "--M", "3", "--output", str(file)], file),
            "output-under-a-file": (["rule", "--M", "3", "--output", str(file / "sub")], file / "sub"),
        }[case]
        proc = subprocess.run([sys.executable, "-m", "lagdg.cli", *args], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")})
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("configuration error") and str(path) in proc.stderr
        assert file.read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["FILE"]

    def test_numerical_failure_exit_code(self, tmp_path, recwarn):
        # deliberately unstable time step: the solver aborts with the
        # blow-up diagnostic and the CLI reports exit code 3
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text('scenario = "wavetrain"\nL = 500.0\nnx = 20\n'
                       'semi_nodes = 8\nbeta = 0.05\namplitude_list = [0.05]\n'
                       'wavenumber = 5\nT = 20000.0\ncfl = 5.0\n')
        rc = main(["run", "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert rc == 3

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"scenario": "spectrum", "form": "nodal", "basis": "functions",
               "nodes": "glr", "direction": "outflow", "beta": 1.0, "M": 20}
        run_scenario(dict(cfg), tmp_path / "r1")
        run_scenario(dict(cfg), tmp_path / "r2")
        b1 = (tmp_path / "r1" / "eigenvalues.csv").read_bytes()
        b2 = (tmp_path / "r2" / "eigenvalues.csv").read_bytes()
        assert b1 == b2

    @pytest.mark.parametrize("required, optional", [
        (["rule", "--M", "4"], ["--nodes", "gl", "--basis", "polynomials", "--beta", "1.0"]),
        (["spectrum", "--form", "nodal", "--basis", "functions", "--direction", "outflow", "--beta", "0.5",
          "--M", "6"], ["--nodes", "glr", "--u", "-1.0"]),
        (["operator", "--form", "strong", "--basis", "polynomials", "--direction", "inflow", "--beta", "0.5",
          "--M", "6"], ["--nodes", "glr", "--u", "1.0", "--q-left", "1.0"]),
    ])
    def test_omitted_flags_take_the_scenario_defaults(self, tmp_path, required, optional):
        # the spelled-out values are the scenario tables' defaults, so both
        # runs resolve to the same manifest
        manifests = []
        for name, argv in (("omitted", required), ("spelled", required + optional)):
            assert main(argv + ["--output", str(tmp_path / name)]) == 0
            manifests.append(json.loads((tmp_path / name / "run_manifest.json").read_text()))
        assert manifests[0] == manifests[1]

    def test_manifest_contains_defaults(self, tmp_path):
        run_scenario({"scenario": "rule", "M": 4}, tmp_path)
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["beta"] == 1.0  # defaulted value recorded
        assert manifest["M"] == 4

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lagdg.cli", "rule", "--M", "2",
             "--output", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0

    def test_lapack_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        # LinAlgError subclasses ValueError; it must still count as numerical.
        # This variant has no closed-form spectrum, so it reaches eigvals.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["spectrum", "--form", "strong", "--basis", "functions", "--nodes", "glr",
                     "--direction", "inflow", "--beta", "1.0", "--M", "10", "--output", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_cli_import_loads_no_scipy(self):
        code = ("import lagdg.cli, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")}, check=True)
        assert proc.stdout.strip() == "[]"


def _scenario_of(config: str) -> str:
    return parse_config_file(CONFIG_DIR / f"{config}.cfg")["scenario"]


# the config-key error cases of an inspection scenario, and a few more
# for the non-finite, whole-number, empty-list and dashed-name paths
FLAG_CASES = [c for c in MISTYPED_KEYS if _scenario_of(c[0]) in INSPECTORS] + [
    ("spectrum_modal_functions_outflow", "u", "NaN"),
    ("spectrum_modal_functions_outflow", "u", "nan"),
    ("spectrum_modal_functions_outflow", "beta", "Infinity"),
    ("rule_example", "beta", "Infinity"),
    ("rule_example", "M", "[]"),
    ("operator_example", "M", "2.5"),
    ("operator_example", "q_left", '"x"'),
    ("operator_example", "direction", "sideways"),
]


def _subparser(name: str) -> argparse.ArgumentParser:
    actions = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices[name]


class TestInspectionFlags:
    """spectrum, rule and operator take one --KEY VALUE per key of their
    scenario, parsed and checked like a config value."""

    @pytest.mark.parametrize("name", sorted(INSPECTORS))
    def test_flags_are_the_scenario_keys_plus_output(self, name):
        flags = {opt: a.dest for a in _subparser(name)._actions for opt in a.option_strings
                 if opt not in ("-h", "--help")}
        expect = {"--" + key.replace("_", "-"): key for key in SCENARIOS[name].defaults}
        assert flags == {**expect, "--output": "output"}

    def test_run_keeps_config_override_and_output(self):
        flags = {opt for a in _subparser("run")._actions for opt in a.option_strings}
        assert flags == {"-h", "--help", "--config", "--override", "--output"}

    @pytest.mark.parametrize("config, key, value", FLAG_CASES)
    def test_flag_and_override_spellings_fail_alike(self, tmp_path, capsys, config, key, value):
        errs = []
        for argv in (["run", "--config", str(CONFIG_DIR / f"{config}.cfg"), "--override", f"{key}={value}"],
                     [_scenario_of(config), "--" + key.replace("_", "-"), value]):
            assert main(argv + ["--output", str(tmp_path / "o")]) == 2
            errs.append(capsys.readouterr().err)
            assert not (tmp_path / "o").exists()
        assert errs[0].startswith("configuration error: ")
        assert errs[0] == errs[1]

    def test_whole_float_order_resolves_from_a_flag(self, tmp_path):
        assert main(["rule", "--M", "3.0", "--output", str(tmp_path)]) == 0
        assert len((tmp_path / "rule.csv").read_text().splitlines()) == 1 + 4

    def test_spectrum_without_flags_runs_the_defaults(self, tmp_path):
        assert main(["spectrum", "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        # the default direction is outflow, whose default speed is -1
        assert manifest == {**scenarios.SPECTRUM_DEFAULTS, "u": -1.0, "scenario": "spectrum"}
        assert len((tmp_path / "eigenvalues.csv").read_text().splitlines()) == 1 + 51

    def test_unknown_form_is_a_config_error(self, tmp_path, capsys):
        assert main(["spectrum", "--form", "bogus", "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "configuration error: unknown form 'bogus'\n"
        assert not (tmp_path / "o").exists()


def _int_read_keys() -> set:
    """Config keys scenarios.py reads through int(cfg[...]) or int(n) for n
    in cfg[...]; an f-string key f"nt_{d}" gives the pattern "nt_*"."""
    def key(node):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == "cfg":
            if isinstance(node.slice, ast.Constant):
                return node.slice.value
            if isinstance(node.slice, ast.JoinedStr) and isinstance(node.slice.values[0], ast.Constant):
                return node.slice.values[0].value + "*"
        return None

    def int_of(node):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"
                and len(node.args) == 1):
            return node.args[0]
        return None

    keys = set()
    for node in ast.walk(ast.parse(Path(scenarios.__file__).read_text())):
        keys.add(key(int_of(node)))
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and isinstance(int_of(node.elt), ast.Name):
            gen = node.generators[0]
            if isinstance(gen.target, ast.Name) and gen.target.id == int_of(node.elt).id:
                keys.add(key(gen.iter))
    return keys - {None}


def test_whole_number_keys_are_the_keys_read_as_ints():
    # resolve_config requires whole numbers exactly for the keys with an int
    # default; the runners read exactly those through int(...)
    read = _int_read_keys()
    assert {"M", "nx", "nt_*", "nx_list"} <= read
    defaults = [(key, default) for s in SCENARIOS.values() for key, default in s.defaults.items()]
    matched = {pattern: {key for key, _ in defaults if key == pattern
                         or (pattern.endswith("*") and key.startswith(pattern[:-1]))} for pattern in read}
    assert all(matched.values()), matched
    read_keys = set().union(*matched.values())
    assert all(scenarios._whole(default) for key, default in defaults if key in read_keys)
    assert {key for key, default in defaults if scenarios._whole(default)} == read_keys


class TestShippedConfigs:
    def test_all_configs_parse_and_validate(self, tmp_path):
        from lagdg.scenarios import SCENARIOS, resolve_config

        for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config_file(cfg_path)
            assert cfg["scenario"] in SCENARIOS, cfg_path
            resolve_config(SCENARIOS[cfg["scenario"]].defaults, cfg, cfg["scenario"])

    def test_spectrum_config_runs(self, tmp_path):
        cfg = parse_config_file(CONFIG_DIR / "spectrum_modal_functions_outflow.cfg")
        summary = run_scenario(cfg, tmp_path)
        assert summary["stable"] is True
        assert summary["max_real_part"] == pytest.approx(-0.5)

    def test_rule_config_runs(self, tmp_path):
        cfg = parse_config_file(CONFIG_DIR / "rule_example.cfg")
        summary = run_scenario(cfg, tmp_path)
        assert summary["n_nodes"] == 181
        data = np.loadtxt(tmp_path / "rule.csv", delimiter=",", skiprows=1)
        assert data[0, 0] == 0.0
        assert np.all(np.diff(data[:, 0]) > 0)
