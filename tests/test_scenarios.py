import json
import warnings

import numpy as np
import pytest

from lagdg import advection, basis, coupled, quadrature, scenarios, semiinf
from lagdg.scenarios import (
    DGOnlyModel,
    format_float,
    run_scenario,
    write_csv,
)
from lagdg.basis import BasisSpec
from lagdg.coupled import CoupledModel, SWEConfig, swe_system
from lagdg.dg import Mesh1D
from lagdg.semiinf import default_rule, scalar_system


class TestCsvFormat:
    def test_nine_significant_digits(self):
        assert format_float(1.0 / 3.0) == "3.33333333e-01"
        assert format_float(-123456.789) == "-1.23456789e+05"

    def test_write_csv_newline_terminated(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1.0, 2.0)])
        text = path.read_text()
        assert text.endswith("\n")
        assert text.splitlines()[0] == "a,b"


class TestSmallScenarios:
    def test_spectrum_gl_outflow_blowup_summary(self, tmp_path):
        summary = run_scenario({"scenario": "spectrum", "form": "nodal",
                                "basis": "functions", "nodes": "gl",
                                "direction": "outflow", "beta": 1.0, "M": 25}, tmp_path)
        assert summary["spectral_radius"] >= 1e10

    def test_convergence_orders(self, tmp_path):
        res = run_scenario({"scenario": "convergence", "nx_list": [20, 40], "T": 0.2}, tmp_path)
        assert res["rows"][1]["order"] > 1.8
        data = (tmp_path / "results.csv").read_text().splitlines()
        assert data[0] == "nx,l2_error,order"

    def test_manifest_roundtrip_reproduces(self, tmp_path):
        run_scenario({"scenario": "rule", "M": 6, "beta": 2.0}, tmp_path / "a")
        manifest = json.loads((tmp_path / "a" / "run_manifest.json").read_text())
        manifest.pop("scenario")
        run_scenario({"scenario": "rule", **manifest}, tmp_path / "b")
        assert ((tmp_path / "a" / "rule.csv").read_bytes()
                == (tmp_path / "b" / "rule.csv").read_bytes())


class TestCoupledScenariosSmall:
    def test_absorption_small_row(self, tmp_path):
        cfg = {"scenario": "gaussian_absorption", "D": 1000.0, "x0": 750.0,
               "sigma": 50.0, "rows": [[10, 50, 80, 0.01]], "ref_length": 1500.0}
        res = run_scenario(cfg, tmp_path)
        row = res["rows"][0]
        assert row["rho"] < 1e-2
        # the wall sends the pulse back: its energy error is a fixed share of
        # the pulse's scale 1/2 g h1^2 (measured 1.45e-3, 7.1e-19 without the
        # velocity flip)
        assert row["e_en_wall"] >= 1e-3 * 0.5 * 9.81 * 0.1 ** 2
        assert (tmp_path / "results.csv").exists()

    def test_cfl_warning_counts_background_flow(self, tmp_path):
        # dt c / dz = 0.385 but dt (|U| + c) / dz = 0.446: the coupled model
        # and both DG references warn
        cfg = {"scenario": "gaussian_absorption", "U": 0.5,
               "rows": [[10, 100, 130, 0.0035714285714285713]]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_scenario(cfg, tmp_path)
        cfl = [w for w in caught if issubclass(w.category, RuntimeWarning) and "CFL" in str(w.message)]
        assert len(cfl) == 3
        assert (tmp_path / "results.csv").exists()

    def test_wavetrain_small_row(self, tmp_path):
        cfg = {"scenario": "wavetrain", "L": 500.0, "nx": 60, "semi_nodes": 12,
               "beta": 0.05, "amplitude_list": [0.05], "wavenumber": 5, "T": 300.0}
        res = run_scenario(cfg, tmp_path)
        assert res["rows"][0]["e_en"] < 1e-6

    def test_validation_small_outgoing(self, tmp_path):
        cfg = {"scenario": "coupling_validation", "L": 1000.0, "nx": 125,
               "semi_nodes": 40, "beta": 0.01, "h1_list": [0.1], "sigma_list": [100.0],
               "x0_outgoing": 500.0, "T_outgoing": 200.0, "nt_outgoing": 400,
               "ref_length": 2500.0, "directions": ["outgoing"]}
        res = run_scenario(cfg, tmp_path)
        assert res["rows"][0]["einf_h"] < 1e-6

    def test_snapshot_output(self, tmp_path):
        cfg = {"scenario": "coupling_validation", "L": 1000.0, "nx": 50,
               "semi_nodes": 20, "beta": 0.01, "h1_list": [0.1], "sigma_list": [100.0],
               "x0_outgoing": 500.0, "T_outgoing": 50.0, "nt_outgoing": 100,
               "ref_length": 2000.0, "directions": ["outgoing"], "write_snapshots": True}
        run_scenario(cfg, tmp_path)
        snap = next(tmp_path.glob("snapshot_outgoing_*.csv"))
        lines = snap.read_text().splitlines()
        assert lines[0] == "x,h,u"
        # finite-domain centers plus the 20 GLR sample points
        assert len(lines) == 1 + 50 + 20
        xs = np.array([float(l.split(",")[0]) for l in lines[1:]])
        assert np.all(np.diff(xs) > 0)
        assert xs[50] == pytest.approx(1000.0)  # first semi sample at the interface

    def test_snapshot_of_a_scalar_coupled_model(self, tmp_path):
        # x, then one column per component; exp(-x) is the first Laguerre
        # function at beta = 2, so the semi-infinite samples are exact
        spec = BasisSpec(2.0, 6)
        model = CoupledModel(scalar_system(1.0), Mesh1D(1.0, 5), 1, spec)
        scenarios._snapshot_csv(tmp_path, "s.csv", model, model.initial_state(lambda x: np.exp(-x)))
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "x,q0"
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        n_semi = default_rule(spec).n
        assert data.shape == (5 + n_semi, 2)
        assert data[5:, 0] == pytest.approx(1.0 + default_rule(spec).nodes)
        assert data[:5, 1] == pytest.approx(np.exp(-data[:5, 0]), rel=1e-2)
        assert data[5:, 1] == pytest.approx(np.exp(-data[5:, 0]), rel=1e-7)


class TestDGOnlyModel:
    def test_reflective_wall_reverses_velocity(self):
        # a right-going pulse hitting the wall comes back: total energy in
        # h is preserved, u flips sign across the reflection
        from lagdg.coupled import run_simulation

        cfg = SWEConfig()
        mesh = Mesh1D(100.0, 100)
        model = DGOnlyModel(swe_system(cfg), mesh, 1, reflect_right=True)
        c = cfg.wave_speed
        h0 = lambda x: 0.1 * np.exp(-(((x - 80.0) / 5.0) ** 2))
        u0 = lambda x: np.sqrt(cfg.grav / cfg.H) * h0(x)  # pure right-mover
        y = model.initial_state(h0, u0)
        # travel 40 m: 20 m to the wall and 20 m back
        T = 40.0 / c
        dt = 0.2 * mesh.dz / c
        n = int(np.ceil(T / dt))
        yT = run_simulation(model.rhs, y, 0.0, T / n, n)
        vals = model.centers_view(yT)
        i = np.argmax(np.abs(vals[:, 0]))
        assert mesh.centers[i] == pytest.approx(80.0, abs=3.0)
        # reflected wave is a left-mover: u has opposite sign to h
        assert np.sign(vals[i, 1]) == -np.sign(vals[i, 0])

    def test_wall_needs_a_two_component_system(self):
        # the wall flips component 1 of the right trace, which a scalar system lacks
        with pytest.raises(ValueError, match="1-component"):
            DGOnlyModel(scalar_system(1.0), Mesh1D(1.0, 4), 1, reflect_right=True)
        DGOnlyModel(scalar_system(1.0), Mesh1D(1.0, 4), 1).rhs(0.0, np.zeros(8))


class TestBenchmarkHooks:
    """perfbench rebinds these names in place to time and count calls, so
    they must exist and be shared by identity across modules."""

    def test_rebound_names_are_shared(self):
        for name in ("_validation_row", "_wavetrain_row", "_absorption_row", "_map_rows"):
            assert callable(getattr(scenarios, name)), name
        assert scenarios.run_simulation is coupled.run_simulation
        assert scenarios.build_rule is semiinf.build_rule is advection.build_rule is quadrature.build_rule
        assert quadrature.laguerre_poly_table is basis.laguerre_poly_table
        assert callable(coupled.rk3_step)

    def test_rows_and_solves_go_through_module_globals(self, tmp_path, monkeypatch):
        rows, solves = [], []
        row_runner, solve = scenarios._absorption_row, scenarios.run_simulation

        def recorded_row(*args):
            rows.append(args[1])
            return row_runner(*args)

        def recorded_solve(rhs, y0, *args, **kwargs):
            # perfbench reads n_steps as the fifth positional argument
            solves.append((type(rhs.__self__).__name__, args[2]))
            return solve(rhs, y0, *args, **kwargs)

        monkeypatch.setattr(scenarios, "_absorption_row", recorded_row)
        monkeypatch.setattr(scenarios, "run_simulation", recorded_solve)
        run_scenario({"scenario": "gaussian_absorption", "D": 1000.0, "x0": 750.0, "sigma": 50.0,
                      "rows": [[5, 20, 30, 0.01]], "ref_length": 1500.0}, tmp_path)
        assert rows == [[5, 20, 30, 0.01]]
        assert solves == [("CoupledModel", 30), ("DGOnlyModel", 30), ("DGOnlyModel", 30)]
