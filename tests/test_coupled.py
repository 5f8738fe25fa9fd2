from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import lagdg.dg
from lagdg.basis import BasisSpec
from lagdg.coupled import (
    CoupledModel,
    SWEConfig,
    rk3_step,
    run_simulation,
    semi_energy,
    swe_system,
)
from lagdg.dg import (
    DGOperator,
    Mesh1D,
    edge_values,
    eval_at_centers,
    project_dg,
)
from lagdg.scenarios import DGOnlyModel
from lagdg.semiinf import (
    LaguerreModalOperator,
    SigmoidDamping,
    default_rule,
    project as project_semi,
    reconstruct,
    scalar_system,
    sigmoid_gamma,
)


class TestSWESystem:
    def test_characteristic_speeds(self):
        sys = swe_system(SWEConfig(H=1.0, U=0.0, grav=9.81))
        _, lam, _ = sys.eig
        c = np.sqrt(9.81)
        assert np.sort(lam) == pytest.approx([-c, c])

    @pytest.mark.parametrize("H, U", [(1.0, 0.0), (2.3, 0.8), (2.3, -0.8), (0.7, 1e-3)])
    def test_max_speed_is_background_plus_wave_speed(self, H, U):
        # the CFL warning's speed, max |U +- c|, is |U| + c bit for bit
        cfg = SWEConfig(H=H, U=U)
        assert swe_system(cfg).max_speed == abs(U) + cfg.wave_speed
        assert scalar_system(-1.5).max_speed == 1.5

    def test_no_damping_means_no_reaction(self):
        # damping is an argument of the modal operator only: neither the
        # parameters nor the system carry it, and a zero amplitude adds nothing
        assert [f.name for f in fields(SWEConfig)] == ["H", "U", "grav"]
        sys = swe_system(SWEConfig())
        assert [f.name for f in fields(sys)] == ["a", "eig"]
        spec = BasisSpec("functions", 0.05, 8)
        undamped = LaguerreModalOperator(sys, spec).K
        assert np.array_equal(LaguerreModalOperator(sys, spec, SigmoidDamping(0.0, 0.1, 0.05)).K, undamped)

    def test_eigendecomposition_reconstructs(self):
        cfg = SWEConfig(H=2.3, U=0.8, grav=9.81)
        sys = swe_system(cfg)
        V, lam, Vinv = sys.eig
        a = V @ np.diag(lam) @ Vinv
        assert a == pytest.approx(sys.a, abs=1e-12)
        assert V @ Vinv == pytest.approx(np.eye(2), abs=1e-13)

    def test_supercritical_rejected(self):
        with pytest.raises(ValueError):
            SWEConfig(H=1.0, U=4.0, grav=9.81)


class TestSigmoid:
    def test_midpoint(self):
        d = SigmoidDamping(dgamma=0.2, alpha=0.5, sigma_over_l0=0.05)
        assert sigmoid_gamma(d, 1000.0, 500.0) == pytest.approx(0.1)

    def test_saturation(self):
        d = SigmoidDamping(dgamma=0.2, alpha=0.5, sigma_over_l0=0.05)
        assert sigmoid_gamma(d, 1000.0, 1e9) == pytest.approx(0.2)
        assert sigmoid_gamma(d, 1000.0, -1e9) == pytest.approx(0.0, abs=1e-300)

    def test_point_value(self):
        # sigma = 0.05 * 1e4 = 500
        d = SigmoidDamping(dgamma=0.1, alpha=0.5, sigma_over_l0=0.05)
        assert sigmoid_gamma(d, 1e4, 6000.0) == pytest.approx(0.1 / (1 + np.exp(-2.0)))

    def test_monotone(self):
        d = SigmoidDamping(dgamma=0.3, alpha=0.25, sigma_over_l0=0.05)
        xs = np.linspace(-1000, 5000, 50)
        vals = sigmoid_gamma(d, 2000.0, xs)
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("args", [(-0.1, 0.1, 0.05), (0.1, 0.1, 0.0)], ids=["amplitude", "steepness"])
    def test_invalid_profile_rejected(self, args):
        with pytest.raises(ValueError):
            SigmoidDamping(*args)


class TestRK3:
    def test_zero_rhs(self):
        y = np.array([1.0, -2.0])
        out = rk3_step(lambda t, q: np.zeros_like(q), y, 0.0, 0.5)
        assert out == pytest.approx(y)

    def test_stability_polynomial_value(self):
        out = rk3_step(lambda t, q: -q, np.array([1.0]), 0.0, 0.1)
        z = -0.1
        assert out[0] == pytest.approx(1 + z + z**2 / 2 + z**3 / 6, abs=1e-15)

    def test_third_order_convergence(self):
        errs = []
        for n in (16, 32, 64):
            dt = 1.0 / n
            y = np.array([1.0])
            for k in range(n):
                y = rk3_step(lambda t, q: -q, y, k * dt, dt)
            errs.append(abs(y[0] - np.exp(-1.0)))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(7.0 <= r <= 9.0 for r in ratios)

    def test_real_axis_stability_interval(self):
        R = lambda z: 1 + z + z**2 / 2 + z**3 / 6
        for z in np.linspace(-2.51, 0.0, 200):
            assert abs(R(z)) <= 1.0 + 1e-12

    def test_matches_the_stage_formula_bit_for_bit(self):
        # the shared k1 + k2 keeps the order of the additions
        rng = np.random.default_rng(3)
        A, b = rng.normal(size=(9, 9)), rng.normal(size=9)
        rhs = lambda t, q: A @ q + t * b
        y, t, dt = rng.normal(size=9), 0.3, 0.07
        k1 = rhs(t, y)
        k2 = rhs(t + dt, y + dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.25 * dt * (k1 + k2))
        assert np.array_equal(rk3_step(rhs, y, t, dt), y + (dt / 6.0) * (k1 + k2 + 4.0 * k3))

    def test_blowup_detected(self):
        with pytest.raises(RuntimeError):
            rk3_step(lambda t, q: q * np.inf, np.array([1.0]), 0.0, 0.1)

    def test_a_stage_that_fails_alone_is_named(self):
        # finite until the third stage: the message names K3 only
        calls = []

        def rhs(t, q):
            calls.append(t)
            return np.full_like(q, np.nan if len(calls) == 3 else 1.0)

        with pytest.raises(RuntimeError, match=r"stages: \['K3'\]"):
            rk3_step(rhs, np.array([1.0, 2.0]), 0.0, 0.1)
        assert calls == [0.0, 0.1, 0.05]

    def test_overflow_in_the_update_is_named(self):
        # every stage is finite; only y + dt/6 (K1 + K2 + 4 K3) overflows
        y = np.array([np.finfo(float).max, 1.0])
        with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=r"stages: \['update'\]"):
            rk3_step(lambda t, q: np.full(2, 1e300), y, 0.0, 1.0)

    def test_stages_that_return_their_input_stay_intact(self):
        # a right-hand side may hand back its input: the stage inputs are fresh
        # arrays that the step does not write to after the call
        seen = []

        def rhs(t, q):
            seen.append((q, q.copy()))
            return q

        y = np.array([0.5, -1.5, 2.0])
        out = rk3_step(rhs, y, 0.0, 0.2)
        assert all(np.array_equal(q, kept) for q, kept in seen)
        k1, k2, k3 = (kept for _, kept in seen)
        assert np.array_equal(out, y + (0.2 / 6.0) * (k1 + k2 + 4.0 * k3))


def small_model(damping=None, left_bc=None, left_mask=None):
    cfg = SWEConfig()
    mesh = Mesh1D(100.0, 25)
    spec = BasisSpec("functions", 0.05, 14)
    return CoupledModel(cfg, mesh, 1, spec, left_bc, left_mask, damping), cfg, mesh, spec


class TestCoupledRhs:
    def test_zero_state_zero_derivative(self):
        model, _, _, _ = small_model()
        y = np.zeros(model._n_dg + 2 * 15)
        assert np.max(np.abs(model.rhs(0.0, y))) == 0.0

    def test_boundary_data_and_mask_come_together(self):
        # data without a mask would be ignored; a mask without data has nothing to impose
        mask = np.array([False, True])
        for kw in ({"left_bc": lambda t: np.zeros(2)}, {"left_mask": mask}):
            with pytest.raises(ValueError):
                small_model(**kw)
            with pytest.raises(ValueError):
                DGOnlyModel(swe_system(SWEConfig()), Mesh1D(10.0, 4), 1, **kw)
            with pytest.raises(ValueError):
                DGOperator(swe_system(SWEConfig()), Mesh1D(10.0, 4), 1, **kw)

    def test_interface_consistency_constant_dg_state(self):
        # constant DG field with the modal trace matching it: the DG
        # derivative vanishes (upwind flux consistency at the interface)
        q_star = np.array([0.4, 0.1])

        def left_bc(t):
            return q_star

        model, cfg, mesh, spec = small_model(left_bc=left_bc, left_mask=np.array([False, True]))
        y = model.initial_state(lambda x: q_star[0] + 0.0 * x,
                                lambda x: q_star[1] + 0.0 * x)
        _, semi = model.split(y)
        semi[:] = 0.0
        semi[:, 0] = q_star  # trace = q_star
        dot = model.rhs(0.0, y)
        assert np.max(np.abs(dot[: model._n_dg])) < 1e-12

    def test_pulse_away_from_interface_matches_single_domain(self):
        model, cfg, mesh, spec = small_model()
        h = lambda x: 0.05 * np.exp(-(((x - 40.0) / 6.0) ** 2))
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        y = model.initial_state(h, z)
        dot = model.rhs(0.0, y)
        semi_dot = dot[model._n_dg:]
        assert np.max(np.abs(semi_dot)) < 1e-10

        single = DGOnlyModel(swe_system(cfg), mesh, 1)
        y_dg = single.initial_state(h, z)
        dot_single = single.rhs(0.0, y_dg)
        assert dot[: model._n_dg] == pytest.approx(dot_single, abs=1e-10)

    def test_functional_interface_exchanges_traces(self):
        # each operator sees the other side's trace at the same time level
        cfg = SWEConfig()
        sys = swe_system(cfg)
        mesh = Mesh1D(50.0, 10)
        spec = BasisSpec("functions", 0.1, 9)
        rng = np.random.default_rng(12)
        dg = rng.normal(size=(10, 2, 2)) * 0.01
        semi = rng.normal(size=(2, 10)) * 0.01
        dg_dot = DGOperator(sys, mesh, 1).rhs(dg.reshape(10, -1), 0.0, semi.sum(axis=1))
        semi_dot = LaguerreModalOperator(sys, spec).rhs(semi, 0.0, dg[-1] @ edge_values(1)[1])

        model = CoupledModel(cfg, mesh, 1, spec)
        y = np.concatenate([dg.ravel(), semi.ravel()])
        dot = model.rhs(0.0, y)
        assert dot == pytest.approx(np.concatenate([dg_dot.ravel(), semi_dot.ravel()]), abs=1e-13)

    def test_energy_non_increasing_without_damping(self):
        model, cfg, mesh, spec = small_model()
        h = lambda x: 0.1 * np.exp(-(((x - 50.0) / 8.0) ** 2))
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        y = model.initial_state(h, z)
        energies = []

        def obs(step, t, yy):
            dg, semi = model.split(yy)
            energies.append(model.dg_op.energy(dg, (cfg.grav, cfg.H))
                            + semi_energy(semi, spec.beta, cfg.grav, cfg.H))

        dt = 0.25 * mesh.dz / swe_system(cfg).max_speed
        run_simulation(model.rhs, y, 0.0, dt, 150, observers=[obs],
                       max_speed=swe_system(cfg).max_speed, min_dz=mesh.dz)
        e = np.array(energies)
        assert np.all(e[1:] <= e[:-1] * (1.0 + 1e-8))

    def test_damping_reduces_energy_faster(self):
        # the last GLR node is L0 = 923.5, so the layer is centred at z = 9.2 with sigma = 9.2
        damping = SigmoidDamping(dgamma=0.5, alpha=0.01, sigma_over_l0=0.01)
        model_d, cfg, mesh, spec = small_model(damping=damping)
        model_0, *_ = small_model()
        h = lambda x: 0.1 * np.exp(-(((x - 80.0) / 6.0) ** 2))
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        dt = 0.25 * mesh.dz / swe_system(cfg).max_speed
        yd = run_simulation(model_d.rhs, model_d.initial_state(h, z), 0.0, dt, 400)
        y0 = run_simulation(model_0.rhs, model_0.initial_state(h, z), 0.0, dt, 400)
        total_d = semi_energy(model_d.split(yd)[1], spec.beta, cfg.grav, cfg.H)
        total_0 = semi_energy(model_0.split(y0)[1], spec.beta, cfg.grav, cfg.H)
        assert total_d < 0.5 * total_0

    @pytest.mark.parametrize("damped", [True, False], ids=["damped", "undamped"])
    def test_isotropic_layer_sends_nothing_back(self, damped):
        # a is constant and the shipped layer damps h and u alike, so in the
        # Laguerre part the characteristic fields w = V^-1 q decouple and the
        # left-going one, started at zero, solves a homogeneous ODE: it stays
        # at zero whatever the layer does.  A forced train enters the layer;
        # measured max |w-| / max |w+| is 1.5e-16 damped and 4.3e-16
        # undamped (1.4e-15 at beta = 0.3).  Damping u only gives 2.3e-2.
        cfg = SWEConfig()
        mesh = Mesh1D(500.0, 60)
        spec = BasisSpec("functions", 0.1, 14)
        period = 50.0 / cfg.wave_speed
        left_bc = lambda t: np.array([0.0, 0.05 * np.sin(2 * np.pi * t / period)])
        damping = SigmoidDamping(dgamma=0.1, alpha=0.1, sigma_over_l0=0.05) if damped else None
        model = CoupledModel(cfg, mesh, 1, spec, left_bc=left_bc, left_mask=np.array([False, True]),
                             damping=damping)
        z = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        dt = 0.3 * mesh.dz / cfg.wave_speed
        yT = run_simulation(model.rhs, model.initial_state(z, z), 0.0, dt, 600)
        V, lam, Vinv = swe_system(cfg).eig
        w = Vinv @ model.split(yT)[1]
        w_plus, w_minus = np.max(np.abs(w[lam > 0])), np.max(np.abs(w[lam < 0]))
        assert w_plus > 1e-4
        assert w_minus <= 1e-12 * w_plus


class TestRunSimulation:
    def test_zero_steps_returns_initial(self):
        y0 = np.array([1.0, 2.0])
        out = run_simulation(lambda t, y: -y, y0, 0.0, 0.1, 0)
        assert out == pytest.approx(y0)

    def test_cfl_warning(self):
        with pytest.warns(RuntimeWarning):
            run_simulation(lambda t, y: -y, np.ones(2), 0.0, 1.0, 1,
                           max_speed=10.0, min_dz=1.0)

    def test_gaussian_translation_accuracy(self):
        # p=1 advection of a Gaussian: L2 error behaves like dz^2
        sys = scalar_system(1.0)
        errs = []
        for nx in (50, 100):
            mesh = Mesh1D(1.0, nx)
            op = DGOperator(sys, mesh, 1, lambda t: np.array([0.0]), np.array([True]))
            f0 = lambda x: np.exp(-(((x - 0.3) / 0.08) ** 2))
            dt = 0.1 * mesh.dz
            n = int(round(0.25 / dt))
            rhs = lambda t, y: op.rhs(y.reshape(op.blocks_shape), t, None).ravel()
            yT = run_simulation(rhs, op.project([f0]), 0.0, 0.25 / n, n)
            num = op.centers(yT)[:, 0]
            ref = f0(mesh.centers - 0.25)
            errs.append(np.sqrt(mesh.dz * np.sum((num - ref) ** 2)))
        assert errs[1] < errs[0] / 3.0


class TestExactSolution:
    """The coupled SWE solver against the closed form from rest.

    With u(x, 0) = 0 and h(x, 0) = f(x) the solution is
    h = [f(x - (U+c)t) + f(x - (U-c)t)] / 2, u = c/(2H) [f(x - (U+c)t) - f(x - (U-c)t)].
    The left-going half leaves through the transmissive boundary at x = 0,
    so on [0, inf) this is the exact solution, and nothing in it shares
    code with the solver.  Set-up: L = 10 km, sigma = 1 km, h1 = 0.1,
    CFL 0.1 on |U| + c, T = 1000 s.

    Orders over nx = 125 -> 250, max |error| in h and in u (measured;
    nx = 500 continues each of them):
      - DG part, at the cell centres: 2.12-2.27 for p = 1, 3.00-3.01 for
        p = 2, so the window is p + 1 - 0.1 to p + 1 + 0.4.
      - Laguerre part, by reconstruct at the GLR nodes with z < 10 km:
        2.99-3.04 for p = 1 and 3.00-3.26 for p = 2.  Its own error is the
        RK3 error, third order because dt is proportional to dz; the DG
        error reaches it only through the interface trace.  So the window
        is p + 1 - 0.1 to 3.4.
    The outgoing pulse uses M = 60, beta = 0.0025.  The ingoing pulse
    starts inside the Laguerre part, where M = 60, beta = 0.0025 cannot
    carry it: its error there stops at 5.2e-5 for every nx (measured).
    M = 120, beta = 0.005 puts that floor far below the DG error.
    """

    CASES = {
        "outgoing": (5000.0, 0.0, BasisSpec("functions", 0.0025, 60)),
        "ingoing": (12000.0, 0.0, BasisSpec("functions", 0.005, 120)),
        "outgoing-U0.3": (5000.0, 0.3, BasisSpec("functions", 0.0025, 60)),
    }

    @staticmethod
    def _errors(p: int, nx: int, x0: float, U: float, spec: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
        """max |numerical - exact| of (h, u): on the DG cell centres, and on the
        Laguerre part at the GLR nodes with z < 10 km."""
        L, T = 10000.0, 1000.0
        cfg = SWEConfig(U=U)
        c = cfg.wave_speed
        f = lambda x: 0.1 * np.exp(-(((np.asarray(x) - x0) / 1000.0) ** 2))

        def exact(x):
            right, left = f(x - (U + c) * T), f(x - (U - c) * T)
            return np.array([0.5 * (right + left), c / (2.0 * cfg.H) * (right - left)])

        model = CoupledModel(cfg, Mesh1D(L, nx), p, spec)
        n_steps = int(np.ceil(T / (0.1 * model.mesh.dz / swe_system(cfg).max_speed)))
        yT = run_simulation(model.rhs, model.initial_state(f, lambda x: 0.0 * x), 0.0, T / n_steps, n_steps)
        dg_err = np.max(np.abs(model.centers_view(yT).T - exact(model.mesh.centers)), axis=1)
        z = default_rule(spec).nodes
        z = z[z < 10000.0]
        semi_err = np.max(np.abs(reconstruct(model.split(yT)[1], spec, z) - exact(L + z)), axis=1)
        return dg_err, semi_err

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_convergence_order(self, case, p):
        (dg1, semi1), (dg2, semi2) = (self._errors(p, nx, *self.CASES[case]) for nx in (125, 250))
        dg_order, semi_order = np.log2(dg1 / dg2), np.log2(semi1 / semi2)
        assert np.all((p + 0.9 < dg_order) & (dg_order < p + 1.4)), (dg1, dg2, dg_order)
        assert np.all((p + 0.9 < semi_order) & (semi_order < 3.4)), (semi1, semi2, semi_order)


class TestLayout:
    """DGOperator owns the element-major layout of the flat state;
    project_dg and the cell-centre output keep their (n, d, p+1) and
    (n, d) shapes."""

    h = staticmethod(lambda x: 0.1 * np.exp(-(((x - 40.0) / 9.0) ** 2)) + 0.01 * x)
    u = staticmethod(lambda x: 0.02 * np.sin(0.2 * x))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_operator_centers_match_projection(self, p, d):
        funcs = [self.h, self.u][:d]
        mesh = Mesh1D(100.0, 7)
        op = DGOperator(swe_system(SWEConfig()) if d == 2 else scalar_system(1.0), mesh, p)
        y = op.project(funcs)
        # row m of the blocks is element m's flattened (d, p+1) coefficients
        assert op.blocks_shape == (7, d * (p + 1))
        assert np.array_equal(y, project_dg(funcs, mesh, p).ravel())
        assert np.array_equal(op.centers(y), eval_at_centers(project_dg(funcs, mesh, p)))
        # the maps act from the right as C-contiguous arrays; transposed views are slower
        for name in ("diag", "lower", "upper", "trace_left", "trace_right"):
            assert getattr(op, name).flags.c_contiguous, name

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_coupled_split_views_the_flat_state(self, p):
        model = CoupledModel(SWEConfig(), Mesh1D(100.0, 7), p, BasisSpec("functions", 0.05, 9))
        y = model.initial_state(self.h, self.u)
        dg, semi = model.split(y)
        assert np.shares_memory(dg, y) and np.shares_memory(semi, y)
        assert np.array_equal(dg.ravel(), model.dg_op.project([self.h, self.u]))
        assert semi.shape == (2, 10)
        assert np.array_equal(model.centers_view(y), eval_at_centers(project_dg([self.h, self.u], model.mesh, p)))

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_dg_only_centers_match_projection(self, p):
        mesh = Mesh1D(100.0, 7)
        model = DGOnlyModel(swe_system(SWEConfig()), mesh, p)
        y = model.initial_state(self.h, self.u)
        expect = eval_at_centers(project_dg([self.h, self.u], mesh, p))
        assert np.array_equal(model.centers_view(y), expect)


class TestEnergies:
    """DGOperator.energy and semi_energy against closed forms, with h != u so that
    a mix-up of the h and u parts of a split state fails directly."""

    cfg = SWEConfig(H=2.0, grav=9.81)

    def test_dg_energy_of_linear_profiles(self):
        # the p = 1 projection of a linear profile is exact; on [0, L]
        # integral (a + b x)^2 dx = a^2 L + a b L^2 + b^2 L^3 / 3
        L = 10.0
        model = CoupledModel(self.cfg, Mesh1D(L, 8), 1, BasisSpec("functions", 0.5, 6))
        y = model.initial_state(lambda x: 0.3 + 0.02 * x, lambda x: -0.1 + 0.05 * x)
        square = lambda a, b: a * a * L + a * b * L ** 2 + b * b * L ** 3 / 3.0
        expect = 0.5 * (self.cfg.grav * square(0.3, 0.02) + self.cfg.H * square(-0.1, 0.05))
        got = model.dg_op.energy(model.split(y)[0], (self.cfg.grav, self.cfg.H))
        assert got == pytest.approx(expect, rel=1e-13, abs=0.0)

    def test_semi_energy_of_the_first_basis_functions(self):
        # h = Lhat_0(beta z) = exp(-beta z / 2) and u = Lhat_1(beta z) / 2 are
        # orthogonal with norm^2 1 / beta, so the energy is (g + H / 4) / (2 beta)
        beta = 0.05
        spec = BasisSpec("functions", beta, 12)
        h = lambda z: np.exp(-beta * z / 2.0)
        u = lambda z: 0.5 * np.exp(-beta * z / 2.0) * (1.0 - beta * z)
        got = semi_energy(project_semi([h, u], spec), beta, self.cfg.grav, self.cfg.H)
        expect = (self.cfg.grav + 0.25 * self.cfg.H) / (2.0 * beta)
        assert got == pytest.approx(expect, rel=1e-13, abs=0.0)
        assert semi_energy(project_semi([h, lambda z: 0.0 * z], spec), beta, self.cfg.grav, self.cfg.H) \
            == pytest.approx(self.cfg.grav / (2.0 * beta), rel=1e-13, abs=0.0)


class TestCallContract:
    """Per RK3 stage each model makes one DGOperator.rhs call, which forms
    its left ghost with one characteristic_ghost call, and a coupled model
    makes one LaguerreModalOperator.rhs call per CoupledModel.rhs call.
    The benchmark's traced run asserts the same counts."""

    n_steps = 4

    @staticmethod
    def _model(kind):
        mesh = Mesh1D(2000.0, 20)
        spec = BasisSpec("functions", 0.01, 9)
        damping = SigmoidDamping(dgamma=0.1, alpha=0.25, sigma_over_l0=0.05)
        forcing = dict(left_bc=lambda t: np.array([0.0, 0.01 * np.sin(0.1 * t)]),
                       left_mask=np.array([False, True]))
        if kind == "coupled":
            return CoupledModel(SWEConfig(), mesh, 1, spec, damping=damping)
        if kind == "masked-coupled":
            return CoupledModel(SWEConfig(), mesh, 1, spec, **forcing, damping=damping)
        if kind == "wall":
            return DGOnlyModel(swe_system(SWEConfig()), mesh, 1, reflect_right=True)
        return DGOnlyModel(swe_system(SWEConfig()), Mesh1D(4000.0, 40), 1)

    @pytest.mark.parametrize("kind", ["coupled", "masked-coupled", "wall", "reference"])
    def test_calls_per_stage(self, kind, monkeypatch):
        counts = Counter()

        def count(owner, name):
            inner = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name if owner is lagdg.dg else f"{owner.__name__}.{name}"] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(lagdg.dg, "characteristic_ghost")
        count(DGOperator, "rhs")
        count(LaguerreModalOperator, "rhs")
        count(CoupledModel, "rhs")
        model = self._model(kind)
        y0 = model.initial_state(lambda x: 0.1 * np.exp(-(((x - 1000.0) / 300.0) ** 2)), np.zeros_like)
        run_simulation(model.rhs, y0, 0.0, 5.0, self.n_steps)

        stages = 3 * self.n_steps
        coupled = isinstance(model, CoupledModel)
        assert counts["DGOperator.rhs"] == stages
        assert counts["characteristic_ghost"] == counts["DGOperator.rhs"]
        assert counts["CoupledModel.rhs"] == (stages if coupled else 0)
        assert counts["LaguerreModalOperator.rhs"] == counts["CoupledModel.rhs"]
