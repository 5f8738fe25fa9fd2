import numpy as np
import pytest

from lagdg.advection import SchemeVariant, assemble
from lagdg.basis import BasisSpec, laguerre_fun_table
from lagdg.coupled import SWEConfig, swe_system
from lagdg.semiinf import (
    HyperbolicSystem,
    LaguerreModalOperator,
    SigmoidDamping,
    default_rule,
    flux_split,
    project,
    reconstruct,
    scalar_system,
    sigmoid_gamma,
)


def swe_eig(H, g):
    c = np.sqrt(g * H)
    V = np.array([[H, H], [c, -c]])
    Vinv = np.array([[c, H], [c, -H]]) / (2 * H * c)
    return V, np.array([c, -c]), Vinv


class TestFluxSplit:
    def test_diagonal(self):
        a = np.diag([3.0, -2.0])
        ap, am = flux_split(a, (np.eye(2), np.array([3.0, -2.0]), np.eye(2)))
        assert ap == pytest.approx(np.diag([3.0, 0.0]))
        assert am == pytest.approx(np.diag([0.0, -2.0]))

    def test_all_positive_speeds(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        V = np.array([[1.0, 1.0], [0.0, -1.0]])
        ap, am = flux_split(a, (V, np.array([2.0, 1.0]), np.linalg.inv(V)))
        assert am == pytest.approx(np.zeros((2, 2)), abs=1e-14)
        assert ap == pytest.approx(a)

    def test_swe_matrix(self):
        H, g = 1.0, 9.81
        a = np.array([[0.0, H], [g, 0.0]])
        ap, am = flux_split(a, swe_eig(H, g))
        c = np.sqrt(g * H)
        assert ap + am == pytest.approx(a, abs=1e-12)
        lam = np.linalg.eigvals(ap - am)
        assert np.sort(lam.real) == pytest.approx([c, c])
        assert np.max(np.abs(np.linalg.eigvals(ap).real.min())) >= 0

    def test_complex_speeds_rejected(self):
        V = np.array([[1.0, 1.0], [1j, -1j]])
        with pytest.raises(ValueError):
            flux_split(np.eye(2), (V, np.array([1j, -1j]), np.linalg.inv(V)))


class TestProjection:
    def test_basis_member_projects_to_unit_vector(self):
        spec = BasisSpec("functions", 1.0, 8)
        f = lambda z: laguerre_fun_table(2, z)[2]
        coeffs = project([f], spec)
        e2 = np.zeros(9)
        e2[2] = 1.0
        assert coeffs.shape == (1, 9)
        assert coeffs[0] == pytest.approx(e2, abs=1e-10)

    def test_zero_function(self):
        spec = BasisSpec("functions", 2.0, 5)
        assert np.all(project([lambda z: np.zeros_like(z)], spec) == 0)

    def test_non_finite_values_rejected(self):
        spec = BasisSpec("functions", 1.0, 5)
        with pytest.raises(ValueError, match="non-finite"):
            project([lambda z: np.full_like(z, np.nan)], spec)

    def test_reconstruction_convergence(self):
        f = lambda z: np.exp(-z)
        rng = np.random.default_rng(2)
        zs = rng.uniform(0.0, 4.0, size=10)
        errs = []
        for M in (8, 16, 32):
            spec = BasisSpec("functions", 1.0, M)
            vals = reconstruct(project([f], spec), spec, zs)[0]
            errs.append(np.max(np.abs(vals - f(zs)) / np.abs(f(zs))))
        assert errs[1] < errs[0] * 2 and errs[2] < errs[1] * 2
        assert errs[2] < errs[0]

    def test_project_reconstruct_identity_on_span(self):
        spec = BasisSpec("functions", 1.5, 10)
        rng = np.random.default_rng(4)
        coeffs = rng.normal(size=(1, 11))
        f = lambda z: reconstruct(coeffs, spec, z)[0]
        back = project([f], spec)
        assert back == pytest.approx(coeffs, abs=1e-9)

    def test_reconstruct_at_origin_and_errors(self):
        spec = BasisSpec("functions", 1.0, 3)
        coeffs = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert reconstruct(coeffs, spec, 0.0)[0, 0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            reconstruct(coeffs, spec, -0.5)


class TestTrace:
    def test_zero_and_plain_sum(self):
        # every Lhat_j is 1 at the origin, so the trace is the plain coefficient sum
        spec = BasisSpec("functions", 1.0, 2)
        assert reconstruct(np.zeros((2, 3)), spec, 0.0)[:, 0] == pytest.approx([0.0, 0.0])
        assert reconstruct(np.array([[1.0, -1.0, 0.5]]), spec, 0.0)[:, 0] == pytest.approx([0.5])

    def test_matches_series_evaluation(self):
        spec = BasisSpec("functions", 0.7, 14)
        f = lambda z: np.exp(-0.5 * z) * np.cos(z)
        coeffs = project([f], spec)
        tr = coeffs.sum(axis=1)
        assert tr[0] == pytest.approx(reconstruct(coeffs, spec, 0.0)[0, 0], abs=1e-12)


class TestModalRhs:
    def test_scalar_inflow_reduces_to_advection_operator(self):
        beta, M, u, qL = 1.3, 7, 1.0, 2.0
        spec = BasisSpec("functions", beta, M)
        rng = np.random.default_rng(0)
        q = rng.normal(size=(1, M + 1))
        got = LaguerreModalOperator(scalar_system(u), spec).rhs(q, 0.0, np.array([qL]))
        op = assemble(SchemeVariant("modal", "functions", direction="inflow", q_left=qL), beta, M, u)
        assert got[0] == pytest.approx(op.A @ q[0] + op.g, abs=1e-13)

    def test_scalar_outflow_reduces_to_advection_operator(self):
        beta, M, u = 0.8, 6, -1.0
        spec = BasisSpec("functions", beta, M)
        rng = np.random.default_rng(1)
        q = rng.normal(size=(1, M + 1))
        got = LaguerreModalOperator(scalar_system(u), spec).rhs(q, 0.0, np.array([0.0]))
        op = assemble(SchemeVariant("modal", "functions", direction="outflow"), beta, M, u)
        assert got[0] == pytest.approx(op.A @ q[0] + op.g, abs=1e-13)

    def test_swe_matches_characteristic_decoupling_oracle(self):
        # diagonalize, apply the scalar modal operator per characteristic,
        # transform back; matches the system right-hand side
        beta, M = 0.05, 12
        cfg = SWEConfig(H=1.0, U=0.0, grav=9.81)
        sys = swe_system(cfg)
        spec = BasisSpec("functions", beta, M)
        rng = np.random.default_rng(5)
        q = rng.normal(size=(2, M + 1))
        gvec = rng.normal(size=2)
        got = LaguerreModalOperator(sys, spec).rhs(q, 0.0, gvec)

        V, lam, Vinv = sys.eig
        w = Vinv @ q
        gw = Vinv @ gvec
        low = np.tril(np.ones((M + 1, M + 1)))
        np.fill_diagonal(low, 0.5)
        w_dot = np.empty_like(w)
        for r in range(2):
            if lam[r] > 0:
                w_dot[r] = -beta * lam[r] * (low @ w[r]) + beta * lam[r] * gw[r]
            else:
                w_dot[r] = beta * lam[r] * (low.T @ w[r])
        expect = V @ w_dot
        assert got == pytest.approx(expect, abs=1e-10)

    def test_linearity_in_state(self):
        sys = swe_system(SWEConfig())
        spec = BasisSpec("functions", 0.02, 9)
        op = LaguerreModalOperator(sys, spec)
        rng = np.random.default_rng(6)
        q1 = rng.normal(size=(2, 10))
        q2 = rng.normal(size=(2, 10))
        zero_g = np.zeros(2)
        lhs = op.rhs(2.5 * q1 + q2, 0.0, zero_g)
        rhs = 2.5 * op.rhs(q1, 0.0, zero_g) + op.rhs(q2, 0.0, zero_g)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_system_operator_spectrum_bound(self):
        # Kronecker assembly over characteristics: max Re <= -beta*c/2 for
        # the undamped system
        beta, M = 0.1, 8
        cfg = SWEConfig()
        sys = swe_system(cfg)
        V, lam, Vinv = sys.eig
        n = M + 1
        low = np.tril(np.ones((n, n)))
        np.fill_diagonal(low, 0.5)
        blocks = []
        for r in range(2):
            blocks.append(-beta * lam[r] * low if lam[r] > 0 else beta * lam[r] * low.T)
        big = np.kron(V, np.eye(n)) @ np.block([
            [blocks[0], np.zeros((n, n))], [np.zeros((n, n)), blocks[1]],
        ]) @ np.kron(Vinv, np.eye(n))
        lam_all = np.linalg.eigvals(big)
        c = cfg.wave_speed
        # exact spectrum is -beta*c/2 with full multiplicity; the dense
        # solver scatters the defective cluster by a few percent
        assert np.max(np.abs(lam_all + 0.5 * beta * c)) <= 0.1 * beta * c
        assert np.max(lam_all.real) < 0.0

    def test_damping_matches_quadrature_oracle(self):
        # damping gamma(z) enters through projected integrals; compare the
        # operator path against direct quadrature assembly
        beta, M = 0.01, 10
        damping = SigmoidDamping(dgamma=0.1, alpha=0.2, sigma_over_l0=0.02)
        sys = swe_system(SWEConfig())
        spec = BasisSpec("functions", beta, M)
        op = LaguerreModalOperator(sys, spec, damping)
        rng = np.random.default_rng(8)
        q = rng.normal(size=(2, M + 1))
        got = op.rhs(q, 0.0, np.zeros(2))

        undamped = LaguerreModalOperator(sys, spec).rhs(q, 0.0, np.zeros(2))
        rule = default_rule(spec)
        phi = laguerre_fun_table(M, beta * rule.nodes)
        gam = sigmoid_gamma(damping, rule.nodes[-1], rule.nodes)
        G = (phi * (rule.weights * gam)) @ phi.T
        expect = undamped - beta * np.array([G @ q[0], G @ q[1]])
        assert got == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("M", [6, 14, 29])
    def test_damping_layer_is_placed_at_the_last_node(self, M):
        # alpha = 1 centres the layer on L0, the last node of the GLR rule, so
        # gamma(alpha L0) = dgamma / 2; the layer is so steep that every other
        # node sees gamma = 0, and the reaction is that one node's quadrature term
        beta = 0.05
        damping = SigmoidDamping(dgamma=0.4, alpha=1.0, sigma_over_l0=1e-6)
        sys = swe_system(SWEConfig())
        spec = BasisSpec("functions", beta, M)
        op = LaguerreModalOperator(sys, spec, damping)
        rule = default_rule(spec)
        L0 = rule.nodes[-1]
        assert sigmoid_gamma(damping, L0, damping.alpha * L0) == 0.2
        phi_last = laguerre_fun_table(M, beta * L0)
        reaction = -beta * 0.2 * rule.weights[-1] * np.outer(phi_last, phi_last)
        got = op.K - LaguerreModalOperator(sys, spec).K
        expect = np.kron(np.eye(2), reaction)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


_SYSTEMS = {"u=+1": scalar_system(1.0), "u=-1": scalar_system(-1.0), "swe-U0.3": swe_system(SWEConfig(U=0.3))}


def _dense_rhs(op: LaguerreModalOperator, q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The right-hand side as the dense K product plus the inflow term
    beta A+ g: the operator the spectra assemble."""
    return (op.K @ q.ravel()).reshape(q.shape) + (op.spec.beta * op.a_plus @ g)[:, None]


class TestStructuredApply:
    # undamped, rhs applies T as a cumulative sum and never reads K; the swe
    # system at U = 0.3 has a non-symmetric a, so a transposed mix would show

    @pytest.mark.parametrize("M", [0, 1, 14, 180])
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_undamped_matches_dense_operator(self, system, M):
        sys = _SYSTEMS[system]
        op = LaguerreModalOperator(sys, BasisSpec("functions", 0.05, M))
        rng = np.random.default_rng(M)
        q, g = rng.normal(size=(sys.d, M + 1)), rng.normal(size=sys.d)
        got, expect = op.rhs(q, 0.0, g), _dense_rhs(op, q, g)
        assert got.shape == q.shape
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("M", [1, 14, 180])
    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_damped_applies_the_dense_operator(self, system, M):
        # the reaction term fills K, so a damped rhs keeps the dense product bit for bit
        sys = _SYSTEMS[system]
        op = LaguerreModalOperator(sys, BasisSpec("functions", 0.05, M), SigmoidDamping(0.1, 0.2, 0.02))
        rng = np.random.default_rng(M)
        q, g = rng.normal(size=(sys.d, M + 1)), rng.normal(size=sys.d)
        assert np.array_equal(op.rhs(q, 0.0, g), _dense_rhs(op, q, g))

    @pytest.mark.parametrize("system", sorted(_SYSTEMS))
    def test_damped_rhs_reads_no_outgoing_feedback(self, system):
        # K holds beta A- (x) 11^T, so a damped rhs never reads A- or the trace
        sys = _SYSTEMS[system]
        op = LaguerreModalOperator(sys, BasisSpec("functions", 0.05, 14), SigmoidDamping(0.1, 0.2, 0.02))
        rng = np.random.default_rng(4)
        q, g = rng.normal(size=(sys.d, 15)), rng.normal(size=sys.d)
        expect = op.rhs(q, 0.0, g)
        op.a_minus = np.full_like(op.a_minus, np.nan)
        assert np.array_equal(op.rhs(q, 0.0, g), expect)


class TestStateValidation:
    def test_requires_function_basis(self):
        spec = BasisSpec("polynomials", 1.0, 3)
        with pytest.raises(ValueError, match="function basis"):
            project([lambda z: np.ones_like(z)], spec)
        with pytest.raises(ValueError, match="function basis"):
            LaguerreModalOperator(scalar_system(1.0), spec)

    @pytest.mark.parametrize("shape", [(2, 3), (2,), (2, 2, 2)], ids=["rect", "vector", "3d"])
    def test_system_matrix_must_be_square(self, shape):
        with pytest.raises(ValueError, match=r"\(d, d\)"):
            HyperbolicSystem(np.zeros(shape), (np.eye(2), np.ones(2), np.eye(2)))
