import numpy as np
import pytest

from lagdg.advection import (
    INFLOW,
    OUTFLOW,
    SchemeVariant,
    SemiDiscreteOperator,
    assemble,
)
from lagdg.basis import BasisSpec, laguerre_fun_table
from lagdg.quadrature import _MAX_M, build_diff_matrix, build_rule
from lagdg.semiinf import LaguerreModalOperator, scalar_system
from lagdg.spectrum import eigenvalues


def spectra_distance(a, b):
    """Greedy nearest-neighbor matching distance between two spectra."""
    lam_a = list(eigenvalues(a))
    lam_b = list(eigenvalues(b))
    worst = 0.0
    for z in lam_a:
        j = int(np.argmin([abs(z - w) for w in lam_b]))
        worst = max(worst, abs(z - lam_b.pop(j)))
    return worst


class TestModalVariants:
    def test_function_inflow_matrix_and_forcing(self):
        op = assemble(SchemeVariant("modal", "functions", direction=INFLOW, q_left=2.0), 1.0, 3, 1.0)
        expect = -np.tril(np.ones((4, 4)))
        np.fill_diagonal(expect, -0.5)
        assert op.A == pytest.approx(expect)
        assert op.g == pytest.approx(np.full(4, 2.0))
        assert op.dof_offset == 0

    @pytest.mark.parametrize("q_left", [0.0, 1.0, -1.3])
    @pytest.mark.parametrize("M", [0, 1, 10, 50, 180])
    @pytest.mark.parametrize("direction,u", [(INFLOW, 2.7), (OUTFLOW, -0.37)])
    def test_function_matrix_and_forcing_against_mode_coupling(self, direction, u, M, q_left):
        # T: strictly lower ones, 1/2 on the diagonal.  Inflow is -beta u T with
        # forcing beta u q_left; outflow adds the trace feedback beta u 11^T,
        # which leaves beta u T^T and no forcing.  Every entry is one product
        # or an exact cancellation, so the match is exact.
        beta = 0.3
        op = assemble(SchemeVariant("modal", "functions", direction=direction, q_left=q_left), beta, M, u)
        T = np.tril(np.ones((M + 1, M + 1)), -1)
        np.fill_diagonal(T, 0.5)
        if direction == INFLOW:
            assert np.array_equal(op.A, -beta * u * T)
            assert np.array_equal(op.g, np.full(M + 1, beta * u * q_left))
        else:
            assert np.array_equal(op.A, beta * u * T.T)
            assert np.all(op.g == 0)
        if M == 0:
            assert np.array_equal(op.A, [[-beta * abs(u) / 2]])

    @pytest.mark.parametrize("M", [0, 10, 25, 50, 180])
    @pytest.mark.parametrize("direction,u", [(INFLOW, 1.0), (OUTFLOW, -1.0)])
    def test_function_matrix_is_the_laguerre_operator(self, direction, u, M):
        # the spectra assemble the time stepper's K, outgoing trace feedback included
        beta = 0.5
        op = assemble(SchemeVariant("modal", "functions", direction=direction), beta, M, u)
        K = LaguerreModalOperator(scalar_system(u), BasisSpec("functions", beta, M)).K
        assert np.array_equal(op.A, K)
        if direction == INFLOW:
            # no outgoing characteristic, so nothing is added: -beta u * 0 stays -0.0
            assert np.all(np.signbit(K[np.triu_indices(M + 1, 1)]))

    def test_poly_outflow_strictly_upper(self):
        op = assemble(SchemeVariant("modal", "polynomials", direction=OUTFLOW), 1.0, 2, -1.0)
        assert op.A == pytest.approx(-np.triu(np.ones((3, 3)), 1))
        assert np.all(op.g == 0)
        assert np.max(np.abs(eigenvalues(op.A))) == 0.0

    def test_forcing_scales_with_beta(self):
        op = assemble(SchemeVariant("modal", "functions", direction=INFLOW, q_left=1.0), 2.0, 4, 3.0)
        assert op.g == pytest.approx(np.full(5, 6.0))

    @pytest.mark.parametrize("basis,direction,u,expect", [
        ("functions", INFLOW, 1.0, -0.5),
        ("functions", OUTFLOW, -1.0, -0.5),
        ("polynomials", INFLOW, 1.0, -1.0),
        ("polynomials", OUTFLOW, -1.0, 0.0),
    ])
    def test_diagonal_eigenvalues(self, basis, direction, u, expect):
        op = assemble(SchemeVariant("modal", basis, direction=direction), 1.0, 10, u)
        assert np.diag(op.A) == pytest.approx(np.full(11, expect))
        assert op.exact_eigenvalues == pytest.approx(np.full(11, expect + 0j))


class TestStrongCollocation:
    def test_outflow_matrix_is_differentiation(self):
        beta, M = 1.0, 5
        op = assemble(SchemeVariant("strong", "functions", direction=OUTFLOW), beta, M, -1.0)
        # row 2 of the modal operator of q_t + q_z = 0 expands d/dz Lhat_2
        c = LaguerreModalOperator(scalar_system(1.0), BasisSpec("functions", beta, M)).K[2]
        table = laguerre_fun_table(M, beta * build_rule("glr", "functions", beta, M).nodes)
        assert op.A @ table[2] == pytest.approx(c @ table, abs=1e-8)
        assert np.all(op.g == 0)

    def test_inflow_drops_boundary_dof(self):
        op = assemble(SchemeVariant("strong", "functions", direction=INFLOW, q_left=1.5), 1.0, 8, 1.0)
        assert op.n == 8
        assert op.dof_offset == 1

    def test_gl_nodes_rejected(self):
        with pytest.raises(ValueError):
            assemble(SchemeVariant("strong", "functions", node_kind="gl", direction=OUTFLOW), 1.0, 5, -1.0)


class TestWeakNodal:
    def test_outflow_forcing_is_zero(self):
        for basis in ("functions", "polynomials"):
            for nodes in ("gl", "glr"):
                op = assemble(SchemeVariant("nodal", basis, nodes, OUTFLOW), 1.0, 6, -1.0)
                assert np.all(op.g == 0)

    def test_glr_inflow_similarity_with_differentiation_block(self):
        # u Om^-1 D_M Om has the same spectrum as u D_M
        beta, M, u = 1.0, 9, 1.0
        op = assemble(SchemeVariant("nodal", "functions", "glr", INFLOW, q_left=0.0), beta, M, u)
        D = build_diff_matrix(build_rule("glr", "functions", beta, M))
        rho = np.max(np.abs(eigenvalues(u * D[1:, 1:])))
        assert spectra_distance(op.A, u * D[1:, 1:]) < 1e-8 * max(1.0, rho)

    def test_glr_function_inflow_spectrum_matches_collocation(self):
        # the weak nodal GLR scheme shares the (purely imaginary)
        # collocation spectrum; the matrices differ only by a weighted
        # similarity plus the summation-by-parts transposition
        beta, M, u = 1.3, 7, 1.0
        nodal = assemble(SchemeVariant("nodal", "functions", "glr", INFLOW, q_left=0.7), beta, M, u)
        strong = assemble(SchemeVariant("strong", "functions", "glr", INFLOW, q_left=0.7), beta, M, u)
        assert spectra_distance(nodal.A, strong.A) < 1e-8
        assert np.max(np.abs(eigenvalues(nodal.A).real)) < 1e-10

    def test_glr_poly_outflow_is_nilpotent(self):
        for M in (2, 4, 6):
            op = assemble(SchemeVariant("nodal", "polynomials", "glr", OUTFLOW), 1.0, M, -1.0)
            power = np.linalg.matrix_power(op.A, M + 1)
            scale = np.linalg.norm(op.A) ** (M + 1)
            assert np.linalg.norm(power) < 1e-10 * scale
            assert op.exact_eigenvalues == pytest.approx(np.zeros(M + 1, dtype=complex))

    def test_glr_poly_inflow_exact_spectrum_matches_dense_solver_at_small_m(self):
        # closed-form spectrum -beta u / 2 + i (beta u / 2) cot(pi m / (M+1));
        # dense QR is still reliable at this size
        beta, M, u = 1.0, 6, 1.0
        op = assemble(SchemeVariant("nodal", "polynomials", "glr", INFLOW), beta, M, u)
        lam_dense = np.sort(np.linalg.eigvals(op.A).imag)
        lam_exact = np.sort(np.asarray(op.exact_eigenvalues).imag)
        assert lam_dense == pytest.approx(lam_exact, abs=1e-10)
        assert np.real(op.exact_eigenvalues) == pytest.approx(np.full(M, -0.5 * beta * u))

    def test_m10_matrix_sizes(self):
        for nodes, direction, n in (("glr", INFLOW, 10), ("glr", OUTFLOW, 11),
                                    ("gl", INFLOW, 11), ("gl", OUTFLOW, 11)):
            u = 1.0 if direction == INFLOW else -1.0
            op = assemble(SchemeVariant("nodal", "functions", nodes, direction), 1.0, 10, u)
            assert op.n == n


ALL_VARIANTS = [SchemeVariant(form, basis, nodes, direction, q_left=1.0)
                for form, node_kinds in (("strong", ("glr",)), ("nodal", ("gl", "glr")), ("modal", ("glr",)))
                for basis in ("functions", "polynomials")
                for nodes in node_kinds
                for direction in (INFLOW, OUTFLOW)]


class TestBetaScaling:
    # beta only rescales z, so every assembled pair is beta times its beta = 1
    # pair: a dropped or doubled beta in any assembly path breaks that by O(1).
    # Measured: A within 2.6e-14 and g within 2.1e-14 of the largest entry.
    # M = 1 is left out: the GLR function inflow strong and nodal matrices are
    # then a 1x1 cancellation whose exact value is 0, and the ratio reads noise.
    @pytest.mark.parametrize("variant", ALL_VARIANTS,
                             ids=lambda v: f"{v.form}-{v.basis_kind}-{v.node_kind}-{v.direction}")
    def test_operator_scales_with_beta(self, variant):
        u = 1.0 if variant.direction == INFLOW else -1.0
        for M in (5, 10, 25):
            unit = assemble(variant, 1.0, M, u)
            for beta in (0.37, 2.0):
                op = assemble(variant, beta, M, u)
                assert np.max(np.abs(op.A - beta * unit.A)) <= 1e-12 * np.max(np.abs(op.A))
                assert np.max(np.abs(op.g - beta * unit.g)) <= 1e-12 * np.max(np.abs(op.g))


class TestApplyAndValidation:
    # dq/dt of an assembled pair is op.A @ q + op.g
    def test_zero_operator(self):
        op = SemiDiscreteOperator(np.zeros((3, 3)), np.zeros(3))
        assert op.A @ np.array([1.0, -2.0, 3.0]) + op.g == pytest.approx(np.zeros(3))
        assert (op.n, op.dof_offset, op.exact_eigenvalues) == (3, 0, None)

    def test_modal_single_mode_active(self):
        beta, u, M = 1.0, 1.0, 4
        op = assemble(SchemeVariant("modal", "functions", direction=INFLOW, q_left=0.0), beta, M, u)
        e0 = np.zeros(M + 1)
        e0[0] = 1.0
        expect = np.full(M + 1, -beta * u)
        expect[0] = -0.5 * beta * u
        assert op.A @ e0 + op.g == pytest.approx(expect)

    def test_matches_dense_product_oracle(self):
        # modal function inflow: dq_i/dt = beta u (q_left - sum_{k<i} q_k - q_i / 2)
        beta, u, q_left = 0.7, 1.3, 0.4
        q = np.random.default_rng(17).normal(size=6)
        op = assemble(SchemeVariant("modal", "functions", direction=INFLOW, q_left=q_left), beta, 5, u)
        expect = np.array([beta * u * (q_left - q[:i].sum() - 0.5 * q[i]) for i in range(6)])
        assert op.A @ q + op.g == pytest.approx(expect, abs=1e-13)

    # A constant equal to the inflow datum is a steady state: q_left times the
    # first scaled polynomial (modal), or at every node (strong collocation).
    @pytest.mark.parametrize("M", [0, 1, 5, 25, 50])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_modal_poly_inflow_keeps_the_datum_steady(self, beta, M):
        q_left = 0.7
        op = assemble(SchemeVariant("modal", "polynomials", direction=INFLOW, q_left=q_left), beta, M, 1.3)
        c = np.zeros(M + 1)
        c[0] = q_left
        assert np.all(op.A @ c + op.g == 0.0)

    @pytest.mark.parametrize("M", [1, 5, 10, 25, 50])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_strong_poly_inflow_keeps_the_datum_steady(self, beta, M):
        # measured: at most 1.1e-15 max|A| on this grid
        q_left = 0.7
        op = assemble(SchemeVariant("strong", "polynomials", direction=INFLOW, q_left=q_left), beta, M, 1.3)
        assert np.max(np.abs(op.A @ np.full(M, q_left) + op.g)) <= 1e-14 * np.max(np.abs(op.A))

    @pytest.mark.parametrize("form", ["strong", "nodal", "modal"])
    def test_order_above_supported_maximum_rejected(self, form):
        with pytest.raises(ValueError, match="exceeds the supported maximum"):
            assemble(SchemeVariant(form, "functions", direction=OUTFLOW), 1.0, _MAX_M + 1, -1.0)

    def test_direction_sign_mismatch(self):
        with pytest.raises(ValueError):
            assemble(SchemeVariant("modal", "functions", direction=INFLOW), 1.0, 4, -1.0)
        with pytest.raises(ValueError):
            assemble(SchemeVariant("modal", "functions", direction=OUTFLOW), 1.0, 4, 1.0)
        with pytest.raises(ValueError):
            assemble(SchemeVariant("modal", "functions", direction=INFLOW), 1.0, 4, 0.0)

    @pytest.mark.parametrize("beta, u", [(np.inf, 1.0), (np.nan, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_beta_or_speed_rejected(self, beta, u):
        with pytest.raises(ValueError, match="finite"):
            assemble(SchemeVariant("modal", "functions", direction=INFLOW), beta, 4, u)
