import math

import numpy as np
import pytest

from lagdg.advection import OUTFLOW, SchemeVariant, assemble
from lagdg.basis import BasisSpec, laguerre_fun_table, laguerre_poly_table, legendre_table
from lagdg.dg import Mesh1D, center_values, edge_values, project_dg
from lagdg.semiinf import LaguerreModalOperator, scalar_system


def laguerre_series(j, x):
    """Brute-force oracle: L_j(x) = sum_k C(j,k) (-x)^k / k!."""
    return sum(math.comb(j, k) * (-x) ** k / math.factorial(k) for k in range(j + 1))


def gauss_legendre_01(n=40):
    return np.polynomial.legendre.leggauss(n)


def poly_rows(spec, z):
    """Rows j = 0..M are the scaled polynomials L_j(beta z)."""
    return laguerre_poly_table(spec.M, spec.beta * np.asarray(z, dtype=float))


def fun_rows(spec, z):
    """Rows j = 0..M are the scaled functions exp(-beta z / 2) L_j(beta z)."""
    return laguerre_fun_table(spec.M, spec.beta * np.asarray(z, dtype=float))


def function_derivative_rows(spec):
    """Row i holds the c_k of d/dz Lhat_i = sum_k c_k Lhat_k: the modal
    operator of q_t + q_z = 0 is K = -beta T."""
    return LaguerreModalOperator(scalar_system(1.0), spec).K


def poly_derivative_columns(spec):
    """Column i holds the c_k of d/dz L_i(beta z) = sum_k c_k L_k(beta z):
    with u = -1 the modal outflow operator has no boundary term, so its
    column i is the expansion of -u d/dz L_i."""
    return assemble(SchemeVariant("modal", spec.kind, direction=OUTFLOW), spec.beta, spec.M, -1.0).A


class TestLaguerrePoly:
    def test_degree_zero_is_one(self):
        spec = BasisSpec("polynomials", 1.0, 5)
        assert poly_rows(spec, 5.0)[0] == 1.0

    def test_degree_one_root(self):
        spec = BasisSpec("polynomials", 2.0, 3)
        assert poly_rows(spec, 0.5)[1] == pytest.approx(0.0, abs=1e-15)

    def test_against_series_oracle(self):
        spec = BasisSpec("polynomials", 1.0, 8)
        assert poly_rows(spec, 2.0)[5] == pytest.approx(laguerre_series(5, 2.0), rel=1e-13)

    def test_random_points_series_oracle(self):
        spec = BasisSpec("polynomials", 0.7, 10)
        zs = np.random.default_rng(3).uniform(0, 8, size=12)
        table = poly_rows(spec, zs)
        for m, z in enumerate(zs):
            for j in (2, 6, 10):
                assert table[j, m] == pytest.approx(laguerre_series(j, 0.7 * z), rel=1e-11)


class TestLaguerreFun:
    def test_value_one_at_origin(self):
        spec = BasisSpec("functions", 1.0, 10)
        assert fun_rows(spec, 0.0) == pytest.approx(np.ones(11), abs=1e-14)

    def test_exponential_identity(self):
        spec = BasisSpec("functions", 1.0, 2)
        assert fun_rows(spec, math.log(4.0))[0] == pytest.approx(0.5, rel=1e-14)

    def test_series_oracle_composition(self):
        spec = BasisSpec("functions", 0.5, 5)
        expect = math.exp(-1.0) * laguerre_series(3, 2.0)
        assert fun_rows(spec, 4.0)[3] == pytest.approx(expect, rel=1e-13)

    def test_recurrence_consistency_with_poly(self):
        # exp(beta z / 2) * Lhat_j == L_j up to the range where L_j is finite
        for beta in (0.5, 1.0, 2.0):
            spec_f = BasisSpec("functions", beta, 30)
            spec_p = BasisSpec("polynomials", beta, 30)
            zs = np.linspace(0.1, 50.0 / beta, 9)
            lhs = fun_rows(spec_f, zs) * np.exp(0.5 * beta * zs)
            rhs = poly_rows(spec_p, zs)
            for j in (7, 19, 30):
                for m in range(len(zs)):
                    assert lhs[j, m] == pytest.approx(rhs[j, m], rel=1e-12, abs=1e-12)

    def test_no_overflow_at_large_index_and_argument(self):
        spec = BasisSpec("functions", 1.0, 200)
        assert np.all(np.isfinite(fun_rows(spec, 700.0)))


class TestDerivativeExpansions:
    def test_function_expansion_coefficients(self):
        K = function_derivative_rows(BasisSpec("functions", 2.0, 4))
        assert np.allclose(K[2], [-2.0, -2.0, -1.0, 0.0, 0.0])
        K1 = function_derivative_rows(BasisSpec("functions", 1.0, 1))
        assert np.allclose(K1[0], [-0.5, 0.0])

    def test_poly_expansion_coefficients(self):
        A = poly_derivative_columns(BasisSpec("polynomials", 3.0, 4))
        assert np.allclose(A[:, 2], [-3.0, -3.0, 0.0, 0.0, 0.0])
        assert np.allclose(A[:, 0], np.zeros(5))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_function_expansion_matches_finite_differences(self, beta):
        spec = BasisSpec("functions", beta, 6)
        K = function_derivative_rows(spec)
        rng = np.random.default_rng(11)
        h = 1e-6 / beta
        for z in rng.uniform(0.05, 10.0 / beta, size=20):
            recon = K @ fun_rows(spec, z)
            fd = (fun_rows(spec, z + h) - fun_rows(spec, z - h)) / (2 * h)
            for i in (1, 4, 6):
                assert recon[i] == pytest.approx(fd[i], rel=1e-6, abs=1e-8)

    def test_poly_expansion_matches_finite_differences(self):
        spec = BasisSpec("polynomials", 1.0, 5)
        z, h = 0.7, 1e-6
        recon = poly_derivative_columns(spec)[:, 5] @ poly_rows(spec, z)
        fd = (poly_rows(spec, z + h)[5] - poly_rows(spec, z - h)[5]) / (2 * h)
        assert recon == pytest.approx(fd, rel=1e-7)


class TestLegendreDGBasis:
    # the element basis sqrt(2l+1) P_l(2 (z - z_m) / dz) as the DG code
    # ships it: edge_values, center_values and project_dg
    def test_constant_mode(self):
        left, right = edge_values(3)
        assert (left[0], center_values(3)[0], right[0]) == (1.0, 1.0, 1.0)

    def test_linear_mode_normalization(self):
        # z = 1 + xi on the element [0, 2] is phi_0 + phi_1 / sqrt(3)
        coeffs = project_dg([lambda z: z], Mesh1D(2.0, 1), 1)
        assert coeffs[0, 0] == pytest.approx([1.0, 1.0 / math.sqrt(3)], abs=1e-14)
        left, right = edge_values(1)
        assert (left[1], center_values(1)[1], right[1]) == pytest.approx((-math.sqrt(3), 0.0, math.sqrt(3)))

    def test_orthonormality_under_quadrature(self):
        # projecting each basis member (from numpy's Legendre series) gives
        # its unit vector: the element mass matrix is dz times the identity
        dz, p = 2.0, 3
        for l in range(p + 1):
            phi = np.polynomial.legendre.Legendre.basis(l, domain=[0.0, dz])
            coeffs = project_dg([lambda z: math.sqrt(2 * l + 1) * phi(z)], Mesh1D(dz, 1), p)
            assert coeffs[0, 0] == pytest.approx(np.eye(p + 1)[l], abs=1e-12)

    def test_legendre_orthogonality(self):
        xi, w = gauss_legendre_01()
        table = legendre_table(8, xi)
        gram = (table * w) @ table.T
        assert gram == pytest.approx(np.diag(2.0 / (2 * np.arange(9) + 1)), abs=1e-12)


class TestLegendreTable:
    @pytest.mark.parametrize("p", [0, 1, 2, 7, 20])
    def test_against_numpy_legvander(self, p):
        x = np.random.default_rng(p).uniform(-1.0, 1.0, size=(3, 5))
        table = legendre_table(p, x)
        assert table.shape == (p + 1, 3, 5)
        expect = np.moveaxis(np.polynomial.legendre.legvander(x, p), -1, 0)
        assert table == pytest.approx(expect, rel=1e-13, abs=1e-14)

    def test_scalar_point_and_end_values(self):
        # P_l(1) = 1 and P_l(-1) = (-1)^l exactly; a scalar x gives shape (p+1,)
        assert legendre_table(6, 1.0).tolist() == [1.0] * 7
        assert legendre_table(6, -1.0).tolist() == [(-1.0) ** l for l in range(7)]


class TestBasisSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BasisSpec("functions", 0.0, 3)
        with pytest.raises(ValueError):
            BasisSpec("functions", 1.0, -1)
        with pytest.raises(ValueError):
            BasisSpec("hermite", 1.0, 3)
        for beta in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                BasisSpec("functions", beta, 3)
