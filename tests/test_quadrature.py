import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lagdg import quadrature
from lagdg.advection import SchemeVariant, assemble
from lagdg.basis import BasisSpec, laguerre_fun_table, laguerre_poly_table
from lagdg.cli import main
from lagdg.quadrature import build_diff_matrix, build_rule, cardinal_values_at_origin
from lagdg.semiinf import LaguerreModalOperator, scalar_system


def barycentric_at_origin(nodes):
    """Second-form barycentric oracle for every cardinal polynomial at z = 0
    (Berrut & Trefethen, SIAM Review 46, 2004); e_j when z_j = 0 is a node."""
    if np.any(nodes == 0.0):
        return (nodes == 0.0).astype(float)
    lam = np.array([1.0 / np.prod(nodes[k] - np.delete(nodes, k)) for k in range(len(nodes))])
    terms = lam / (0.0 - nodes)
    return terms / terms.sum()


def product_loop_at_origin(rule):
    """The scalar Lagrange product at z = 0, one node and one factor at a
    time: the loop the spectra goldens were captured with."""
    z = rule.nodes
    out = []
    for j in range(rule.n):
        val = 1.0
        for m in range(rule.n):
            if m != j:
                val *= (0.0 - z[m]) / (z[j] - z[m])
        if rule.basis_kind == "functions":
            val *= np.exp(-0.5 * rule.beta * (0.0 - z[j]))
        out.append(float(val))
    return np.array(out)


class TestRuleConstruction:
    def test_one_point_rule(self):
        rule = build_rule("gl", "polynomials", 1.0, 0)
        assert rule.nodes == pytest.approx([1.0])
        assert rule.weights == pytest.approx([1.0])

    def test_glr_has_origin_node(self):
        for basis in ("functions", "polynomials"):
            rule = build_rule("glr", basis, 2.0, 10)
            assert rule.nodes[0] == 0.0
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all(rule.weights > 0)

    def test_gl_moments_factorial(self):
        rule = build_rule("gl", "polynomials", 1.0, 7)
        for k in range(16):
            val = np.sum(rule.weights * rule.nodes**k)
            assert val == pytest.approx(math.factorial(k), rel=1e-10)

    def test_glr_exact_to_degree_2m(self):
        M = 10
        rule = build_rule("glr", "polynomials", 1.0, M)
        for k in range(2 * M + 1):
            val = np.sum(rule.weights * rule.nodes**k)
            assert val == pytest.approx(math.factorial(k), rel=1e-10)

    @pytest.mark.parametrize("node_kind,max_deg", [("gl", 15), ("glr", 14)])
    def test_scaled_moments(self, node_kind, max_deg):
        # int z^k exp(-beta z) dz = k! / beta^(k+1)
        beta, M = 2.5, 7
        rule = build_rule(node_kind, "polynomials", beta, M)
        rng = np.random.default_rng(5)
        for k in rng.integers(0, max_deg + 1, size=8):
            val = np.sum(rule.weights * rule.nodes ** int(k))
            assert val == pytest.approx(math.factorial(int(k)) / beta ** (int(k) + 1), rel=1e-10)

    def test_function_weights_absorb_exponential(self):
        # sum w_l f(z_l) ~ int f dz for f = z^k exp(-beta z)
        beta, M = 1.5, 9
        rule = build_rule("gl", "functions", beta, M)
        for k in (0, 3, 7):
            f = rule.nodes**k * np.exp(-beta * rule.nodes)
            assert np.sum(rule.weights * f) == pytest.approx(
                math.factorial(k) / beta ** (k + 1), rel=1e-10)

    def test_large_order_function_rule_is_finite(self):
        rule = build_rule("gl", "functions", 1.0, 200)
        assert np.all(np.isfinite(rule.weights)) and np.all(rule.weights > 0)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_rule("glr", "functions", 1.0, 0)
        with pytest.raises(ValueError):
            build_rule("gl", "functions", 1.0, 201)
        with pytest.raises(ValueError):
            build_rule("gl", "functions", -1.0, 5)
        for node_kind in ("gl", "glr"):
            for beta in (np.inf, np.nan):
                with pytest.raises(ValueError, match="finite"):
                    build_rule(node_kind, "functions", beta, 10)

    def test_underflowing_polynomial_weights_raise_and_exit_3(self, tmp_path):
        # the scaled classical weights must stay normal doubles: at
        # beta = 100, M = 193 the smallest one is exactly 0.0
        with pytest.raises(RuntimeError, match="underflow"):
            build_rule("gl", "polynomials", 100.0, 193)
        assert main(["rule", "--basis", "polynomials", "--M", "194", "--output", str(tmp_path)]) == 3


_gen_spec = importlib.util.spec_from_file_location(
    "make_unit_nodes", Path(__file__).resolve().parents[1] / "tools" / "make_unit_nodes.py")
make_unit_nodes = importlib.util.module_from_spec(_gen_spec)
_gen_spec.loader.exec_module(make_unit_nodes)


def glr_unit_per_node(M):
    """Reference: the generator's GLR Newton solve one node at a time.

    Same brackets, start, bracket update, bisection fallback and stopping
    test as ``make_unit_nodes.glr_unit``, on scalars.
    """
    n = M + 1
    gl_nodes = make_unit_nodes.gl_unit(n)

    def dval(x):
        tab = laguerre_poly_table(n, np.asarray(x))
        d = n * (tab[n] - tab[n - 1]) / x
        dd = ((x - 1.0) * d - n * tab[n]) / x
        return d, dd

    roots = np.empty(M)
    for k in range(M):
        lo, hi = gl_nodes[k], gl_nodes[k + 1]
        flo, _ = dval(lo)
        x = 0.5 * (lo + hi)
        for _ in range(make_unit_nodes._NEWTON_MAXIT):
            f, fp = dval(x)
            if np.sign(f) == np.sign(flo):
                lo = x
            else:
                hi = x
            x_new = x - f / fp
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            if abs(x_new - x) <= make_unit_nodes._NEWTON_TOL * max(abs(x), 1.0):
                x = x_new
                break
            x = x_new
        else:
            raise RuntimeError(f"GLR node {k} did not converge for M={M}")
        roots[k] = x
    return roots


class TestGolubWelsch:
    # numpy's dense eigh must reach the same dstedc call, with the same
    # (diag, off), as the tridiagonal driver; the goldens pin these bits
    @staticmethod
    def _assert_matches_tridiagonal(diag, off):
        linalg = pytest.importorskip("scipy.linalg")
        nodes, weights = quadrature._golub_welsch(diag, off)
        ref_nodes, ref_vecs = linalg.eigh_tridiagonal(diag, off)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_vecs[0] ** 2)

    def test_laguerre_bit_identical_to_tridiagonal_solver(self):
        for n in range(1, quadrature._MAX_M + 2):
            self._assert_matches_tridiagonal(2.0 * np.arange(n) + 1.0, np.arange(1.0, n))

    def test_legendre_bit_identical_to_tridiagonal_solver(self):
        for n in range(1, 13):
            k = np.arange(1, n)
            self._assert_matches_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))


class TestGLRNewton:
    @pytest.mark.parametrize("M", [*range(1, 41), 180])
    def test_bit_identical_to_per_node_solve(self, M):
        assert np.array_equal(make_unit_nodes.glr_unit(M), glr_unit_per_node(M))

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(make_unit_nodes, "_NEWTON_MAXIT", 2)
        with pytest.raises(RuntimeError, match="did not converge for M=20"):
            make_unit_nodes.glr_unit(20)


class TestUnitNodeTable:
    # every order a shipped config or benchmark workload builds
    @pytest.mark.parametrize("M", [*range(0, 51), 180, 200])
    def test_table_equals_the_generator(self, M):
        assert quadrature._gl_unit(M + 1).tobytes() == make_unit_nodes.gl_unit(M + 1).tobytes()
        if M >= 1:
            assert quadrature._glr_unit(M).tobytes() == make_unit_nodes.glr_unit(M).tobytes()

    def test_short_table_is_refused(self, monkeypatch, tmp_path):
        short = tmp_path / "unit_nodes.npy"
        np.save(short, quadrature._unit_nodes()[:-1])
        monkeypatch.setattr(quadrature, "_UNIT_NODES", short)
        quadrature._unit_nodes.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not the rules M <= 200"):
                quadrature._unit_nodes()
        finally:
            quadrature._unit_nodes.cache_clear()


class TestUnitRuleCache:
    @staticmethod
    def _build(node_kind, basis_kind, beta, M):
        try:
            return build_rule(node_kind, basis_kind, beta, M)
        except RuntimeError as exc:  # underflowing polynomial weights
            return str(exc)

    @staticmethod
    def _assert_bitwise_equal(a, b):
        if isinstance(a, str) or isinstance(b, str):
            assert a == b
            return
        assert (a.node_kind, a.basis_kind, a.beta, a.M) == (b.node_kind, b.basis_kind, b.beta, b.M)
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()

    @pytest.mark.parametrize("M", [1, 10, 25, 50, 180, 193])
    @pytest.mark.parametrize("basis_kind", ["functions", "polynomials"])
    @pytest.mark.parametrize("node_kind", ["gl", "glr"])
    def test_cached_build_is_bitwise_equal_to_uncached(self, cold_unit_rules, monkeypatch,
                                                       node_kind, basis_kind, M):
        betas = (0.0025, 0.25, 1.0, 2.0)
        cold = [self._build(node_kind, basis_kind, beta, M) for beta in betas]
        warm = [self._build(node_kind, basis_kind, beta, M) for beta in betas]
        monkeypatch.setattr(quadrature, "_unit_rule", quadrature._unit_rule.__wrapped__)
        for beta, a, b in zip(betas, cold, warm):
            expect = self._build(node_kind, basis_kind, beta, M)
            self._assert_bitwise_equal(a, expect)
            self._assert_bitwise_equal(b, expect)

    @pytest.mark.parametrize("node_kind", ["gl", "glr"])
    def test_cached_arrays_are_read_only(self, node_kind):
        for arr in quadrature._unit_rule(node_kind, 10):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("basis_kind", ["functions", "polynomials"])
    @pytest.mark.parametrize("node_kind", ["gl", "glr"])
    def test_writing_a_rule_leaves_the_next_build_unchanged(self, node_kind, basis_kind):
        rule = build_rule(node_kind, basis_kind, 1.0, 12)
        nodes, weights = rule.nodes.copy(), rule.weights.copy()
        rule.nodes[:] = -1.0
        rule.weights[:] = -1.0
        again = build_rule(node_kind, basis_kind, 1.0, 12)
        assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)

    def test_stability_sweep_solves_each_glr_order_once(self, cold_unit_rules, monkeypatch):
        # every variant that builds a rule, at one (beta, M) and then at a second beta
        solved = []
        glr_unit = quadrature._glr_unit

        def counting(M):
            solved.append(M)
            return glr_unit(M)

        monkeypatch.setattr(quadrature, "_glr_unit", counting)
        variants = [SchemeVariant(form, basis, nodes, direction)
                    for form in ("strong", "nodal") for basis in ("functions", "polynomials")
                    for nodes in ("gl", "glr") for direction in ("inflow", "outflow")
                    if not (form == "strong" and nodes == "gl")]
        assert len(variants) == 12
        for beta in (0.5, 2.0):
            for variant in variants:
                assemble(variant, beta, 25, 1.0 if variant.direction == "inflow" else -1.0)
        assert solved == [25]


CARDINAL_CASES = [(node, basis) for node in ("gl", "glr") for basis in ("functions", "polynomials")]


def cardinal_rules(node, basis):
    """Every rule of the node and basis family with M <= 50, at three betas."""
    for beta in (0.25, 1.0, 2.0):
        for M in range(0 if node == "gl" else 1, 51):
            yield build_rule(node, basis, beta, M)


class TestCardinalBasis:
    # shipped code evaluates the cardinal basis at one point, the origin

    @pytest.mark.parametrize("node, basis", CARDINAL_CASES)
    def test_bits_match_the_scalar_product_loop(self, node, basis):
        # the spectra goldens pin these bits, the sign of a zero included
        for rule in cardinal_rules(node, basis):
            h0, ref = cardinal_values_at_origin(rule), product_loop_at_origin(rule)
            assert np.array_equal(h0, ref) and np.array_equal(np.signbit(h0), np.signbit(ref)), rule.M

    @pytest.mark.parametrize("node, basis", CARDINAL_CASES)
    def test_against_barycentric_oracle(self, node, basis):
        for rule in cardinal_rules(node, basis):
            expect = barycentric_at_origin(rule.nodes)
            if basis == "functions":
                expect = expect * np.exp(0.5 * rule.beta * rule.nodes)
            assert cardinal_values_at_origin(rule) == pytest.approx(expect, rel=1e-12, abs=0), rule.M

    @pytest.mark.parametrize("node, basis", CARDINAL_CASES)
    def test_interpolation_identity(self, node, basis):
        # sum_j p(z_j) h_j = p(0) for every p the basis spans; numpy's Laguerre
        # polynomials L_k(beta z), k <= M, are all 1 at the origin (the
        # function family reproduces them times exp(-beta z / 2))
        for rule in cardinal_rules(node, basis):
            x = rule.beta * rule.nodes
            values = np.polynomial.laguerre.lagvander(x, rule.M).T
            if basis == "functions":
                values = values * np.exp(-0.5 * x)
            assert values @ cardinal_values_at_origin(rule) == pytest.approx(np.ones(rule.n), rel=0, abs=1e-12)

    def test_glr_boundary_values(self):
        rule = build_rule("glr", "functions", 2.0, 8)
        h0 = cardinal_values_at_origin(rule)
        assert h0[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(h0[1:])) < 1e-12


class TestDiffMatrix:
    def test_poly_rows_annihilate_constants(self):
        for node_kind in ("gl", "glr"):
            rule = build_rule(node_kind, "polynomials", 1.0, 12)
            D = build_diff_matrix(rule)
            assert np.max(np.abs(D @ np.ones(13))) < 1e-9

    def test_poly_differentiates_polynomials(self):
        rule = build_rule("glr", "polynomials", 2.0, 9)
        D = build_diff_matrix(rule)
        rng = np.random.default_rng(9)
        coef = rng.normal(size=10)
        p = np.polynomial.Polynomial(coef)
        dp = p.deriv()
        assert D @ p(rule.nodes) == pytest.approx(dp(rule.nodes), rel=1e-7, abs=1e-7)

    def test_function_matrix_matches_derivative_expansion(self):
        beta, M = 1.0, 5
        spec = BasisSpec(beta, M)
        rule = build_rule("glr", "functions", beta, M)
        D = build_diff_matrix(rule)
        # row 2 of the modal operator of q_t + q_z = 0 expands d/dz Lhat_2
        c = LaguerreModalOperator(scalar_system(1.0), spec).K[2]
        table = laguerre_fun_table(M, beta * rule.nodes)
        assert D @ table[2] == pytest.approx(c @ table, abs=1e-8)

    def test_beta_scaling(self):
        d1 = build_diff_matrix(build_rule("glr", "functions", 1.0, 6))
        d2 = build_diff_matrix(build_rule("glr", "functions", 2.0, 6))
        assert d2 == pytest.approx(2.0 * d1, rel=1e-10)

    def test_function_matrix_differentiates_envelope_polynomials(self):
        # exact derivative of p(z) exp(-beta z / 2) for p of degree <= M
        beta, M = 0.8, 6
        rule = build_rule("gl", "functions", beta, M)
        D = build_diff_matrix(rule)
        rng = np.random.default_rng(13)
        coef = rng.normal(size=M + 1)
        p = np.polynomial.Polynomial(coef)
        f = p(rule.nodes) * np.exp(-0.5 * beta * rule.nodes)
        df = (p.deriv()(rule.nodes) - 0.5 * beta * p(rule.nodes)) * np.exp(-0.5 * beta * rule.nodes)
        assert D @ f == pytest.approx(df, rel=1e-7, abs=1e-7)
