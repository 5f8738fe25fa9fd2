"""High-precision oracle for the weak nodal GL outflow operators.

The operators of ``advection._nodal_operator`` on Gauss-Laguerre nodes are
re-assembled in mpmath at 80 digits from textbook formulas that share no
code with lagdg: nodes are roots of ``mp.laguerre`` polished by
``mp.findroot`` (seeded by numpy's ``laggauss``), classical weights come
from the closed form x_i / ((n+1) L_{n+1}(x_i))^2 (Abramowitz & Stegun
25.4.45), and D and the origin values h come from the Lagrange product
formulas.  The double-precision entries and spectra are compared against
that assembly, and the blow-up constant that criterion 1 asserts for the
polynomial basis at M = 10 is checked against the 80-digit spectrum.

GLR rules are checked the same way: the zeros of L'_{M+1} are polished to
50 digits by Newton on the three-term recurrence, and the weights follow
from the closed form w_j = 1/((M+1) L_M(x_j)^2) with L_M from
``mp.laguerre``.  The same roots, polished at 80 digits, give the GLR
polynomial operators whose spectra ``advection`` states in closed form:
the eigenvalues of the strong and weak nodal inflow blocks, and the
nilpotency of the weak nodal outflow operator.
"""

import numpy as np
import pytest

from lagdg.advection import SchemeVariant, assemble
from lagdg.quadrature import build_rule
from lagdg.spectrum import classify

from test_acceptance import GL_POLY_M10_RHO_OVER_BETA

mp = pytest.importorskip("mpmath").mp

DPS = 80
M = 10


def _mp_gl_outflow(basis: str, beta: float, M: int, u: float, transpose: bool = False):
    """u Om^-1 D Om + u Om^-1 h h^T (- beta u I for polynomials), at DPS digits.

    transpose=True swaps D for D^T, the integrated-by-parts reading.  D
    itself is returned too.
    """
    n = M + 1
    seeds, _ = np.polynomial.laguerre.laggauss(n)
    x = [mp.findroot(lambda t: mp.laguerre(n, 0, t), mp.mpf(s)) for s in seeds]
    b = mp.mpf(beta)
    z = [xi / b for xi in x]
    w = [xi / ((n + 1) ** 2 * mp.laguerre(n + 1, 0, xi) ** 2) / b for xi in x]
    c = [mp.fprod(z[i] - z[k] for k in range(n) if k != i) for i in range(n)]
    h = [mp.fprod(-z[k] / (z[j] - z[k]) for k in range(n) if k != j) for j in range(n)]
    D = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                D[i, i] = mp.fsum(1 / (z[i] - z[k]) for k in range(n) if k != i)
            else:
                D[i, j] = c[i] / (c[j] * (z[i] - z[j]))
    if basis == "functions":
        for i in range(n):
            for j in range(n):
                D[i, j] *= mp.exp(-b * (z[i] - z[j]) / 2)
            D[i, i] -= b / 2
        h = [h[j] * mp.exp(b * z[j] / 2) for j in range(n)]
    Dop = D.T if transpose else D
    A = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            A[i, j] = u * (Dop[i, j] * w[j] / w[i] + h[i] * h[j] / w[i])
        if basis == "polynomials":
            A[i, i] -= b * u
    return A, D


@pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
@pytest.mark.parametrize("basis", ("functions", "polynomials"))
def test_gl_outflow_matches_80_digit_assembly(basis, beta):
    with mp.workdps(DPS):
        A_mp, _ = _mp_gl_outflow(basis, beta, M, -1.0)
        lam = mp.eig(A_mp, left=False, right=False)
        rho = max(abs(v) for v in lam)
        max_re = max(mp.re(v) for v in lam)
        A_ref = np.array(A_mp.tolist(), dtype=float)
    op = assemble(SchemeVariant("nodal", basis, "gl", "outflow"), beta, M, -1.0)
    rep = classify(op)
    assert np.all(np.abs(op.A - A_ref) <= 1e-9 * np.abs(A_ref))
    assert rep.spectral_radius == pytest.approx(float(rho), rel=1e-9)
    if basis == "polynomials":
        # the constant criterion 1 asserts rests on this spectrum, not on LAPACK
        assert float(rho) / beta == pytest.approx(GL_POLY_M10_RHO_OVER_BETA, rel=1e-9)
        assert 0 < float(max_re) and float(rho - max_re) <= 1e-4 * float(rho)
    else:
        # a real eigenvalue near -1.05e13 beta and ten of real part O(beta) > 0
        assert float(rho) / beta == pytest.approx(1.0538635293333e13, rel=1e-9)
        assert float(max_re) / beta == pytest.approx(0.672821068613, rel=1e-9)


def test_gl_polynomial_transpose_reading_is_strong_collocation():
    # With D^T (integration by parts) and GL exact to degree 2M + 1, the
    # weak form collapses to -u D: nilpotent, so it cannot blow up at all.
    u = -1.0
    with mp.workdps(DPS):
        A_mp, D = _mp_gl_outflow("polynomials", 1.0, M, u, transpose=True)
        resid = mp.mnorm(A_mp + u * D, 1) / mp.mnorm(D, 1)
        assert resid < mp.mpf(10) ** (-DPS + 10)


# -- GLR rules ---------------------------------------------------------------

GLR_DPS = 50


def _mp_glr_unit(M: int, seeds) -> list:
    """Zeros of L'_{M+1} at GLR_DPS digits: Newton on the mp recurrence.

    L'_n = n (L_n - L_{n-1}) / x and x L''_n = (x - 1) L'_n - n L_n.
    Returns each zero with L_M there, from which the weights follow.
    """
    n = M + 1
    out = []
    for s in seeds:
        x = mp.mpf(s)
        for _ in range(20):
            prev, cur = mp.mpf(1), 1 - x
            for j in range(1, n):
                prev, cur = cur, ((2 * j + 1 - x) * cur - j * prev) / (j + 1)
            d = n * (cur - prev) / x
            step = d / (((x - 1) * d - n * cur) / x)
            x -= step
            if abs(step) <= mp.mpf(10) ** (-GLR_DPS + 5) * x:
                break
        else:
            raise AssertionError(f"mp Newton did not converge from seed {s}")
        lag_m = mp.laguerre(M, 0, x)
        out.append((x, lag_m))
    return out


@pytest.mark.parametrize("M", (1, 2, 10, 50, 180))
def test_glr_rule_matches_50_digit_roots(M):
    n = M + 1
    seeds = build_rule("glr", "polynomials", 1.0, M).nodes[1:]
    with mp.workdps(GLR_DPS):
        roots = _mp_glr_unit(M, seeds)
        x = np.array([float(r) for r, _ in roots])
        # GLR weights: w_0 = 1/(M+1), w_j = 1/((M+1) L_M(x_j)^2); the
        # function basis absorbs exp(x_j)
        w_poly = [mp.mpf(1) / n] + [1 / (n * lm**2) for _, lm in roots]
        w_fun = [mp.mpf(1) / n] + [mp.exp(r) / (n * lm**2) for r, lm in roots]
        w_poly = np.array([float(w) for w in w_poly])
        w_fun = np.array([float(w) for w in w_fun])
    for beta in (1.0, 0.25):
        for basis, w_ref in (("polynomials", w_poly), ("functions", w_fun)):
            rule = build_rule("glr", basis, beta, M)
            assert rule.nodes[0] == 0.0
            np.testing.assert_allclose(rule.nodes[1:], x / beta, rtol=2e-13, atol=0)
            np.testing.assert_allclose(rule.weights, w_ref / beta, rtol=3e-11, atol=0)


def _mp_glr_poly(beta: float, M: int):
    """GLR nodes z, classical weights w and the Lagrange differentiation
    matrix D at the working precision, from the roots of _mp_glr_unit
    (Newton converges quadratically, so they carry the working precision)."""
    n = M + 1
    roots = _mp_glr_unit(M, build_rule("glr", "polynomials", 1.0, M).nodes[1:])
    b = mp.mpf(beta)
    z = [mp.mpf(0)] + [r / b for r, _ in roots]
    w = [1 / (n * b)] + [1 / (n * lm**2 * b) for _, lm in roots]
    c = [mp.fprod(z[i] - z[k] for k in range(n) if k != i) for i in range(n)]
    D = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if i == j:
                D[i, i] = mp.fsum(1 / (z[i] - z[k]) for k in range(n) if k != i)
            else:
                D[i, j] = c[i] / (c[j] * (z[i] - z[j]))
    return w, D


@pytest.mark.parametrize("form, M, beta", [
    ("strong", 5, 0.5), ("strong", 5, 2.0), ("strong", 10, 0.5), ("strong", 10, 2.0), ("strong", 25, 1.0),
    ("nodal", 5, 0.5), ("nodal", 5, 2.0), ("nodal", 10, 0.5), ("nodal", 10, 2.0),
])
def test_glr_polynomial_inflow_spectrum_matches_80_digit_assembly(form, M, beta):
    # strong: -u D[1:, 1:]; nodal: u Om^-1 D[1:, 1:] Om - beta u I over the
    # interior nodes (u = 1).  The nodal block at M = 25 is left out: its
    # eigenvalue condition (about 1e93) exceeds 80 digits.
    u = 1.0
    op = assemble(SchemeVariant(form, "polynomials", "glr", "inflow"), beta, M, u)
    with mp.workdps(DPS):
        w, D = _mp_glr_poly(beta, M)
        A = mp.matrix(M, M)
        for i in range(M):
            for j in range(M):
                A[i, j] = -u * D[i + 1, j + 1] if form == "strong" else u * D[i + 1, j + 1] * w[j + 1] / w[i + 1]
            if form == "nodal":
                A[i, i] -= beta * u
        lam = sorted(mp.eig(A, left=False, right=False), key=lambda v: mp.im(v))
        # op.exact_eigenvalues is _glr_poly_block_spectrum's closed form;
        # compare it at 80 digits and in double precision
        exact = sorted((complex(v) for v in op.exact_eigenvalues), key=lambda v: v.imag)
        nu = [mp.mpf(1) / 2 + mp.j / 2 * mp.cot(mp.pi * m / (M + 1)) for m in range(1, M + 1)]
        closed = sorted((-u * beta * v if form == "strong" else u * beta * v - beta * u for v in nu),
                        key=lambda v: mp.im(v))
        assert max(abs(a - b) for a, b in zip(lam, closed)) <= mp.mpf(10) ** -50 * beta
    assert max(abs(complex(a) - b) for a, b in zip(closed, exact)) <= 1e-14 * beta


@pytest.mark.parametrize("M, radius_bound", [(5, 1e-10), (10, 1e-4), (25, None)])
def test_glr_polynomial_outflow_operator_is_nilpotent_at_80_digits(M, radius_bound):
    # u Om^-1 D Om + (u / w_0) e0 e0^T - beta u I, all eigenvalues exactly zero.
    # rho(A) <= ||A^n||^(1/n) turns ||A^n|| << ||A||^n into a bound on the
    # spectrum; with ||A|| near 1.7e52 at M = 25, 80 digits bound it only by
    # about 0.35 beta there, so that point keeps the norm ratio alone.
    beta, u, n = 1.0, -1.0, M + 1
    with mp.workdps(DPS):
        w, D = _mp_glr_poly(beta, M)
        A = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                A[i, j] = u * D[i, j] * w[j] / w[i]
            A[i, i] -= beta * u
        A[0, 0] += u / w[0]
        power = mp.mnorm(A**n, 1)
        assert power <= mp.mpf(10) ** -60 * mp.mnorm(A, 1) ** n
        if radius_bound is not None:
            assert power ** (mp.mpf(1) / n) <= radius_bound * beta
    op = assemble(SchemeVariant("nodal", "polynomials", "glr", "outflow"), beta, M, u)
    np.testing.assert_array_equal(op.exact_eigenvalues, np.zeros(n))
