"""The assembled DG and Laguerre operators against the elementwise formulas.

The reference right-hand sides below evaluate each term of the weak forms
directly (upwind interface fluxes, volume integrals, prefix sums of the
triangular mode coupling, quadrature of the coefficient integrals), the
way the operators did before they were assembled as matrices.  They are
slow and share no prepared data with the operators.
"""

from dataclasses import replace

import numpy as np
import pytest

from lagdg.basis import BasisSpec, legendre_eval
from lagdg.coupled import CoupledModel, SigmoidDamping, SWEConfig, swe_system
from lagdg.dg import (
    DGOperator,
    Mesh1D,
    _from_blocks,
    _to_blocks,
    characteristic_closure,
    edge_values,
    gauss_legendre,
    stiffness_coupling,
)
from lagdg.semiinf import (
    HyperbolicSystem,
    LaguerreModalOperator,
    basis_values_at_nodes,
    default_rule,
    flux_split,
)

RTOL = 1e-13


def reference_ghost(eig, q, values, mask):
    """Left ghost state solved per call: Dirichlet data on the incoming
    characteristics (lam > 0), the interior trace q on the outgoing ones."""
    if mask is None or not np.any(mask):
        return q.copy()
    V, lam, Vinv = eig
    incoming = np.real(np.asarray(lam)) > 0
    mask = np.asarray(mask, dtype=bool)
    w = Vinv @ q
    rhs = np.asarray(values, dtype=float)[mask] - (V[np.ix_(mask, ~incoming)] @ w[~incoming])
    w_ext = w.copy()
    w_ext[incoming] = np.linalg.solve(V[np.ix_(mask, incoming)], rhs)
    return V @ w_ext


def reference_dg_rhs(sys, mesh, p, coeffs, left_values, left_mask, right_exterior):
    a = np.asarray(sys.coeff_a(None, 0.0), dtype=float)
    eig = sys.eig(None, 0.0)
    a_plus, a_minus = flux_split(a, eig)
    e_left, e_right = edge_values(p)
    q_right = coeffs @ e_right
    q_left = coeffs @ e_left
    ghost_left = reference_ghost(eig, q_left[0], left_values, left_mask)
    ghost_right = right_exterior if right_exterior is not None else q_right[-1]
    qm = np.vstack([ghost_left[None, :], q_right])
    qp = np.vstack([q_left, ghost_right[None, :]])
    flux = qm @ a_plus.T + qp @ a_minus.T

    aq = np.einsum("kl,mlj->mkj", a, coeffs)
    vol = np.einsum("ij,mkj->mki", stiffness_coupling(p), aq)
    out = vol - flux[1:, :, None] * e_right + flux[:-1, :, None] * e_left
    if sys.coeff_b is not None:
        xi, wq = gauss_legendre(p + 2)
        phi = np.array([[np.sqrt(2 * l + 1) * legendre_eval(l, x) for x in xi] for l in range(p + 1)])
        zq = mesh.centers[:, None] + 0.5 * mesh.dz * xi[None, :]
        bq = np.array([[np.asarray(sys.coeff_b(None, z), dtype=float) for z in row] for row in zq])
        qvals = np.einsum("mkj,jg->mkg", coeffs, phi)
        bqv = np.einsum("mgkl,mlg->mkg", bq, qvals)
        out += 0.5 * mesh.dz * np.einsum("mkg,ig,g->mki", bqv, phi, wq)
    return out / mesh.dz


def _quadrature_projection(fn, spec, rule):
    phi = basis_values_at_nodes(spec, rule)
    vals = np.array([np.asarray(fn(None, z), dtype=float) for z in rule.nodes])
    return np.einsum("nkl,in,jn->klij", vals * rule.weights[:, None, None], phi, phi)


def reference_modal_rhs(sys, spec, coeffs, boundary_g):
    beta = spec.beta
    rule = default_rule(spec)
    a0 = np.asarray(sys.coeff_a(None, 0.0), dtype=float)
    a_plus, a_minus = flux_split(a0, sys.eig(None, 0.0))
    bc = a_plus @ boundary_g + a_minus @ coeffs.sum(axis=1)
    if sys.is_constant:
        prefix = np.cumsum(coeffs, axis=1) - coeffs
        out = beta * (bc[:, None] - a0 @ (0.5 * coeffs + prefix))
    else:
        work = np.einsum("klij,lj->kli", _quadrature_projection(sys.coeff_a, spec, rule), coeffs)
        wsum = work.sum(axis=1)
        wpre = np.cumsum(wsum, axis=1) - wsum
        out = beta * (bc[:, None] - 0.5 * beta * wsum - beta * wpre)
        da_proj = _quadrature_projection(sys.coeff_a_dz, spec, rule)
        out += beta * np.einsum("klij,lj->ki", da_proj, coeffs)
    if sys.coeff_b is not None:
        b_proj = _quadrature_projection(sys.coeff_b, spec, rule)
        out += beta * np.einsum("klij,lj->ki", b_proj, coeffs)
    return out


def reference_coupled_rhs(model, t, y, mask):
    n_dg, n = model._n_dg, model.mesh.n_elements
    # the flat DG part is component-major: (d(p+1), n)
    dg = y[:n_dg].reshape(-1, n).T.reshape(n, 2, model.p + 1)
    semi = y[n_dg:].reshape(2, model.spec.M + 1)
    values = model.left_bc(t) if model.left_bc is not None else None
    dg_dot = reference_dg_rhs(replace(model.sys_semi, coeff_b=None), model.mesh, model.p, dg,
                              values, mask, semi.sum(axis=1))
    semi_dot = reference_modal_rhs(model.sys_semi, model.spec, semi, dg[-1] @ edge_values(model.p)[1])
    return np.concatenate([dg_dot.reshape(n, -1).T.ravel(), semi_dot.ravel()])


def assert_close(got, expect):
    scale = np.max(np.abs(expect))
    assert scale > 0
    assert np.max(np.abs(got - expect)) <= RTOL * scale


DAMPING = SigmoidDamping(dgamma=0.3, L0=60.0, alpha=0.3, sigma=5.0)
SWE_CASES = {
    "still": SWEConfig(),
    "flow": SWEConfig(H=2.0, U=0.8),
    "damped": SWEConfig(U=-0.5, damping=DAMPING),
}
MASK_U = np.array([False, True])


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_dg_rhs_matches_reference(p, case):
    sys = swe_system(SWE_CASES[case])
    mesh = Mesh1D(100.0, 13)
    rng = np.random.default_rng(p)
    q = rng.normal(size=(13, 2, p + 1))
    tr = q[-1] @ edge_values(p)[1]
    boundaries = [
        (None, None, None),                                   # transmissive both ends
        (np.array([0.0, 0.4]), MASK_U, rng.normal(size=2)),   # masked left, prescribed right
        (None, None, np.array([tr[0], -tr[1]])),              # reflective right wall
    ]
    for values, mask, right in boundaries:
        op = DGOperator(sys, mesh, p, left_mask=mask)
        assert_close(_from_blocks(op.rhs(_to_blocks(q), 0.0, values, right), 2),
                     reference_dg_rhs(sys, mesh, p, q, values, mask, right))


GHOST_CASES = {
    **{f"swe-U{U}-{name}": (swe_system(SWEConfig(U=U)).eig(None, 0.0), mask)
       for U in (0.0, 0.5, -0.5) for name, mask in (("u", MASK_U), ("h", np.array([True, False])))},
    "advection": ((np.eye(1), np.array([0.7]), np.eye(1)), np.array([True])),
}


@pytest.mark.parametrize("case", sorted(GHOST_CASES))
def test_closure_map_matches_reference_ghost(case):
    eig, mask = GHOST_CASES[case]
    g_int, g_bc = characteristic_closure(eig, mask)
    rng = np.random.default_rng(11)
    for _ in range(5):
        q, values = rng.normal(size=len(mask)), rng.normal(size=len(mask))
        expect = reference_ghost(eig, q, values, mask)
        got = g_int @ q + g_bc @ values
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def variable_system(with_derivative: bool) -> HyperbolicSystem:
    """Shallow water over a z-dependent background flow U(z) = 0.3 exp(-z/40)."""
    H, g = 1.0, 9.81
    c = np.sqrt(g * H)

    def coeff_a(q, z):
        u = 0.3 * np.exp(-z / 40.0)
        return np.array([[u, H], [g, u]])

    def coeff_a_dz(q, z):
        return -0.3 / 40.0 * np.exp(-z / 40.0) * np.eye(2)

    def eig(q, z):
        u = 0.3 * np.exp(-z / 40.0)
        V = np.array([[H, H], [c, -c]])
        Vinv = np.array([[c, H], [c, -H]]) / (2.0 * H * c)
        return V, np.array([u + c, u - c]), Vinv

    return HyperbolicSystem(d=2, coeff_a=coeff_a, eig=eig,
                            coeff_b=lambda q, z: -0.01 * np.eye(2),
                            coeff_a_dz=coeff_a_dz if with_derivative else None)


@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_modal_rhs_matches_reference(case):
    sys = swe_system(SWE_CASES[case])
    spec = BasisSpec("functions", 0.05, 20)
    rng = np.random.default_rng(7)
    q = rng.normal(size=(2, 21))
    g = rng.normal(size=2)
    assert_close(LaguerreModalOperator(sys, spec).rhs(q, 0.0, g), reference_modal_rhs(sys, spec, q, g))


def test_modal_rhs_variable_coefficients_match_reference():
    spec = BasisSpec("functions", 0.05, 20)
    rng = np.random.default_rng(8)
    q = rng.normal(size=(2, 21))
    g = rng.normal(size=2)
    sys = variable_system(with_derivative=True)
    assert_close(LaguerreModalOperator(sys, spec).rhs(q, 0.0, g), reference_modal_rhs(sys, spec, q, g))
    # without coeff_a_dz the operator differences coeff_a itself; the
    # one-sided step near z = 0 keeps it within the difference error
    fd = LaguerreModalOperator(variable_system(with_derivative=False), spec).rhs(q, 0.0, g)
    assert fd == pytest.approx(reference_modal_rhs(sys, spec, q, g), rel=1e-6, abs=1e-9)


def test_modal_rhs_scalar_variable_path_matches_reference():
    # the z-independent system of test_semiinf fed through the variable path
    u = 1.0
    sys = HyperbolicSystem(d=1, coeff_a=lambda q, z: np.array([[u]]),
                           eig=lambda q, z: (np.eye(1), np.array([u]), np.eye(1)),
                           coeff_a_dz=lambda q, z: np.zeros((1, 1)))
    spec = BasisSpec("functions", 0.9, 6)
    q = np.random.default_rng(9).normal(size=(1, 7))
    g = np.array([0.3])
    assert_close(LaguerreModalOperator(sys, spec).rhs(q, 0.0, g), reference_modal_rhs(sys, spec, q, g))


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_coupled_rhs_matches_reference(p, case):
    def left_bc(t):
        return np.array([0.0, 0.2 * np.sin(t)])

    spec = BasisSpec("functions", 0.05, 14)
    for bc, mask in ((None, None), (left_bc, MASK_U)):
        model = CoupledModel(SWE_CASES[case], Mesh1D(100.0, 11), p, spec, left_bc=bc, left_mask=mask)
        y = np.random.default_rng(p + 10).normal(size=model._n_dg + 2 * 15)
        assert_close(model.rhs(0.7, y), reference_coupled_rhs(model, 0.7, y, mask))
