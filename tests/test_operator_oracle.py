"""The assembled DG and Laguerre operators against the elementwise formulas.

The reference right-hand sides below evaluate each term of the weak forms
directly (upwind interface fluxes, volume integrals, prefix sums of the
triangular mode coupling, quadrature of the reaction integrals), the way
the operators did before they were assembled as matrices.  They are slow
and share no prepared data with the operators.  Damping acts in the modal
operator only, so the DG reference checks each case's undamped system;
the damped case keeps its background flow U = -0.5 there.
"""

import numpy as np
import pytest

from lagdg.basis import BasisSpec, laguerre_fun_table
from lagdg.coupled import CoupledModel, SWEConfig, swe_system
from lagdg.dg import (
    DGOperator,
    Mesh1D,
    _from_blocks,
    characteristic_closure,
    edge_values,
    stiffness_coupling,
)
from lagdg.semiinf import (
    LaguerreModalOperator,
    SigmoidDamping,
    default_rule,
    flux_split,
    scalar_system,
    sigmoid_gamma,
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
    a_plus, a_minus = flux_split(sys.a, sys.eig)
    e_left, e_right = edge_values(p)
    q_right = coeffs @ e_right
    q_left = coeffs @ e_left
    ghost_left = reference_ghost(sys.eig, q_left[0], left_values, left_mask)
    ghost_right = right_exterior if right_exterior is not None else q_right[-1]
    qm = np.vstack([ghost_left[None, :], q_right])
    qp = np.vstack([q_left, ghost_right[None, :]])
    flux = qm @ a_plus.T + qp @ a_minus.T

    aq = np.einsum("kl,mlj->mkj", sys.a, coeffs)
    vol = np.einsum("ij,mkj->mki", stiffness_coupling(p), aq)
    out = vol - flux[1:, :, None] * e_right + flux[:-1, :, None] * e_left
    return out / mesh.dz


def _quadrature_projection(fn, spec, rule):
    phi = laguerre_fun_table(spec.M, spec.beta * rule.nodes)
    vals = np.array([np.asarray(fn(z), dtype=float) for z in rule.nodes])
    return np.einsum("nkl,in,jn->klij", vals * rule.weights[:, None, None], phi, phi)


def reference_modal_rhs(sys, spec, coeffs, boundary_g, damping=None):
    beta = spec.beta
    a_plus, a_minus = flux_split(sys.a, sys.eig)
    bc = a_plus @ boundary_g + a_minus @ coeffs.sum(axis=1)
    prefix = np.cumsum(coeffs, axis=1) - coeffs
    out = beta * (bc[:, None] - sys.a @ (0.5 * coeffs + prefix))
    if damping is not None:
        # reaction -gamma(z) I, with the layer length L0 the rule's last node
        rule = default_rule(spec)
        L0 = rule.nodes[-1]
        b_proj = _quadrature_projection(lambda z: -sigmoid_gamma(damping, L0, z) * np.eye(sys.d), spec, rule)
        out += beta * np.einsum("klij,lj->ki", b_proj, coeffs)
    return out


def reference_coupled_rhs(cfg, mesh, p, spec, t, y, left_bc, mask, damping):
    n = mesh.n_elements
    n_dg = n * 2 * (p + 1)
    # the flat DG part is element-major: (n, d(p+1))
    dg = y[:n_dg].reshape(n, 2, p + 1)
    semi = y[n_dg:].reshape(2, spec.M + 1)
    values = left_bc(t) if left_bc is not None else None
    sys = swe_system(cfg)
    dg_dot = reference_dg_rhs(sys, mesh, p, dg, values, mask, semi.sum(axis=1))
    semi_dot = reference_modal_rhs(sys, spec, semi, dg[-1] @ edge_values(p)[1], damping)
    return np.concatenate([dg_dot.ravel(), semi_dot.ravel()])


def assert_close(got, expect):
    scale = np.max(np.abs(expect))
    assert scale > 0
    assert np.max(np.abs(got - expect)) <= RTOL * scale


# (parameters, damping of the modal part) of each case
SWE_CASES = {
    "still": (SWEConfig(), None),
    "flow": (SWEConfig(H=2.0, U=0.8), None),
    "damped": (SWEConfig(U=-0.5), SigmoidDamping(dgamma=0.3, alpha=0.3, sigma_over_l0=0.05)),
}
MASK_U = np.array([False, True])


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_dg_rhs_matches_reference(p, case):
    sys = swe_system(SWE_CASES[case][0])
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
        left_bc = None if values is None else (lambda t: values)
        op = DGOperator(sys, mesh, p, left_bc, mask)
        assert_close(_from_blocks(op.rhs(q.reshape(op.blocks_shape), 0.0, right), 2),
                     reference_dg_rhs(sys, mesh, p, q, values, mask, right))


GHOST_CASES = {
    **{f"swe-U{U}-{name}": (swe_system(SWEConfig(U=U)).eig, mask)
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


@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_modal_rhs_matches_reference(case):
    cfg, damping = SWE_CASES[case]
    sys = swe_system(cfg)
    spec = BasisSpec("functions", 0.05, 20)
    rng = np.random.default_rng(7)
    q = rng.normal(size=(2, 21))
    g = rng.normal(size=2)
    assert_close(LaguerreModalOperator(sys, spec, damping).rhs(q, 0.0, g),
                 reference_modal_rhs(sys, spec, q, g, damping))


MODAL_SYSTEMS = {"u=+1": scalar_system(1.0), "u=-1": scalar_system(-1.0),
                 "swe-U0.3": swe_system(SWEConfig(U=0.3))}
LAYER = SigmoidDamping(dgamma=0.3, alpha=0.3, sigma_over_l0=0.05)


# a damped operator builds a GLR rule, which needs M >= 1
@pytest.mark.parametrize("M, damping", [(M, d) for M in (0, 1, 14, 39) for d in (None, LAYER) if M or d is None],
                         ids=lambda x: f"M{x}" if isinstance(x, int) else ("damped" if x else "undamped"))
@pytest.mark.parametrize("system", sorted(MODAL_SYSTEMS))
def test_folded_operator_matches_reference(system, M, damping):
    # K holds the outgoing trace feedback as well, so K c + beta A+ g is the
    # whole right-hand side, and rhs applies it
    sys = MODAL_SYSTEMS[system]
    spec = BasisSpec("functions", 0.05, M)
    op = LaguerreModalOperator(sys, spec, damping)
    rng = np.random.default_rng(M)
    q, g = rng.normal(size=(sys.d, M + 1)), rng.normal(size=sys.d)
    expect = reference_modal_rhs(sys, spec, q, g, damping)
    assert_close((op.K @ q.ravel()).reshape(q.shape) + (spec.beta * op.a_plus @ g)[:, None], expect)
    assert_close(op.rhs(q, 0.0, g), expect)


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("case", sorted(SWE_CASES))
def test_coupled_rhs_matches_reference(p, case):
    def left_bc(t):
        return np.array([0.0, 0.2 * np.sin(t)])

    cfg, damping = SWE_CASES[case]
    spec = BasisSpec("functions", 0.05, 14)
    for bc, mask in ((None, None), (left_bc, MASK_U)):
        mesh = Mesh1D(100.0, 11)
        model = CoupledModel(swe_system(cfg), mesh, p, spec, left_bc=bc, left_mask=mask, damping=damping)
        y = np.random.default_rng(p + 10).normal(size=model._n_dg + 2 * 15)
        assert_close(model.rhs(0.7, y), reference_coupled_rhs(cfg, mesh, p, spec, 0.7, y, bc, mask, damping))
