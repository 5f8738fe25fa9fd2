"""Modal discontinuous Galerkin discretization on a finite interval.

Each element carries a normalized Legendre basis phi_l = sqrt(2l+1) P_l
mapped to the element, so element mass matrices are dz * I and no linear
solve appears in the update.  Interfaces use the characteristic upwind
flux F(qm, qp) = A+ qm + A- qp; the same closure handles the physical
boundaries through ghost states (Dirichlet data on incoming
characteristics, interior trace on outgoing ones).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .basis import legendre_eval
from .semiinf import HyperbolicSystem, flux_split


@dataclass(frozen=True, eq=False)
class Mesh1D:
    """Uniform mesh of n_elements cells covering [0, length]."""

    length: float
    n_elements: int

    def __post_init__(self):
        if self.length <= 0 or self.n_elements < 1:
            raise ValueError("mesh needs positive length and at least one element")

    @property
    def dz(self) -> float:
        return self.length / self.n_elements

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_elements) + 0.5) * self.dz


@dataclass(eq=False)
class DGState:
    """Modal coefficients, shape (n_elements, d, p+1)."""

    coeffs: np.ndarray
    p: int

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.p < 0 or self.coeffs.ndim != 3 or self.coeffs.shape[2] != self.p + 1:
            raise ValueError(f"coefficient shape {self.coeffs.shape} does not match p={self.p}")


def edge_values(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the element ends: (left, right) = phi(-1), phi(+1)."""
    j = np.arange(p + 1)
    right = np.sqrt(2 * j + 1.0)
    return right * (-1.0) ** j, right


def center_values(p: int) -> np.ndarray:
    """Basis values at the element midpoint."""
    return np.array([np.sqrt(2 * l + 1) * legendre_eval(l, 0.0) for l in range(p + 1)])


def stiffness_coupling(p: int) -> np.ndarray:
    """S[i, j] = integral over the reference element of phi_i' phi_j.

    Nonzero (value 2 sqrt((2i+1)(2j+1))) only for j < i with i - j odd;
    exact, so the constant-coefficient volume term needs no quadrature.
    """
    S = np.zeros((p + 1, p + 1))
    for i in range(p + 1):
        for j in range(i):
            if (i - j) % 2 == 1:
                S[i, j] = 2.0 * np.sqrt((2 * i + 1) * (2 * j + 1))
    return S


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1] (Golub-Welsch)."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    xi, vecs = eigh_tridiagonal(np.zeros(n), off)
    return xi, 2.0 * vecs[0] ** 2


def characteristic_ghost(eig_triple, q_interior: np.ndarray,
                         values: np.ndarray | None, mask: np.ndarray | None) -> np.ndarray:
    """Exterior state for a left boundary: Dirichlet data on incoming
    characteristics (lam > 0), interior trace on outgoing ones.

    mask marks which physical components are prescribed; their count must
    equal the number of incoming characteristics (or zero for a fully
    transmissive boundary).
    """
    if mask is None or not np.any(mask):
        return q_interior.copy()
    V, lam, Vinv = eig_triple
    lam = np.real(np.asarray(lam))
    incoming = lam > 0
    mask = np.asarray(mask, dtype=bool)
    n_pre = int(mask.sum())
    if n_pre != int(incoming.sum()):
        raise ValueError(
            f"{n_pre} Dirichlet components prescribed but {int(incoming.sum())} characteristics enter the domain"
        )
    w = Vinv @ q_interior
    rhs = np.asarray(values, dtype=float)[mask] - (V[np.ix_(mask, ~incoming)] @ w[~incoming])
    w_in = np.linalg.solve(V[np.ix_(mask, incoming)], rhs)
    w_ext = w.copy()
    w_ext[incoming] = w_in
    return V @ w_ext


class DGOperator:
    """Prepared DG right-hand side for a constant-coefficient system.

    The interior operator is block tridiagonal over elements and is built
    once: a diagonal block (volume term, both own-edge fluxes and, when
    coeff_b is set, the per-element reaction term), a lower block (A+
    inflow from the left neighbour) and an upper block (A- inflow from
    the right neighbour), each acting on an element's flattened (d, p+1)
    coefficients.  Only the two boundary ghost states are formed per call.
    """

    def __init__(self, sys: HyperbolicSystem, mesh: Mesh1D, p: int):
        if not sys.is_constant:
            raise ValueError("the DG volume term assumes constant coefficients inside the finite domain")
        self.sys = sys
        self.mesh = mesh
        self.p = p
        a = np.asarray(sys.coeff_a(None, 0.0), dtype=float)
        self.eig = sys.eig(None, 0.0)
        self.a_plus, self.a_minus = flux_split(a, self.eig)
        self.e_left, self.e_right = edge_values(p)
        ap, am, el, er = self.a_plus, self.a_minus, self.e_left, self.e_right
        diag = (np.kron(a, stiffness_coupling(p)) - np.kron(ap, np.outer(er, er))
                + np.kron(am, np.outer(el, el)))
        if sys.coeff_b is not None:
            xi, wq = gauss_legendre(p + 2)
            phi = np.array([[np.sqrt(2 * l + 1) * legendre_eval(l, x) for x in xi] for l in range(p + 1)])
            zq = mesh.centers[:, None] + 0.5 * mesh.dz * xi[None, :]
            bq = np.array([[np.asarray(sys.coeff_b(None, z), dtype=float) for z in row] for row in zq])
            reaction = 0.5 * mesh.dz * np.einsum("mgkl,ig,jg,g->mkilj", bq, phi, phi, wq)
            diag = diag + reaction.reshape(mesh.n_elements, *diag.shape)
        self.diag = diag / mesh.dz
        self.lower = np.kron(ap, np.outer(el, er)) / mesh.dz
        self.upper = -np.kron(am, np.outer(er, el)) / mesh.dz

    def rhs(self, coeffs: np.ndarray, t: float,
            left_values: np.ndarray | None, left_mask: np.ndarray | None,
            right_exterior: np.ndarray | None) -> np.ndarray:
        n, d, P = coeffs.shape
        c = coeffs.reshape(n, d * P)
        if self.diag.ndim == 2:
            out = c @ self.diag.T
        else:
            out = np.matmul(self.diag, c[:, :, None])[:, :, 0]
        out[1:] += c[:-1] @ self.lower.T
        out[:-1] += c[1:] @ self.upper.T

        ghost_left = characteristic_ghost(self.eig, coeffs[0] @ self.e_left, left_values, left_mask)
        ghost_right = right_exterior if right_exterior is not None else coeffs[-1] @ self.e_right
        dz = self.mesh.dz
        out[0] += np.outer(self.a_plus @ ghost_left, self.e_left).ravel() / dz
        out[-1] -= np.outer(self.a_minus @ ghost_right, self.e_right).ravel() / dz
        return out.reshape(n, d, P)


def project_dg(component_funcs, mesh: Mesh1D, p: int) -> DGState:
    """Elementwise L2 projection with a (p+2)-point Gauss-Legendre rule."""
    xi, wq = gauss_legendre(p + 2)
    phi = np.array([[np.sqrt(2 * l + 1) * legendre_eval(l, x) for x in xi] for l in range(p + 1)])
    zq = mesh.centers[:, None] + 0.5 * mesh.dz * xi[None, :]
    fvals = np.array([np.asarray(f(zq), dtype=float) for f in component_funcs])  # (d, n, g)
    coeffs = 0.5 * np.einsum("kmg,ig,g->mki", fvals, phi, wq)
    return DGState(coeffs, p)


def eval_at_centers(state: DGState) -> np.ndarray:
    """Cell-center point values, shape (n_elements, d)."""
    return state.coeffs @ center_values(state.p)


def eval_at(state: DGState, mesh: Mesh1D, x) -> np.ndarray:
    """Pointwise evaluation at physical coordinates, shape (d, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < -1e-12) or np.any(x > mesh.length + 1e-12):
        raise ValueError("evaluation point outside the mesh")
    idx = np.clip((x / mesh.dz).astype(int), 0, mesh.n_elements - 1)
    xi = 2.0 * (x - mesh.centers[idx]) / mesh.dz
    xi = np.clip(xi, -1.0, 1.0)
    phi = np.array([np.sqrt(2 * l + 1) * legendre_eval(l, xi) for l in range(state.p + 1)])
    return np.einsum("mkj,jm->km", state.coeffs[idx], phi)
