"""Modal discontinuous Galerkin discretization on a finite interval.

Each element carries a normalized Legendre basis phi_l = sqrt(2l+1) P_l
mapped to the element, so element mass matrices are dz * I and no linear
solve appears in the update; its values at the quadrature points and at
the midpoint come from one Legendre table over all degrees.  Interfaces
use the characteristic upwind flux F(qm, qp) = A+ qm + A- qp; the same
closure handles the physical boundaries through ghost states (Dirichlet
data on incoming characteristics, interior trace on outgoing ones).
The left closure and the edge traces are built once per operator; the
boundary states enter as the degree-0 coefficients of ghost elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import legendre_table
from .quadrature import _golub_welsch
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


def edge_values(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the element ends: (left, right) = phi(-1), phi(+1)."""
    j = np.arange(p + 1)
    right = np.sqrt(2 * j + 1.0)
    return right * (-1.0) ** j, right


def center_values(p: int) -> np.ndarray:
    """Basis values at the element midpoint."""
    return np.sqrt(2 * np.arange(p + 1) + 1.0) * legendre_table(p, 0.0)


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
    xi, w = _golub_welsch(np.zeros(n), off)
    return xi, 2.0 * w


def characteristic_closure(eig_triple, mask) -> tuple[np.ndarray, np.ndarray] | None:
    """Left-boundary closure as a linear map: ghost = G_int q + G_bc values.

    Dirichlet data enter on the incoming characteristics (lam > 0), the
    interior trace q supplies the outgoing ones.  mask marks which of the
    d physical components are prescribed; their count must equal the
    number of incoming characteristics.  With S = V[mask, in]:
    G_bc = V E_in S^-1 R_mask and
    G_int = V (P_out - E_in S^-1 V[mask, out] R_out) V^-1.
    Returns None for a transmissive boundary (no mask, or nothing masked).
    """
    if mask is None:
        return None
    V, lam, Vinv = eig_triple
    d = V.shape[0]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (d,):
        raise ValueError(f"boundary mask has shape {mask.shape}, expected ({d},) for a {d}-component system")
    if not mask.any():
        return None
    incoming = np.real(np.asarray(lam)) > 0
    n_pre = int(mask.sum())
    if n_pre != int(incoming.sum()):
        raise ValueError(
            f"{n_pre} Dirichlet components prescribed but {int(incoming.sum())} characteristics enter the domain"
        )
    s_inv = np.linalg.inv(V[np.ix_(mask, incoming)])
    w_bc = np.zeros((d, d))            # characteristic data from the prescribed values
    w_bc[np.ix_(incoming, mask)] = s_inv
    w_int = np.diag((~incoming).astype(float))   # outgoing characteristics pass through
    w_int[np.ix_(incoming, ~incoming)] = -s_inv @ V[np.ix_(mask, ~incoming)]
    return V @ w_int @ Vinv, V @ w_bc


def characteristic_ghost(closure, q_interior: np.ndarray, values: np.ndarray | None) -> np.ndarray:
    """Exterior state for the left boundary from a characteristic_closure:
    the interior trace itself for a transmissive boundary."""
    if closure is None:
        return q_interior.copy()
    g_int, g_bc = closure
    return g_int @ q_interior + g_bc @ values


# The DG part of a flat state is stored element-major: row m of the
# (n, d(p+1)) array holds element m's (d, p+1) coefficients.  This
# helper and DGOperator are the only code that knows that layout.


def _from_blocks(blocks: np.ndarray, d: int) -> np.ndarray:
    """Element-major (n, d(p+1)) array -> (n, d, p+1) coefficients."""
    return blocks.reshape(blocks.shape[0], d, -1)


class DGOperator:
    """Prepared DG right-hand side for an undamped constant-coefficient system.

    The interior operator is block tridiagonal over elements and is built
    once: a diagonal block (volume term and both own-edge fluxes), a lower
    block (A+ inflow from the left neighbour) and an upper block (A- inflow
    from the right neighbour).  The operator owns its left boundary:
    left_mask marks the prescribed components (their count must equal the
    number of incoming characteristics) and left_bc is a callable t ->
    values of all d components, of which only the masked ones are read.
    Both or neither are given; without them the boundary is transmissive.
    The closure is built once, and so are the edge traces kron(I, e_l^T)
    and kron(I, e_r^T) to an element's (d,) end values.  Each map is a
    C-contiguous transpose acting from the right on the rows of the
    element-major array of shape blocks_shape.  rhs pads the rows with two
    ghost rows whose degree-0 slots (phi_0 = 1 at both ends) hold the
    boundary states.  project, centers, right_trace and energy convert
    between the layout and the flat state, profiles, centres and energy.
    """

    def __init__(self, sys: HyperbolicSystem, mesh: Mesh1D, p: int, left_bc=None, left_mask=None):
        if p < 0:
            raise ValueError(f"DG order p must be non-negative, got p={p}")
        if (left_bc is None) != (left_mask is None):
            raise ValueError("left_bc and left_mask must be given together")
        self.sys = sys
        self.mesh = mesh
        self.p = p
        self.blocks_shape = (mesh.n_elements, sys.d * (p + 1))
        self._left_bc = left_bc
        self._closure = characteristic_closure(sys.eig, left_mask)
        ap, am = flux_split(sys.a, sys.eig)
        el, er = edge_values(p)
        self.diag = (np.kron(sys.a, stiffness_coupling(p)) - np.kron(ap, np.outer(er, er))
                     + np.kron(am, np.outer(el, el))) / mesh.dz
        self.lower = np.kron(ap, np.outer(el, er)) / mesh.dz
        self.upper = -np.kron(am, np.outer(er, el)) / mesh.dz
        self.trace_left = np.kron(np.eye(sys.d), el)
        self.trace_right = np.kron(np.eye(sys.d), er)
        for name in ("diag", "lower", "upper", "trace_left", "trace_right"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name).T))  # no .T views: they are slower

    def rhs(self, blocks: np.ndarray, t: float, right_exterior: np.ndarray | None) -> np.ndarray:
        """Time derivative of element-major (n, d(p+1)) coefficients.

        right_exterior is the exterior state at z = L, or None for the
        interior trace.
        """
        w = np.zeros((blocks.shape[0] + 2, blocks.shape[1]))
        w[1:-1] = blocks
        values = self._left_bc(t) if self._left_bc is not None else None
        w[0, ::self.p + 1] = characteristic_ghost(self._closure, blocks[0] @ self.trace_left, values)
        w[-1, ::self.p + 1] = blocks[-1] @ self.trace_right if right_exterior is None else right_exterior
        out = blocks @ self.diag
        out += w[:-2] @ self.lower
        out += w[2:] @ self.upper
        return out

    def project(self, component_funcs) -> np.ndarray:
        """Flat element-major coefficients of the L2 projection (project_dg)."""
        if len(component_funcs) != self.sys.d:
            raise ValueError(f"{len(component_funcs)} profiles given for a {self.sys.d}-component system")
        return project_dg(component_funcs, self.mesh, self.p).ravel()

    def centers(self, y: np.ndarray) -> np.ndarray:
        """Cell-centre values (n_elements, d) of flat or blocked coefficients."""
        return eval_at_centers(_from_blocks(y.reshape(self.blocks_shape), self.sys.d))

    def right_trace(self, blocks: np.ndarray) -> np.ndarray:
        """Interior state (d,) at z = L of element-major coefficients."""
        return blocks[-1] @ self.trace_right

    def energy(self, y: np.ndarray, weights) -> float:
        """(1/2) sum over components c of weights[c] * integral of q_c^2 over
        the domain, from flat or blocked coefficients; weights (g, H) give
        the shallow-water energy (1/2) integral of (g h^2 + H u^2)."""
        squares = np.sum(_from_blocks(y.reshape(self.blocks_shape), self.sys.d) ** 2, axis=(0, 2))
        return 0.5 * self.mesh.dz * float(np.dot(weights, squares))


def project_dg(component_funcs, mesh: Mesh1D, p: int) -> np.ndarray:
    """Elementwise L2 projection with a (p+2)-point Gauss-Legendre rule;
    coefficients of shape (n_elements, d, p+1)."""
    xi, wq = gauss_legendre(p + 2)
    phi = np.sqrt(2 * np.arange(p + 1) + 1.0)[:, None] * legendre_table(p, xi)
    zq = mesh.centers[:, None] + 0.5 * mesh.dz * xi[None, :]
    fvals = np.array([np.asarray(f(zq), dtype=float) for f in component_funcs])  # (d, n, g)
    return 0.5 * np.einsum("kmg,ig,g->mki", fvals, phi, wq)


def eval_at_centers(coeffs: np.ndarray) -> np.ndarray:
    """Cell-center point values of (n_elements, d, p+1) coefficients, shape (n_elements, d)."""
    return coeffs @ center_values(coeffs.shape[-1] - 1)

