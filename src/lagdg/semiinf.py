"""Weak modal scaled-Laguerre-function discretization of hyperbolic systems.

A d-component system q_t + A q_z = -gamma(z) q on [0, inf) (local
coordinate) is expanded per component in scaled Laguerre functions; the
coefficients are a plain (d, M+1) array.  Incoming characteristics are
forced through A+ by Dirichlet data g(t); outgoing ones feed back through
A- acting on the boundary trace sum_j q_j.  The constant A gives
triangular mode coupling; the Rayleigh damping gamma(z), a sigmoid layer
placed relative to the last quadrature node, enters through GLR
quadrature of its integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import LAGUERRE_FUNCTIONS, BasisSpec, laguerre_fun_table
from .quadrature import NODES_GLR, QuadratureRule, build_rule


@dataclass(frozen=True, eq=False)
class HyperbolicSystem:
    """Coefficients and eigenstructure of q_t + A q_z = 0.

    a is the constant (d, d) matrix A and eig its eigenstructure
    (V, lam, Vinv), with lam the real eigenvalue vector.
    """

    a: np.ndarray
    eig: tuple

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be a (d, d) matrix, got shape {a.shape}")
        object.__setattr__(self, "a", a)

    @property
    def d(self) -> int:
        return self.a.shape[0]

    @property
    def max_speed(self) -> float:
        """Largest characteristic speed max |lam|."""
        return float(np.max(np.abs(self.eig[1])))


def scalar_system(u: float) -> HyperbolicSystem:
    """Scalar advection q_t + u q_z = 0 as a d = 1 system."""
    return HyperbolicSystem(np.array([[u]]), (np.eye(1), np.array([u]), np.eye(1)))


@dataclass(frozen=True)
class SigmoidDamping:
    """Rayleigh damping profile dgamma / (1 + exp((alpha L0 - z) / sigma)),
    sigma = sigma_over_l0 L0, over a layer of length L0."""

    dgamma: float
    alpha: float
    sigma_over_l0: float

    def __post_init__(self):
        if self.dgamma < 0:
            raise ValueError("damping amplitude must be non-negative")
        if not self.sigma_over_l0 > 0:
            raise ValueError("sigmoid steepness must be positive")


def sigmoid_gamma(damping: SigmoidDamping, L0: float, z) -> np.ndarray:
    """Damping coefficient at z over a layer of length L0; saturates instead
    of overflowing."""
    sigma = damping.sigma_over_l0 * L0
    arg = np.clip((damping.alpha * L0 - np.asarray(z, dtype=float)) / sigma, -700.0, 700.0)
    return damping.dgamma / (1.0 + np.exp(arg))


def flux_split(a: np.ndarray, eig_triple) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic splitting A = A+ + A- by eigenvalue sign."""
    V, lam, Vinv = eig_triple
    lam = np.asarray(lam)
    if np.max(np.abs(np.imag(lam))) > 1e-12:
        raise ValueError("complex characteristic speeds: system is not hyperbolic")
    lam = np.real(lam)
    a_plus = (V * np.maximum(lam, 0.0)) @ Vinv
    a_minus = (V * np.minimum(lam, 0.0)) @ Vinv
    return a_plus, a_minus


def default_rule(spec: BasisSpec) -> QuadratureRule:
    return build_rule(NODES_GLR, LAGUERRE_FUNCTIONS, spec.beta, spec.M)


def project(component_funcs, spec: BasisSpec) -> np.ndarray:
    """GLR-quadrature projection q_kj = beta * sum_l w_l f_k(z_l) Lhat_j(z_l),
    shape (d, M+1)."""
    if spec.kind != LAGUERRE_FUNCTIONS:
        raise ValueError("modal projection uses the Laguerre function basis")
    rule = default_rule(spec)
    phi = laguerre_fun_table(spec.M, spec.beta * rule.nodes)
    fvals = np.array([np.asarray(f(rule.nodes), dtype=float) for f in component_funcs])
    coeffs = spec.beta * (fvals * rule.weights) @ phi.T
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("non-finite modal coefficients")
    return coeffs


def reconstruct(coeffs: np.ndarray, spec: BasisSpec, z_points) -> np.ndarray:
    """Series evaluation of (d, M+1) coefficients at local coordinates
    z >= 0, shape (d, len(z))."""
    z = np.atleast_1d(np.asarray(z_points, dtype=float))
    if np.any(z < 0):
        raise ValueError("reconstruction points must be >= 0 in the local coordinate")
    phi = laguerre_fun_table(spec.M, spec.beta * z)
    return coeffs @ phi


class LaguerreModalOperator:
    """Prepared right-hand side of the modal semi-discretization.

    Builds the whole linear operator once as one (d(M+1), d(M+1)) matrix K
    over the flattened coefficients: -beta a (x) T, the outgoing trace
    fed back into every mode, beta A- (x) 11^T, and the GLR-quadrature
    projection of the Rayleigh reaction -gamma(z) q when damping is set.
    The damping layer's length L0 is the last node of spec's GLR rule,
    which is built only then, so an undamped operator takes any M >= 0.
    Boundary data g(t) enters through beta A+ at the local origin, so the
    right-hand side is K c + beta A+ g.

    rhs applies an undamped operator without K: T c is cumsum(c) - c/2
    per component, then -beta a mixes the components, and the trace is
    the last partial sum, O(d M) in place of O(d^2 M^2).  A damped
    operator applies the dense K, because the reaction term fills it.
    """

    def __init__(self, sys: HyperbolicSystem, spec: BasisSpec, damping: SigmoidDamping | None = None):
        if spec.kind != LAGUERRE_FUNCTIONS:
            raise ValueError("modal operator requires the Laguerre function basis")
        self.spec = spec
        beta, M = spec.beta, spec.M
        self.a_plus, self.a_minus = flux_split(sys.a, sys.eig)
        self._minus_beta_a = -beta * sys.a
        self._beta_a_plus = beta * self.a_plus
        self._damped = damping is not None

        T = np.tril(np.ones((M + 1, M + 1)), -1)  # advective mode coupling: strictly
        np.fill_diagonal(T, 0.5)                  # lower ones, 1/2 on the diagonal
        K = np.kron(self._minus_beta_a, T)
        if np.any(self.a_minus):
            # beta A- (x) 11^T, added in place; an operator without an outgoing
            # characteristic skips it, which keeps the -0.0 entries of K
            K.reshape(sys.d, M + 1, sys.d, M + 1)[...] += (beta * self.a_minus)[:, None, :, None]
        if self._damped:
            # sum_n w_n (-gamma(z_n)) Lhat_i(z_n) Lhat_j(z_n), the same on every component
            rule = default_rule(spec)
            nodes = rule.nodes
            wg = -sigmoid_gamma(damping, nodes[-1], nodes) * rule.weights
            phi = laguerre_fun_table(M, beta * nodes)
            K += np.kron(np.eye(sys.d), beta * np.einsum("n,in,jn->ij", wg, phi, phi))
        self.K = K

    def rhs(self, coeffs: np.ndarray, t: float, boundary_g: np.ndarray) -> np.ndarray:
        """Time derivative of the (d, M+1) coefficient array."""
        g = np.asarray(boundary_g, dtype=float)
        if self._damped:
            out = (self.K @ coeffs.ravel()).reshape(coeffs.shape)
            out += (self._beta_a_plus @ g)[:, None]
            return out
        s = np.cumsum(coeffs, axis=1)
        # every Lhat_j is 1 at the origin, so the trace is the last partial sum
        bc = self.a_plus @ g + self.a_minus @ s[:, -1]
        s -= 0.5 * coeffs
        out = self._minus_beta_a @ s
        out += self.spec.beta * bc[:, None]
        return out
